//! Deterministic exposition encoder over the metrics registry: the
//! Prometheus text format, written by hand — no external formats crate.
//!
//! Everything here is a pure function of a [`MetricsSnapshot`], so output
//! order is exactly the registry's `BTreeMap` order: two snapshots with
//! equal contents render byte-identical documents (diffable scrapes, the
//! same property [`super::report::RunReport`] guarantees).
//!
//! Name mapping: registry names are dotted (`stream.retired_ops`);
//! Prometheus names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so
//! [`sanitize_metric_name`] rewrites every illegal byte to `_` and the
//! whole family gets a `vermem_` prefix (`vermem_stream_retired_ops`).
//!
//! * Counters → `# TYPE … counter` with the accumulated value.
//! * Gauges → `# TYPE … gauge` for the last value, plus `…_max` and
//!   `…_samples` companions.
//! * Histograms → `# TYPE … histogram`: cumulative `_bucket{le="…"}`
//!   series from [`Histogram::cumulative_buckets`] (log2 bounds), the
//!   mandatory `{le="+Inf"}` terminator, `_sum` and `_count`.

use super::registry::MetricsSnapshot;
use super::Histogram;
use std::fmt::Write as _;

/// Rewrite a registry metric name into a legal Prometheus metric name:
/// `vermem_` prefix, every byte outside `[a-zA-Z0-9_:]` replaced by `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("vermem_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Append one histogram family in Prometheus text format. Public so the
/// introspection server can expose windowed time-series histograms
/// ([`super::timeseries::TimeSeries::windowed`]) alongside the registry.
pub fn prometheus_histogram(out: &mut String, family: &str, h: &Histogram) {
    let _ = writeln!(out, "# TYPE {family} histogram");
    for (le, cumulative) in h.cumulative_buckets() {
        let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{family}_sum {}", h.sum());
    let _ = writeln!(out, "{family}_count {}", h.count());
}

/// Render the whole registry snapshot as a Prometheus text-format
/// document (version 0.0.4): deterministic order, one `# TYPE` comment
/// per family, trailing newline.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let family = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {family} counter");
        let _ = writeln!(out, "{family} {value}");
    }
    for (name, gauge) in &snap.gauges {
        let family = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {family} gauge");
        let _ = writeln!(out, "{family} {}", gauge.last);
        let _ = writeln!(out, "# TYPE {family}_max gauge");
        let _ = writeln!(out, "{family}_max {}", gauge.max);
        let _ = writeln!(out, "# TYPE {family}_samples counter");
        let _ = writeln!(out, "{family}_samples {}", gauge.samples);
    }
    for (name, hist) in &snap.histograms {
        prometheus_histogram(&mut out, &sanitize_metric_name(name), hist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        m.counter_add("search.states", 17);
        m.counter_add("stream.retired_ops", 3);
        m.gauge_set("pool.spsc.queue", 5);
        m.gauge_set("pool.spsc.queue", 2);
        for v in [1u64, 1, 5, 100, 1000] {
            m.histogram_record("tier.exact.us", v);
        }
        m
    }

    #[test]
    fn sanitized_names_are_legal_prometheus_names() {
        assert_eq!(
            sanitize_metric_name("stream.retired_ops"),
            "vermem_stream_retired_ops"
        );
        assert_eq!(sanitize_metric_name("a-b c"), "vermem_a_b_c");
        let name = sanitize_metric_name("tier.exact.us");
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
    }

    #[test]
    fn prometheus_text_shape() {
        let doc = prometheus_text(&sample_snapshot());
        assert!(doc.contains("# TYPE vermem_search_states counter\n"));
        assert!(doc.contains("vermem_search_states 17\n"));
        assert!(doc.contains("# TYPE vermem_pool_spsc_queue gauge\n"));
        assert!(doc.contains("vermem_pool_spsc_queue 2\n"));
        assert!(doc.contains("vermem_pool_spsc_queue_max 5\n"));
        assert!(doc.contains("vermem_pool_spsc_queue_samples 2\n"));
        assert!(doc.contains("# TYPE vermem_tier_exact_us histogram\n"));
        assert!(doc.contains("vermem_tier_exact_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(doc.contains("vermem_tier_exact_us_sum 1107\n"));
        assert!(doc.contains("vermem_tier_exact_us_count 5\n"));
        // Every non-comment line is `name value` or `name{labels} value`.
        for line in doc.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("two fields");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_ordered() {
        let doc = prometheus_text(&sample_snapshot());
        let mut last_le = 0u64;
        let mut last_cum = 0u64;
        for line in doc.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let (head, value) = line.rsplit_once(' ').unwrap();
            let cum: u64 = value.parse().unwrap();
            if let Some(le) = head
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.strip_suffix("\"}"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                assert!(le >= last_le, "le bounds ascend: {line}");
                assert!(cum >= last_cum, "counts are cumulative: {line}");
                last_le = le;
                last_cum = cum;
            }
        }
        assert!(last_cum > 0, "saw at least one finite bucket");
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample_snapshot();
        let b = sample_snapshot();
        assert_eq!(prometheus_text(&a), prometheus_text(&b));
    }

    #[test]
    fn empty_snapshot_renders_empty_families() {
        let empty = MetricsSnapshot::default();
        assert_eq!(prometheus_text(&empty), "");
    }
}
