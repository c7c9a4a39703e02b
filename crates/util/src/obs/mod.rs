//! # `vermem::obs` — zero-dependency tracing and metrics
//!
//! The paper's whole point is that VMC cost *explodes* on adversarial
//! instances (NP-completeness, the Figure 5.3 wall); this module is the
//! measurement substrate that makes a blow-up, a memo-miss storm, or a
//! pool stall *visible* without ever changing an answer:
//!
//! * a process-global, thread-safe **metrics registry** ([`registry`]):
//!   monotonic counters, last/max gauges, and log2-bucketed histograms
//!   with p50/p90/p99;
//! * hierarchical **span timers** ([`span`]) recorded as duration events
//!   with per-thread track ids;
//! * a **Chrome trace-event emitter** ([`chrome`]) whose output loads
//!   directly into `chrome://tracing` / [Perfetto](https://ui.perfetto.dev);
//! * a unified serializable **[`report::RunReport`]** with deterministic
//!   field order, rendered by one shared pretty-printer or the in-tree
//!   JSON writer ([`crate::json`]);
//! * lock-free **rolling time-series** ([`timeseries`]) — windowed
//!   histograms over rotation epochs for live ops/s and sliding
//!   percentiles — and a deterministic **exposition encoder** ([`expo`])
//!   rendering the registry as Prometheus text for the
//!   `vermem serve --obs-addr` introspection endpoint.
//!
//! ## The zero-overhead-when-off contract
//!
//! Observability is **off by default** and gated by a single process-wide
//! [`AtomicBool`]. The [`crate::counter!`], [`crate::gauge!`],
//! [`crate::histogram!`] and [`crate::span!`] macros compile to a
//! relaxed load plus a never-taken branch
//! when disabled — no clock read, no allocation, no lock. Two rules keep
//! that provable:
//!
//! 1. **All clock reads go through [`now_us`]** — the only `Instant::now`
//!    call in the `obs` module tree (`scripts/verify.sh` greps for this),
//!    and every caller sits behind an [`enabled`] check.
//! 2. **Hot loops never touch the registry.** Instrumented subsystems
//!    (the backtracking search, the worker pool, the simulator) keep plain
//!    local counters and *flush aggregates once per solve/run*, so the
//!    enabled cost is per-operation-batch, not per-operation.
//!
//! Rule 1 is the grep gate in `scripts/verify.sh`; the determinism
//! contract below is tested in `crates/sim/tests/obs_determinism.rs`.
//! Those two checks are the evidence that the off switch is free;
//! EXPERIMENTS.md §E-OBS keeps the last wall-clock figures as history.
//!
//! ## The determinism contract
//!
//! Enabling observability must not change verdicts, search statistics,
//! or any frozen PRNG stream: recording is strictly write-only
//! side channel state (`crates/sim/tests/obs_determinism.rs` proves it
//! differentially at jobs ∈ {1, 2, 8}). Note the converse does *not*
//! hold for the registry itself: with >1 worker, speculative per-address
//! work that the deterministic reducer discards is still *flushed*, so
//! registry totals (unlike `SearchStats`) may vary with thread count.
//!
//! ## Example
//!
//! ```
//! use vermem_util::{counter, obs, span};
//!
//! obs::reset();
//! obs::set_enabled(true);
//! {
//!     let mut s = span!("solve");
//!     s.arg("addr", 3);
//!     counter!("search.states", 17);
//! } // span records on drop
//! obs::set_enabled(false);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters["search.states"], 17);
//! let events = obs::take_events();
//! assert_eq!(events.len(), 1);
//! assert!(obs::chrome::render_chrome_trace(&events).contains("\"ph\":\"X\""));
//! ```

pub mod chrome;
pub mod expo;
pub mod registry;
pub mod report;
pub mod span;
pub mod timeseries;

pub use registry::{Gauge, Histogram, MetricsSnapshot};
pub use span::{Span, TraceEvent};

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The process-wide runtime toggle. Const-initialized so [`enabled`] is a
/// single relaxed atomic load with no lazy-init branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The time origin for [`now_us`]: fixed at first use so timestamps are
/// comparable across the whole process lifetime.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// All recorded state (metrics + trace events) behind one mutex. The lock
/// is touched only when observability is enabled, and only at flush
/// granularity (once per solve / span / chunk, never per search state).
static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();

#[derive(Default)]
struct Global {
    metrics: MetricsSnapshot,
    events: Vec<TraceEvent>,
}

fn global() -> &'static Mutex<Global> {
    GLOBAL.get_or_init(Mutex::default)
}

fn with_global<R>(f: impl FnOnce(&mut Global) -> R) -> R {
    f(&mut global().lock().expect("obs state poisoned"))
}

/// True when observability is recording. This is the no-op branch the
/// macros compile to: a relaxed load, nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off. Enabling pins the [`now_us`] epoch so the
/// first span does not pay a lazy-init branch mid-measurement.
pub fn set_enabled(on: bool) {
    if on {
        let _ = now_us(); // pin the epoch
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Microseconds since the process obs epoch.
///
/// This is the **only** clock read in the `obs` module tree (one
/// `Instant::now` occurrence, enforced by `scripts/verify.sh`), and every
/// call site sits behind an [`enabled`] check — the disabled path never
/// touches a clock.
#[inline]
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: std::cell::OnceCell<u32> = const { std::cell::OnceCell::new() };
}

/// A small dense id for the calling thread (1, 2, 3, … in first-use
/// order), used as the Chrome trace `tid` so each pool worker gets its own
/// track.
pub fn thread_id() -> u32 {
    TID.with(|c| *c.get_or_init(|| NEXT_TID.fetch_add(1, Ordering::Relaxed)))
}

/// Add `delta` to the monotonic counter `name`. No-op when disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_global(|g| g.metrics.counter_add(name, delta));
}

/// Set gauge `name` to `value` (tracking last/max/samples) and record a
/// Chrome counter event so the value charts over time. No-op when
/// disabled.
pub fn gauge_set(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let ts_us = now_us();
    let tid = thread_id();
    with_global(|g| {
        g.metrics.gauge_set(name, value);
        g.events.push(TraceEvent {
            name: name.to_string(),
            ph: 'C',
            ts_us,
            dur_us: 0,
            tid,
            args: vec![("value".to_string(), value)],
        });
    });
}

/// Record one `value` into the log2-bucketed histogram `name`. No-op when
/// disabled.
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_global(|g| g.metrics.histogram_record(name, value));
}

/// Merge a locally accumulated [`Histogram`] into the registry — the
/// batch-flush primitive hot loops use instead of per-event
/// [`histogram_record`] calls. No-op when disabled.
pub fn merge_histogram(name: &str, h: &Histogram) {
    if !enabled() || h.count() == 0 {
        return;
    }
    with_global(|g| g.metrics.merge_histogram(name, h));
}

/// Append a raw trace event. No-op when disabled (so a [`Span`] that
/// outlives a disable records nothing).
pub fn record_event(event: TraceEvent) {
    if !enabled() {
        return;
    }
    with_global(|g| g.events.push(event));
}

/// Start a span named `name`. Returns a no-op guard when disabled; when
/// enabled, the guard records an `'X'` duration event on drop. Prefer the
/// [`crate::span!`] macro.
pub fn span_start(name: &str) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span::started(name, now_us())
}

/// A point-in-time copy of the metrics registry.
pub fn snapshot() -> MetricsSnapshot {
    with_global(|g| g.metrics.clone())
}

/// Drain the recorded trace events (oldest first, in recording order —
/// sort by `ts_us` for strict time order; [`chrome::render_chrome_trace`]
/// does so itself).
pub fn take_events() -> Vec<TraceEvent> {
    with_global(|g| std::mem::take(&mut g.events))
}

/// Clear all recorded metrics and events (the toggle and epoch are
/// untouched). Call before a measured run to scope its recordings.
pub fn reset() {
    with_global(|g| {
        g.metrics = MetricsSnapshot::default();
        g.events.clear();
    });
}

/// Add to a monotonic counter iff observability is enabled; compiles to a
/// relaxed load + never-taken branch when off (arguments are not even
/// evaluated).
///
/// ```
/// vermem_util::counter!("search.states", 1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::obs::enabled() {
            $crate::obs::counter_add($name, $delta);
        }
    };
}

/// Set a gauge iff observability is enabled (see [`crate::counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::obs::enabled() {
            $crate::obs::gauge_set($name, $value);
        }
    };
}

/// Record a histogram value iff observability is enabled (see
/// [`crate::counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::obs::enabled() {
            $crate::obs::histogram_record($name, $value);
        }
    };
}

/// Open a span: `let _s = span!("name");` records a duration event when
/// the guard drops. Disabled → a no-op guard, no clock read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::obs::span_start($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The obs state is process-global; tests that toggle it serialize
    /// here so `cargo test`'s threaded runner cannot interleave them.
    pub(super) fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(Mutex::default).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_macros_record_nothing_and_evaluate_nothing() {
        let _g = lock();
        reset();
        set_enabled(false);
        let mut evaluated = false;
        counter!("x", {
            evaluated = true;
            1
        });
        histogram!("h", {
            evaluated = true;
            2
        });
        let _s = span!("s");
        assert!(!evaluated, "disabled macros must not evaluate arguments");
        // Concurrent tests in this binary may have recorded while enabled
        // elsewhere; assert only about this test's own names.
        assert!(!snapshot().counters.contains_key("x"));
        assert!(take_events().iter().all(|e| e.name != "s"));
    }

    #[test]
    fn enabled_counters_gauges_histograms_accumulate() {
        let _g = lock();
        reset();
        set_enabled(true);
        counter!("c", 2);
        counter!("c", 3);
        gauge!("g", 7);
        gauge!("g", 4);
        histogram!("h", 1);
        histogram!("h", 1000);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"].last, 4);
        assert_eq!(snap.gauges["g"].max, 7);
        assert_eq!(snap.gauges["g"].samples, 2);
        assert_eq!(snap.histograms["h"].count(), 2);
        // The two gauge samples became Chrome counter events.
        let events = take_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.ph == 'C' && e.name == "g")
                .count(),
            2
        );
        reset();
        assert!(!snapshot().counters.contains_key("c"));
    }

    #[test]
    fn spans_record_duration_events_with_args() {
        let _g = lock();
        reset();
        set_enabled(true);
        {
            let mut s = span!("work");
            s.arg("addr", 9);
            assert!(s.is_recording());
        }
        set_enabled(false);
        let events = take_events();
        let work: Vec<_> = events.iter().filter(|e| e.name == "work").collect();
        assert_eq!(work.len(), 1);
        let e = work[0];
        assert_eq!(e.ph, 'X');
        assert!(e.tid >= 1);
        assert_eq!(e.args, vec![("addr".to_string(), 9)]);
    }

    #[test]
    fn span_that_outlives_disable_is_dropped_silently() {
        let _g = lock();
        reset();
        set_enabled(true);
        let s = span!("orphan");
        set_enabled(false);
        drop(s);
        set_enabled(true);
        let events = take_events();
        set_enabled(false);
        assert!(events.iter().all(|e| e.name != "orphan"));
    }

    #[test]
    fn thread_ids_are_small_dense_and_distinct() {
        let a = thread_id();
        assert_eq!(a, thread_id(), "stable within a thread");
        let b = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
