//! Golden verdicts and statistics for the exact VMC search, the
//! exact-search kernel's memo and the streaming engine.
//!
//! Each `render_*` function below produces one line per (instance,
//! configuration): the verdict — witness schedule included — and every
//! counter the engine reports. The files under `tests/golden/` hold those
//! lines as they were recorded before the alternative memo-key and
//! stream-storage representations were retired, and are compared whole:
//! a changed verdict, schedule or single counter fails here. The
//! instances sit on the representation boundaries that a refactor of the
//! memo or the stream tables must not disturb:
//!
//! * VMC visited set: 8 vs 9 processes and 255 vs 256 ops per process
//!   (the packed `u64` frontier key vs the interned one);
//! * kernel memo: 2-word vs 3-word state keys (the flat short-key tier vs
//!   the interned long-key tier);
//! * stream engine: coherent, violating and retiring streams at several
//!   windows and shard counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use vermem_coherence::kernel::{run_search, KernelConfig, TransitionSystem};
use vermem_coherence::{
    solve_backtracking_with_stats, verify_stream_bytes, PruneConfig, RecorderConfig, SearchConfig,
    StreamConfig,
};
use vermem_trace::binary::{encode_event_stream, encode_trace};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::{Addr, Op, OpRef, ProcId, Trace, TraceBuilder};
use vermem_util::rng::StdRng;

/// Compare `actual` with the golden file `name` line by line.
fn assert_golden(actual: &str, expected: &str, name: &str) {
    let mut expected_lines = expected.lines();
    for (i, line) in actual.lines().enumerate() {
        let want = expected_lines
            .next()
            .unwrap_or_else(|| panic!("{name}: unexpected extra line {}", i + 1));
        assert_eq!(line, want, "{name}: line {}", i + 1);
    }
    assert_eq!(expected_lines.next(), None, "{name}: missing lines");
}

fn random_op(rng: &mut StdRng) -> Op {
    let v = rng.gen_range(0..3u64);
    match rng.gen_range(0..3) {
        0 => Op::r(v),
        1 => Op::w(v),
        _ => Op::rw(v, rng.gen_range(0..3u64)),
    }
}

/// A single-address trace of `procs` processes with 1–3 random ops each.
fn random_trace(procs: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(777_000 + seed);
    let mut b = TraceBuilder::new();
    for _ in 0..procs {
        let len = rng.gen_range(1..=3usize);
        b = b.proc((0..len).map(|_| random_op(&mut rng)).collect::<Vec<_>>());
    }
    b.build()
}

/// A coherent single-address trace with the given history lengths: a
/// random serial interleaving in which each op writes one of three values
/// or reads the current one.
fn serial_trace(lens: &[usize], seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(778_000 + seed);
    let mut hists: Vec<Vec<Op>> = vec![Vec::new(); lens.len()];
    let mut current = 0u64;
    loop {
        let open: Vec<usize> = (0..lens.len())
            .filter(|&p| hists[p].len() < lens[p])
            .collect();
        if open.is_empty() {
            break;
        }
        let p = open[rng.gen_range(0..open.len())];
        let op = if rng.gen_range(0..2) == 0 {
            current = rng.gen_range(1..4u64);
            Op::w(current)
        } else {
            Op::r(current)
        };
        hists[p].push(op);
    }
    hists
        .into_iter()
        .fold(TraceBuilder::new(), |b, h| b.proc(h))
        .build()
}

fn render_vmc() -> String {
    let mut out = String::new();
    let mut instances = Vec::new();
    for procs in [8, 9] {
        for seed in 0..24 {
            instances.push((
                format!("procs={procs} seed={seed}"),
                random_trace(procs, seed),
            ));
        }
    }
    for long in [255, 256] {
        for seed in 0..6 {
            instances.push((
                format!("ops/proc={long} seed={seed}"),
                serial_trace(&[long, 8, 8], seed),
            ));
        }
    }
    // Without the inference prunings the DFS, and so the memo, does the
    // work the feasibility pre-pass would otherwise short-cut.
    let configs = [
        ("default", SearchConfig::default()),
        (
            "no-prune",
            SearchConfig {
                prune: PruneConfig::none(),
                ..SearchConfig::default()
            },
        ),
    ];
    for (ctx, trace) in &instances {
        for (name, cfg) in &configs {
            let (verdict, stats) = solve_backtracking_with_stats(trace, Addr::ZERO, cfg);
            writeln!(out, "{ctx} {name} | {verdict:?} | {stats:?}").unwrap();
        }
    }
    out
}

/// `n` independent counters, each stepped to `limit`; the state key is
/// one word per counter. Commit refs are (counter, step).
struct Counters {
    vals: Vec<u32>,
    limit: u32,
    accept: bool,
}

impl TransitionSystem for Counters {
    type Move = usize;

    fn total_commits(&self) -> usize {
        self.vals.len() * self.limit as usize
    }
    fn accepting(&self) -> bool {
        self.accept
    }
    fn absorb(&mut self, _commits: &mut Vec<OpRef>) {}
    fn retract_read(&mut self, _r: OpRef) {
        unreachable!("no absorption")
    }
    fn infeasible(&self) -> bool {
        false
    }
    fn state_key(&self, key: &mut Vec<u64>) {
        key.extend(self.vals.iter().map(|&v| u64::from(v)));
    }
    fn enabled_moves(&self, moves: &mut Vec<usize>) {
        moves.extend((0..self.vals.len()).filter(|&p| self.vals[p] < self.limit));
    }
    fn apply(&mut self, p: usize) -> Option<OpRef> {
        self.vals[p] += 1;
        Some(OpRef::new(p as u16, self.vals[p] - 1))
    }
    fn undo(&mut self, p: usize) {
        self.vals[p] -= 1;
    }
}

fn render_kernel() -> String {
    let mut out = String::new();
    for words in 1..=4usize {
        for accept in [false, true] {
            for budget in [None, Some(7)] {
                let mut sys = Counters {
                    vals: vec![0; words],
                    limit: 2,
                    accept,
                };
                let cfg = KernelConfig {
                    max_states: budget,
                    ..KernelConfig::default()
                };
                let (outcome, stats) = run_search(&mut sys, &cfg, None);
                writeln!(
                    out,
                    "key words={words} accept={accept} budget={budget:?} | {outcome:?} | {stats:?}"
                )
                .unwrap();
            }
        }
    }
    out
}

fn stream_config(window: Option<usize>, jobs: usize, temporal: bool) -> StreamConfig {
    StreamConfig {
        window,
        jobs,
        temporal,
        ..StreamConfig::default()
    }
}

fn render_stream() -> String {
    let mut runs: Vec<(String, Vec<u8>, StreamConfig)> = Vec::new();
    for seed in [11, 12, 13] {
        let (trace, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 160,
            addrs: 7,
            seed,
            ..Default::default()
        });
        let bytes = encode_trace(&trace);
        for jobs in [1, 2, 8] {
            for window in [Some(16), Some(256), None] {
                runs.push((
                    format!("gen seed={seed} jobs={jobs} window={window:?}"),
                    bytes.clone(),
                    stream_config(window, jobs, false),
                ));
            }
        }
    }
    // A read of a never-written value: end-of-stream detections,
    // forensics and the exact escalation all engage.
    let violating = encode_event_stream(
        2,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &[
            (ProcId(0), Op::w(1u64)),
            (ProcId(1), Op::r(9u64)),
            (ProcId(1), Op::w(2u64)),
            (ProcId(0), Op::r(2u64)),
        ],
    );
    // A long sealing stream under a tight window: retirement and replay.
    let sealing_events: Vec<_> = (0..2_000u64)
        .flat_map(|i| {
            let a = (i % 3) as u32;
            [
                (ProcId(0), Op::write(a, i + 1)),
                (ProcId(1), Op::read(a, i + 1)),
            ]
        })
        .collect();
    let sealing = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &sealing_events);
    for jobs in [1, 2, 8] {
        runs.push((
            format!("violating jobs={jobs} recorder"),
            violating.clone(),
            StreamConfig {
                recorder: Some(RecorderConfig::default()),
                ..stream_config(None, jobs, true)
            },
        ));
        runs.push((
            format!("sealing jobs={jobs} window=Some(16)"),
            sealing.clone(),
            stream_config(Some(16), jobs, true),
        ));
    }

    let mut out = String::new();
    for (ctx, bytes, config) in runs {
        let r = verify_stream_bytes(&bytes, config).expect("stream decodes");
        // Latencies and capture timestamps are wall-clock readings: only
        // their counts are pinned.
        let bundles: Vec<_> = r
            .forensics
            .iter()
            .map(|b| (b.violation, &b.window_ops, b.tier))
            .collect();
        writeln!(
            out,
            "{ctx} | {:?} | {:?} | {:?} | addresses={} events={} latencies={} | {:?} | {:?} | {bundles:?}",
            r.verdict,
            r.stats,
            r.tiers,
            r.addresses,
            r.events,
            r.detect_latencies_us.len(),
            r.metrics,
            r.detections,
        )
        .unwrap();
    }
    out
}

#[test]
fn vmc_search_matches_golden_at_memo_key_boundaries() {
    assert_golden(
        &render_vmc(),
        include_str!("golden/vmc_search.txt"),
        "vmc_search",
    );
}

#[test]
fn kernel_memo_matches_golden_across_key_tiers() {
    assert_golden(
        &render_kernel(),
        include_str!("golden/kernel_memo.txt"),
        "kernel_memo",
    );
}

#[test]
fn stream_reports_match_golden() {
    assert_golden(
        &render_stream(),
        include_str!("golden/stream_reports.txt"),
        "stream_reports",
    );
}
