//! Golden verdicts and statistics for the exact VMC search, the
//! exact-search kernel's memo, the streaming engine and the VMC frontline
//! (closure fixpoint and read-map fast path).
//!
//! Each `render_*` function below produces one line per (instance,
//! configuration): the verdict — witness schedule included — and every
//! counter the engine reports. The files under `tests/golden/` hold those
//! lines as they were recorded before the alternative memo-key and
//! stream-storage representations were retired, before the VMC search
//! moved onto the kernel, and (`frontline.txt`) before the closure and
//! read map moved from hash sets and maps to bit rows and flat arrays.
//! They are compared whole: a changed verdict, window, schedule or single
//! counter fails here. The instances sit on the representation boundaries
//! that a refactor of the memo, the stream tables or the frontline must
//! not disturb:
//!
//! * VMC memo key: 8 vs 9 processes and 255 vs 256 ops per process (the
//!   boundaries of the byte-per-process frontier layout the kernel's
//!   `KeyPacker` replaced: one frontier word vs two, so the flat short-key
//!   tier vs the interned tier), also with values at `0`,
//!   `u64::MAX - 1` and `u64::MAX`;
//! * VMC prunings: the §5.2 over-constrained RMW reduction with pruning
//!   off and on, state budgets of 16, 64 and 256 (`Unknown`), a §5.2
//!   instance whose twin processes only symmetry breaking collapses, hard
//!   coherent instances with several window prunes inside the DFS, and
//!   one escalation from the closure's window table;
//! * kernel memo: 2-word vs 3-word state keys (the flat short-key tier vs
//!   the interned long-key tier);
//! * stream engine: coherent, violating and retiring streams at several
//!   windows and shard counts;
//! * closure frontline and read-map fast path: addresses of 63/64/65,
//!   128/129 and 256/257 ops (one vs several bit-row words, and both
//!   sides of the closure's deep-rule gate), RMW chains, value-reuse and
//!   hard coherent traces that escalate, and read-map addresses with a
//!   precedence cycle, a read before its own writer and an unwritable
//!   final value. Every op's position window is pinned, not just the
//!   verdict;
//! * read-map fast path (`readmap.txt`, recorded before the solver stopped
//!   building a block graph): a seeded corpus of read-map-class instances,
//!   coherent with and without `d_F` and with reads of `d_I`, with several
//!   reads before their own writers (the first one is named), with
//!   multi-block precedence cycles, with unwritable finals and with reads
//!   of values nobody writes. The witness schedule and the violation are
//!   pinned whole, so a change to the release order shows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use vermem_coherence::backtrack::{
    solve_backtracking_ops_with_stats, solve_escalated_ops_with_stats,
};
use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::kernel::{run_search, KernelConfig, TransitionSystem};
use vermem_coherence::readmap::{applicable_ops, solve_readmap_ops};
use vermem_coherence::{
    verify_stream_bytes, RecorderConfig, SearchConfig, StreamConfig, Verdict,
    ViolationKind as VmcViolation,
};
use vermem_reductions::reduce_3sat_rmw;
use vermem_sat::random::{gen_random_ksat, RandomSatConfig};
use vermem_trace::binary::{encode_event_stream, encode_trace};
use vermem_trace::gen::{
    gen_hard_coherent, gen_sc_trace, inject_violation, GenConfig, ViolationKind,
};
use vermem_trace::{Addr, AddrOps, Op, OpRef, ProcId, Trace, TraceBuilder};
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

/// The value alphabet of [`random_trace`].
const SMALL_VALUES: [u64; 3] = [0, 1, 2];
/// The same alphabet at the ends of the `u64` range.
const EXTREME_VALUES: [u64; 3] = [0, u64::MAX - 1, u64::MAX];

fn random_op(rng: &mut StdRng, values: &[u64; 3]) -> Op {
    let v = values[rng.gen_range(0..3u64) as usize];
    match rng.gen_range(0..3) {
        0 => Op::r(v),
        1 => Op::w(v),
        _ => Op::rw(v, values[rng.gen_range(0..3u64) as usize]),
    }
}

/// A single-address trace of `procs` processes with 1–3 random ops each,
/// over the three-value alphabet `values`.
fn random_trace(procs: usize, seed: u64, values: &[u64; 3]) -> Trace {
    let mut rng = StdRng::seed_from_u64(777_000 + seed);
    let mut b = TraceBuilder::new();
    for _ in 0..procs {
        let len = rng.gen_range(1..=3usize);
        b = b.proc(
            (0..len)
                .map(|_| random_op(&mut rng, values))
                .collect::<Vec<_>>(),
        );
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

/// The search config a row label names: `all` (pruning on) or `none`.
fn prune(spec: &str, max_states: Option<u64>) -> SearchConfig {
    let prune = match spec {
        "all" => true,
        "none" => false,
        other => panic!("unknown prune label {other}"),
    };
    SearchConfig { max_states, prune }
}

fn render_vmc() -> String {
    let mut out = String::new();
    let mut instances = Vec::new();
    for procs in [8, 9] {
        for seed in 0..24 {
            instances.push((
                format!("procs={procs} seed={seed}"),
                random_trace(procs, seed, &SMALL_VALUES),
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
                prune: false,
                ..SearchConfig::default()
            },
        ),
    ];
    for (ctx, trace) in &instances {
        let ops = AddrOps::of(trace, Addr::ZERO);
        for (name, cfg) in &configs {
            let (verdict, stats) = solve_backtracking_ops_with_stats(&ops, cfg);
            writeln!(out, "{ctx} {name} | {verdict:?} | {stats:?}").unwrap();
        }
    }

    // Values at both ends of `u64` sit in the memo key's value word, on
    // both sides of the 8/9-process key boundary.
    for procs in [8, 9] {
        for seed in 100..112 {
            let ops = AddrOps::of(&random_trace(procs, seed, &EXTREME_VALUES), Addr::ZERO);
            for (name, cfg) in &configs {
                let (verdict, stats) = solve_backtracking_ops_with_stats(&ops, cfg);
                writeln!(
                    out,
                    "extreme procs={procs} seed={seed} {name} | {verdict:?} | {stats:?}"
                )
                .unwrap();
            }
        }
    }

    // The §5.2 RMW reduction of an over-constrained random 3-SAT formula
    // (94 processes): the window pre-pass decides it, and the unpruned
    // search runs into its cap.
    let rmw = reduce_3sat_rmw(&gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93))).trace;
    let rmw = AddrOps::of(&rmw, Addr::ZERO);
    for spec in ["none", "all"] {
        let (verdict, stats) = solve_backtracking_ops_with_stats(&rmw, &prune(spec, Some(4096)));
        writeln!(out, "e5.2-overcons {spec} | {verdict:?} | {stats:?}").unwrap();
    }

    // A §5.2 reduction the window pre-pass leaves to the search: Figure
    // 5.2's twin processes per variable are what symmetry breaking
    // collapses (tens of thousands of states unpruned, a few hundred
    // pruned).
    let twins = reduce_3sat_rmw(&gen_random_ksat(&RandomSatConfig::three_sat(3, 6.0, 7))).trace;
    let twins = AddrOps::of(&twins, Addr::ZERO);
    for spec in ["none", "all"] {
        let (verdict, stats) = solve_backtracking_ops_with_stats(&twins, &prune(spec, None));
        writeln!(out, "e5.2-twins {spec} | {verdict:?} | {stats:?}").unwrap();
    }

    // Hard coherent instances whose DFS prunes on the position windows
    // (some also on symmetry).
    let hard: Vec<_> = [
        (4, 8, 27),
        (5, 6, 8),
        (5, 6, 36),
        (5, 8, 10),
        (5, 8, 25),
        (5, 8, 27),
    ]
    .into_iter()
    .map(|(procs, ops, seed)| {
        (
            format!("hard procs={procs} ops={ops} seed={seed}"),
            gen_hard_coherent(procs, ops, 2, seed).0,
        )
    })
    .collect();
    for (ctx, trace) in &hard {
        let ops = AddrOps::of(trace, Addr::ZERO);
        let (verdict, stats) = solve_backtracking_ops_with_stats(&ops, &prune("all", None));
        writeln!(out, "{ctx} all | {verdict:?} | {stats:?}").unwrap();
    }

    // State budgets: a capped search answers `Unknown`.
    for budget in [16, 64, 256] {
        let (verdict, stats) =
            solve_backtracking_ops_with_stats(&rmw, &prune("none", Some(budget)));
        writeln!(
            out,
            "e5.2-overcons none budget={budget} | {verdict:?} | {stats:?}"
        )
        .unwrap();
        let (ctx, trace) = &hard[2];
        let ops = AddrOps::of(trace, Addr::ZERO);
        let (verdict, stats) = solve_backtracking_ops_with_stats(&ops, &prune("all", Some(budget)));
        writeln!(out, "{ctx} all budget={budget} | {verdict:?} | {stats:?}").unwrap();
    }

    // The exact tier resumed from the closure frontline's window table.
    let (ctx, trace) = &hard[4];
    let ops = AddrOps::of(trace, Addr::ZERO);
    let ClosureOutcome::Escalate(table) = analyze_ops(&ops).0 else {
        panic!("{ctx} must escalate past the closure");
    };
    let (verdict, stats) =
        solve_escalated_ops_with_stats(&ops, &SearchConfig::default(), Some(table));
    writeln!(out, "{ctx} escalated | {verdict:?} | {stats:?}").unwrap();
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
    fn refute(&self) -> bool {
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
                let cfg = KernelConfig { max_states: budget };
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

/// Split `n` ops over `procs` processes as evenly as possible.
fn even_lens(n: usize, procs: usize) -> Vec<usize> {
    (0..procs)
        .map(|p| n / procs + usize::from(p < n % procs))
        .collect()
}

/// A coherent single-address chain of `n` ops in which every write is an
/// RMW of the current value, with reads interleaved: the RMW pigeonhole
/// and the forced serving order carry the whole instance.
fn rmw_chain(procs: usize, n: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(779_000 + seed);
    let mut hists: Vec<Vec<Op>> = vec![Vec::new(); procs];
    let mut current = 0u64;
    for _ in 0..n {
        let p = rng.gen_range(0..procs);
        let op = if rng.gen_range(0..3) == 0 {
            Op::r(current)
        } else {
            let next = rng.gen_range(0..4u64);
            let op = Op::rw(current, next);
            current = next;
            op
        };
        hists[p].push(op);
    }
    hists
        .into_iter()
        .fold(TraceBuilder::new(), |b, h| b.proc(h))
        .build()
}

/// One line per front-line layer that applies to `trace` at address 0:
/// the closure's outcome in full (schedule, violation, or every op's
/// `(lo, hi)` window) with its stats, and the read-map verdict when the
/// read-map fast path applies.
fn render_frontline_instance(out: &mut String, ctx: &str, trace: &Trace) {
    let ops = AddrOps::of(trace, Addr::ZERO);
    let (outcome, stats) = analyze_ops(&ops);
    let shown = match &outcome {
        ClosureOutcome::Coherent(s) => format!("Coherent {s:?}"),
        ClosureOutcome::Violation(v) => format!("Violation {v:?}"),
        ClosureOutcome::Escalate(table) => {
            let mut w = String::from("Escalate");
            for (p, h) in ops.per_proc().iter().enumerate() {
                write!(w, " p{p}:").unwrap();
                for j in 0..h.len() as u32 {
                    let (lo, hi) = table.window(p, j);
                    write!(w, " {lo}-{hi}").unwrap();
                }
            }
            w
        }
    };
    writeln!(
        out,
        "{ctx} n={} closure | {shown} | {stats:?}",
        ops.num_ops()
    )
    .unwrap();
    if applicable_ops(&ops) {
        writeln!(out, "{ctx} readmap | {:?}", solve_readmap_ops(&ops)).unwrap();
    }
}

fn render_frontline() -> String {
    let mut out = String::new();
    let sizes = [63, 64, 65, 128, 129, 256, 257];
    let kinds = [
        ViolationKind::CorruptReadValue,
        ViolationKind::StaleRead,
        ViolationKind::LostWrite,
        ViolationKind::ReorderAdjacent,
    ];
    for n in sizes {
        for seed in 0..3u64 {
            let serial = serial_trace(&even_lens(n, 4), seed);
            render_frontline_instance(&mut out, &format!("serial n={n} seed={seed}"), &serial);
            // The same trace with its final value dumped: the unique-final-
            // writer rule engages when the last value has one writer.
            let mut with_final = serial.clone();
            if let Some(v) = serial
                .iter_ops()
                .filter_map(|(_, op)| op.written_value())
                .last()
            {
                with_final.set_final(Addr::ZERO, v);
            }
            render_frontline_instance(
                &mut out,
                &format!("serial+final n={n} seed={seed}"),
                &with_final,
            );
            let chain = rmw_chain(3, n, seed);
            render_frontline_instance(&mut out, &format!("rmw-chain n={n} seed={seed}"), &chain);
            for (name, reuse, rmw) in [
                ("reuse", 0.5, 0.0),
                ("reuse-rmw", 0.5, 0.3),
                ("unique", 0.0, 0.0),
            ] {
                let (trace, _) = gen_sc_trace(&GenConfig {
                    procs: 4,
                    total_ops: n,
                    addrs: 1,
                    write_fraction: 0.6,
                    rmw_fraction: rmw,
                    value_reuse: reuse,
                    seed: 780_000 + seed,
                });
                let ctx = format!("{name} n={n} seed={seed}");
                render_frontline_instance(&mut out, &ctx, &trace);
                for (k, kind) in kinds.iter().enumerate() {
                    if let Some((bad, _)) = inject_violation(&trace, *kind, seed * 7 + k as u64) {
                        render_frontline_instance(&mut out, &format!("{ctx} {kind:?}"), &bad);
                    }
                }
            }
        }
    }

    // Hard coherent instances (repeated values, several writers per
    // value), most of which escalate past the closure.
    for (procs, ops_per_proc) in [(4, 6), (4, 8), (5, 8), (8, 16), (8, 32), (16, 16)] {
        for seed in 0..4u64 {
            let (trace, _) = gen_hard_coherent(procs, ops_per_proc, 2, seed);
            render_frontline_instance(
                &mut out,
                &format!("hard procs={procs} ops={ops_per_proc} seed={seed}"),
                &trace,
            );
        }
    }

    // Read-map addresses decided by each of its rules.
    let fixed = [
        (
            "readmap cycle",
            TraceBuilder::new()
                .proc([Op::w(1u64), Op::r(2u64)])
                .proc([Op::w(2u64), Op::r(1u64)])
                .build(),
        ),
        (
            "readmap cycle3",
            TraceBuilder::new()
                .proc([Op::w(1u64), Op::r(2u64)])
                .proc([Op::w(2u64), Op::r(3u64)])
                .proc([Op::w(3u64), Op::r(1u64)])
                .proc([Op::r(0u64), Op::w(4u64)])
                .build(),
        ),
        (
            "readmap read-before-own-writer",
            TraceBuilder::new()
                .proc([Op::w(2u64), Op::r(1u64)])
                .proc([Op::r(2u64), Op::r(3u64), Op::w(3u64)])
                .proc([Op::r(1u64), Op::w(1u64)])
                .build(),
        ),
        (
            "readmap final-unwritable",
            TraceBuilder::new()
                .proc([Op::w(1u64), Op::w(2u64)])
                .proc([Op::r(1u64)])
                .final_value(0u32, 1u64)
                .build(),
        ),
        (
            "readmap final-last",
            TraceBuilder::new()
                .proc([Op::w(1u64), Op::r(2u64)])
                .proc([Op::r(0u64), Op::w(2u64), Op::w(3u64)])
                .proc([Op::r(1u64), Op::r(3u64)])
                .final_value(0u32, 3u64)
                .build(),
        ),
        (
            "readmap initial-only",
            TraceBuilder::new()
                .proc([Op::r(0u64), Op::r(0u64)])
                .proc([Op::r(0u64)])
                .final_value(0u32, 0u64)
                .build(),
        ),
    ];
    for (ctx, trace) in &fixed {
        render_frontline_instance(&mut out, ctx, trace);
    }
    out
}

/// Address 0's value in the read-map corpus that no operation writes.
const STRAY: u64 = 999;

/// Histories for [`readmap_trace`]: address-0 ops, each process's list
/// interleaved with ops at address 1 so that the refs of address 0 skip
/// positions.
fn with_noise(rng: &mut StdRng, hists: Vec<Vec<Op>>) -> TraceBuilder {
    hists.into_iter().fold(TraceBuilder::new(), |b, h| {
        let mut out = Vec::with_capacity(2 * h.len());
        for op in h {
            if rng.gen_bool(0.25) {
                out.push(if rng.gen_bool(0.5) {
                    Op::read(1u32, rng.gen_range(0..3u64))
                } else {
                    Op::write(1u32, rng.gen_range(0..3u64))
                });
            }
            out.push(op);
        }
        b.proc(out)
    })
}

/// A serial interleaving of `lens` at address 0: each op writes a fresh
/// value (from 1 up) or reads the current one, `initial` first. Returns
/// the histories and the values written, in the serial order.
fn serial_fresh(rng: &mut StdRng, lens: &[usize], initial: u64) -> (Vec<Vec<Op>>, Vec<u64>) {
    let mut hists: Vec<Vec<Op>> = vec![Vec::new(); lens.len()];
    let (mut current, mut written) = (initial, Vec::new());
    loop {
        let open: Vec<usize> = (0..lens.len())
            .filter(|&p| hists[p].len() < lens[p])
            .collect();
        if open.is_empty() {
            return (hists, written);
        }
        let p = open[rng.gen_range(0..open.len())];
        if rng.gen_bool(0.45) {
            current = written.len() as u64 + 1;
            written.push(current);
            hists[p].push(Op::w(current));
        } else {
            hists[p].push(Op::r(current));
        }
    }
}

/// One seeded instance of the read-map class at address 0: every value
/// written at most once, no RMW, `d_I` never rewritten.
///
/// * `serial`: a coherent serial interleaving (reads of `d_I` first),
///   under no final value, the last value written, an earlier one, `d_I`
///   or a value nobody writes;
/// * `self-cycle`: a serial interleaving in which two or three reads are
///   moved before their own writer in its process: several same-block
///   cycles;
/// * `ring`: processes each writing a value and reading the next
///   process's, around a ring, with serial traffic around it: a
///   multi-block precedence cycle;
/// * `random`: random writes of fresh values and reads of any written
///   value, of `d_I` or (sometimes) of a value nobody writes.
fn readmap_trace(family: &str, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(781_000 + seed);
    let procs = rng.gen_range(1..=5usize);
    let lens: Vec<usize> = (0..procs).map(|_| rng.gen_range(0..=6usize)).collect();
    let initial = if rng.gen_bool(0.3) { 1000 } else { 0 };
    let (hists, written) = match family {
        "serial" => serial_fresh(&mut rng, &lens, initial),
        "self-cycle" => {
            let (mut hists, written) = serial_fresh(&mut rng, &lens, initial);
            for _ in 0..rng.gen_range(2..=3) {
                let writers: Vec<(usize, usize)> = hists
                    .iter()
                    .enumerate()
                    .flat_map(|(p, h)| {
                        h.iter()
                            .enumerate()
                            .filter(|(_, op)| op.is_writing())
                            .map(move |(j, _)| (p, j))
                    })
                    .collect();
                if writers.is_empty() {
                    break;
                }
                let (p, j) = writers[rng.gen_range(0..writers.len())];
                let v = hists[p][j].written_value().expect("a write");
                let at = rng.gen_range(0..=j);
                hists[p].insert(at, Op::r(v));
            }
            (hists, written)
        }
        "ring" => {
            let (mut hists, mut written) = serial_fresh(&mut rng, &lens, initial);
            let k = rng.gen_range(2..=4usize);
            let first = written.len() as u64 + 1;
            for i in 0..k as u64 {
                written.push(first + i);
                hists.push(vec![Op::w(first + i), Op::r(first + (i + 1) % k as u64)]);
            }
            (hists, written)
        }
        "random" => {
            // Which positions write, then fresh values for the writes in
            // flat order, then each read's value.
            let stray = rng.gen_bool(0.15);
            let kinds: Vec<Vec<bool>> = lens
                .iter()
                .map(|&len| (0..len).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let writes = kinds.iter().flatten().filter(|&&w| w).count() as u64;
            let mut next = 0;
            let hists = kinds
                .iter()
                .map(|h| {
                    h.iter()
                        .map(|&w| {
                            if w {
                                next += 1;
                                Op::w(next)
                            } else if stray && rng.gen_bool(0.2) {
                                Op::r(STRAY)
                            } else if writes == 0 || rng.gen_bool(0.2) {
                                Op::r(initial)
                            } else {
                                Op::r(rng.gen_range(1..=writes))
                            }
                        })
                        .collect()
                })
                .collect();
            (hists, (1..=writes).collect())
        }
        other => panic!("unknown read-map family {other}"),
    };
    let mut builder = with_noise(&mut rng, hists);
    if initial != 0 {
        builder = builder.initial(0u32, initial);
    }
    let last = written.last().copied().unwrap_or(initial);
    let final_value = match rng.gen_range(0..10) {
        0..=3 => None,
        4..=6 => Some(last),
        7 if !written.is_empty() => Some(written[rng.gen_range(0..written.len())]),
        8 => Some(initial),
        _ => Some(STRAY),
    };
    if let Some(f) = final_value {
        builder = builder.final_value(0u32, f);
    }
    builder.build()
}

/// The read-map verdict of every corpus instance, one line each, then a
/// line of per-class counts. Every instance must be in the read-map
/// class.
fn render_readmap() -> String {
    let mut out = String::new();
    // coherent with d_F, coherent without, coherent reading d_I,
    // same-block cycle with several offending reads, multi-block cycle,
    // unwritable final (the rule), precheck violation.
    let mut classes = [0u32; 7];
    for (family, seeds) in [
        ("serial", 160),
        ("self-cycle", 120),
        ("ring", 80),
        ("random", 240),
    ] {
        for seed in 0..seeds {
            let trace = readmap_trace(family, seed);
            let ops = AddrOps::of(&trace, Addr::ZERO);
            assert!(applicable_ops(&ops), "{family} seed={seed}: {trace:?}");
            let verdict = solve_readmap_ops(&ops);
            writeln!(
                out,
                "{family} seed={seed} n={} | {verdict:?}",
                ops.num_ops()
            )
            .unwrap();
            let offending_reads = ops
                .iter()
                .filter(|&(r, op)| {
                    op.read_value().is_some_and(|v| {
                        ops.iter().any(|(w, o)| {
                            o.written_value() == Some(v) && w.proc == r.proc && r.index < w.index
                        })
                    })
                })
                .count();
            let reads_initial = ops.ids().iter().any(|i| i.read() == Some(0));
            match &verdict {
                Verdict::Coherent(_) => {
                    classes[usize::from(ops.final_value().is_none())] += 1;
                    classes[2] += u32::from(reads_initial);
                }
                Verdict::Incoherent(v) => match &v.kind {
                    VmcViolation::PrecedenceCycle { cycle } => {
                        let first = trace.op(cycle[0]).expect("a ref into the trace");
                        if !first.is_writing() {
                            classes[3] += u32::from(offending_reads >= 2);
                        } else {
                            classes[4] += 1;
                        }
                    }
                    VmcViolation::FinalValueUnwritable { value } => {
                        let written = ops.iter().any(|(_, op)| op.written_value() == Some(*value));
                        classes[if written { 5 } else { 6 }] += 1;
                    }
                    VmcViolation::NoWriterForValue { .. } => classes[6] += 1,
                    other => panic!("{family} seed={seed}: unexpected {other:?}"),
                },
                Verdict::Unknown => panic!("{family} seed={seed}: the read map never gives up"),
            }
        }
    }
    for (class, &count) in classes.iter().enumerate() {
        assert!(
            count >= 5,
            "read-map corpus class {class} has {count} instances"
        );
    }
    let [fin, nofin, initial, self_cycles, multi, unwritable, precheck] = classes;
    writeln!(
        out,
        "classes: coherent+final={fin} coherent={nofin} coherent+reads-d_I={initial} \
         self-cycles>=2={self_cycles} multi-block-cycle={multi} final-unwritable={unwritable} \
         precheck={precheck}"
    )
    .unwrap();
    out
}

#[test]
fn frontline_matches_golden_at_bit_word_and_deep_gate_boundaries() {
    assert_golden(
        &render_frontline(),
        include_str!("golden/frontline.txt"),
        "frontline",
    );
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

#[test]
fn readmap_matches_golden_on_seeded_corpus() {
    assert_golden(
        &render_readmap(),
        include_str!("golden/readmap.txt"),
        "readmap",
    );
}
