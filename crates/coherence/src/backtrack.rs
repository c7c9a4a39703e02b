//! Exact VMC decision: the single-address search on the exact-search
//! kernel ([`crate::kernel`]).
//!
//! Worst-case exponential — necessarily so, since VMC is NP-complete
//! (Theorem 4.2). VMC is VSC restricted to one address, so the search is
//! the SC machine ([`crate::machine`], [`BufferKind::Atomic`]) built on
//! the address's [`AddrOps`]: greedy absorption of reads memory serves,
//! memoization of `(frontiers, current value)` (which makes this same
//! procedure the polynomial algorithm for the "constant processes" row of
//! Figure 5.3), an uncounted supply refutation of dead ends, and writes
//! some blocked read waits for explored first. Its witness is the commit
//! order of the address's original operations.
//!
//! With [`SearchConfig::prune`] on, the machine also takes VMC's two
//! admissible prunings: the closure frontline's position windows reject
//! branches in [`crate::kernel::TransitionSystem::admit`], and symmetry
//! breaking drops interchangeable moves as the machine enumerates them.

use crate::closure::{self, ClosureOutcome, Tier};
use crate::kernel::{self, KernelConfig, KernelOutcome};
use crate::machine::{BufferKind, CompiledMachine};
use crate::verdict::{Verdict, Violation, ViolationKind};
use crate::windows::WindowTable;
use vermem_trace::{AddrOps, Schedule};
use vermem_util::obs;

pub use crate::kernel::SearchStats;

/// Budget and pruning switch for the exact search. The switch changes
/// performance only, never answers.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Maximum distinct states to visit before giving up with
    /// [`Verdict::Unknown`]. `None` = unlimited.
    pub max_states: Option<u64>,
    /// Run the admissible prunings (soundness arguments in DESIGN.md §4b):
    /// the closure frontline's feasibility-interval pre-pass
    /// ([`crate::windows`]), which can decide the instance outright and
    /// otherwise leaves per-op position windows that prune DFS branches,
    /// and value-symmetry breaking, which lets only the lowest-numbered of
    /// several processes with identical remaining suffixes branch.
    /// Default `true`; `false` is the unpruned search.
    pub prune: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_states: None,
            prune: true,
        }
    }
}

/// Static prechecks shared by all solvers: values read but never written,
/// and unproducible final values. Returns a violation if one is certain.
/// Reports the first violation in [`AddrOps::iter`] order, which is the
/// filtered-`iter_ops` order of the trace.
pub fn precheck_ops(ops: &AddrOps) -> Option<Violation> {
    let initial = ops.initial();
    for (r, op) in ops.iter() {
        if let Some(v) = op.read_value() {
            if v != initial && ops.writes_of(v) == 0 {
                return Some(Violation {
                    addr: ops.addr(),
                    kind: ViolationKind::NoWriterForValue { read: r, value: v },
                });
            }
        }
    }
    if let Some(f) = ops.final_value() {
        let producible = if ops.write_counts().is_empty() {
            f == initial
        } else {
            ops.writes_of(f) > 0
        };
        if !producible {
            return Some(Violation {
                addr: ops.addr(),
                kind: ViolationKind::FinalValueUnwritable { value: f },
            });
        }
    }
    None
}

/// Decide coherence of one address's VMC instance by exhaustive memoized
/// search, returning search statistics with the verdict. A witness
/// references the original trace and passes
/// [`vermem_trace::check_coherent_schedule_ops`] on `ops`.
pub fn solve_backtracking_ops_with_stats(
    ops: &AddrOps,
    cfg: &SearchConfig,
) -> (Verdict, SearchStats) {
    let (verdict, stats, _) = solve_tiered_ops(ops, cfg);
    if let Verdict::Coherent(witness) = &verdict {
        debug_assert!(
            vermem_trace::check_coherent_schedule_ops(ops, witness).is_ok(),
            "solver produced invalid witness"
        );
    }
    (verdict, stats)
}

/// As [`solve_backtracking_ops_with_stats`], also naming the tier that
/// decided. With `prune` on, the precheck and feasibility-interval
/// pre-pass are the closure frontline ([`closure::analyze_ops`]): it can
/// decide the instance outright ([`Tier::Frontline`]), and otherwise hands
/// its window table to the search ([`Tier::Exact`]).
pub(crate) fn solve_tiered_ops(ops: &AddrOps, cfg: &SearchConfig) -> (Verdict, SearchStats, Tier) {
    if !cfg.prune {
        if let Some(v) = precheck_ops(ops) {
            return (Verdict::Incoherent(v), SearchStats::default(), Tier::Exact);
        }
        let (verdict, stats) = solve_escalated_ops_with_stats(ops, cfg, None);
        return (verdict, stats, Tier::Exact);
    }
    match closure::analyze_ops(ops) {
        (ClosureOutcome::Coherent(s), stats) => (Verdict::Coherent(s), stats, Tier::Frontline),
        (ClosureOutcome::Violation(v), stats) => (Verdict::Incoherent(v), stats, Tier::Frontline),
        (ClosureOutcome::Escalate(table), _) => {
            let (verdict, stats) = solve_escalated_ops_with_stats(ops, cfg, Some(table));
            (verdict, stats, Tier::Exact)
        }
    }
}

/// Exact-tier **escalation** entry point: run the memoized search with the
/// [`WindowTable`] the closure frontline ([`crate::closure`]) already
/// computed, instead of re-running the fixpoint analysis.
///
/// Contract: the caller must have run [`precheck_ops`] (the frontline
/// does), and `window` must be the table from that same analysis when
/// `cfg.prune` is on (`None` when it is off). Under that contract the result —
/// verdict, witness, and [`SearchStats`] — is bit-identical to
/// [`solve_backtracking_ops_with_stats`], which delegates here after the
/// frontline.
pub fn solve_escalated_ops_with_stats(
    ops: &AddrOps,
    cfg: &SearchConfig,
    window_table: Option<WindowTable>,
) -> (Verdict, SearchStats) {
    let mut sys =
        CompiledMachine::new([ops], BufferKind::Atomic).with_pruning(window_table, cfg.prune);
    let kernel_cfg = KernelConfig {
        max_states: cfg.max_states,
    };
    let (outcome, mut stats) = kernel::run_search(&mut sys, &kernel_cfg, None);
    stats.symmetry_prunes = sys.symmetry_prunes();

    // The kernel flushed the counters every system shares; this field
    // only VMC sets.
    if obs::enabled() {
        obs::counter_add("search.symmetry.prunes", stats.symmetry_prunes);
    }

    let verdict = match outcome {
        KernelOutcome::Accepted(refs) => Verdict::Coherent(Schedule::from_refs(refs)),
        KernelOutcome::Refuted => Verdict::Incoherent(Violation {
            addr: ops.addr(),
            kind: ViolationKind::SearchExhausted,
        }),
        KernelOutcome::BudgetExhausted | KernelOutcome::Cancelled => Verdict::Unknown,
    };
    (verdict, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{check_coherent_schedule, Addr, Op, OpRef, Trace, TraceBuilder, Value};

    fn solve(trace: &Trace) -> Verdict {
        let ops = AddrOps::of(trace, Addr::ZERO);
        solve_backtracking_ops_with_stats(&ops, &SearchConfig::default()).0
    }

    #[test]
    fn empty_trace_is_coherent() {
        let t = Trace::new();
        assert!(solve(&t).is_coherent());
    }

    #[test]
    fn single_write_read_pair() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn unwritten_read_value_detected_by_precheck() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(9u64)])
            .build();
        match solve(&t) {
            Verdict::Incoherent(v) => {
                assert!(matches!(v.kind, ViolationKind::NoWriterForValue { .. }))
            }
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn read_of_initial_value_ok() {
        let t = TraceBuilder::new()
            .proc([Op::r(5u64), Op::w(1u64)])
            .initial(0u32, 5u64)
            .build();
        assert!(solve(&t).is_coherent());
    }

    #[test]
    fn order_sensitive_instance() {
        // P0: W(1) R(2); P1: W(2) R(1) — coherent: W(1) R? no...
        // W(1), W(2): after both, current=last. Schedule: W(1),W(2),R(2)..R(1)
        // fails (R(1) after W(2) sees 2). Try W(2),W(1): R(1) ok then R(2)?
        // sees 1 — fails. Interleave: W(1); W(2); no. W(1), R? P0's R(2)
        // blocked. Actually: P1:W(2), P0:W(1), P1:R(1), then P0:R(2)? current
        // is 1 — fails. P0:W(1), P1:W(2), P0:R(2), P1:R(1)? R(1) sees 2 —
        // fails. Incoherent.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        match solve(&t) {
            Verdict::Incoherent(v) => {
                assert_eq!(v.kind, ViolationKind::SearchExhausted)
            }
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn rewrite_makes_it_coherent() {
        // Same as above but values rewritten once more: coherent.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64), Op::w(2u64)])
            .build();
        // W(1) [P0], ... hmm trust the solver + checker.
        let v = solve(&t);
        if let Some(s) = v.schedule() {
            check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        } else {
            // Verify by brute force that it is indeed incoherent.
            assert!(brute_force(&t).is_none());
        }
    }

    #[test]
    fn final_value_constraint_respected() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("coherent with W(2) before W(1)");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn final_value_unwritable_detected() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .final_value(0u32, 9u64)
            .build();
        match solve(&t) {
            Verdict::Incoherent(v) => {
                assert_eq!(
                    v.kind,
                    ViolationKind::FinalValueUnwritable { value: Value(9) }
                )
            }
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn rmw_chain_ordering() {
        // Three RMWs forming a forced chain 0->1->2->3.
        let t = TraceBuilder::new()
            .proc([Op::rw(1u64, 2u64)])
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(2u64, 3u64)])
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("chain exists");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        // Order must be P1, P0, P2.
        let procs: Vec<u16> = s.refs().iter().map(|r| r.proc.0).collect();
        assert_eq!(procs, vec![1, 0, 2]);
    }

    #[test]
    fn budget_produces_unknown_on_hard_instance() {
        let (t, _) = vermem_trace::gen::gen_hard_coherent(6, 8, 2, 3);
        let cfg = SearchConfig {
            max_states: Some(1),
            ..Default::default()
        };
        let (v, _) = solve_backtracking_ops_with_stats(&AddrOps::of(&t, Addr::ZERO), &cfg);
        // With a 1-state budget the solver can only answer if the instance
        // is trivially easy; accept Coherent-or-Unknown but never wrong.
        if let Verdict::Coherent(s) = &v {
            check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        }
    }

    #[test]
    fn generated_coherent_traces_verify() {
        for seed in 0..20 {
            let (t, _) = vermem_trace::gen::gen_hard_coherent(4, 6, 2, seed);
            let v = solve(&t);
            let s = v
                .schedule()
                .unwrap_or_else(|| panic!("generated trace must be coherent (seed {seed})"));
            check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        }
    }

    #[test]
    fn ablation_configurations_agree() {
        use vermem_util::rng::StdRng;
        let configs = [
            SearchConfig::default(),
            SearchConfig {
                prune: false,
                ..Default::default()
            },
        ];
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(123_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..3) {
                            0 => Op::r(v),
                            1 => Op::w(v),
                            _ => Op::rw(v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let ops = AddrOps::of(&t, Addr::ZERO);
            let reference = solve_backtracking_ops_with_stats(&ops, &configs[0])
                .0
                .is_coherent();
            for (i, cfg) in configs.iter().enumerate().skip(1) {
                let (got, _) = solve_backtracking_ops_with_stats(&ops, cfg);
                assert_eq!(
                    got.is_coherent(),
                    reference,
                    "config {i} diverges on seed {seed}: {t:?}"
                );
                if let Some(s) = got.schedule() {
                    vermem_trace::check_coherent_schedule_ops(&ops, s).unwrap();
                }
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=3);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..3) {
                            0 => Op::r(v),
                            1 => Op::w(v),
                            _ => Op::rw(v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let expected = brute_force(&t).is_some();
            let got = solve(&t).is_coherent();
            assert_eq!(got, expected, "divergence on seed {seed}: {t:?}");
        }
    }

    /// Brute-force all interleavings (tiny instances only).
    fn brute_force(trace: &Trace) -> Option<Schedule> {
        fn rec(trace: &Trace, frontier: &mut Vec<u32>, acc: &mut Vec<OpRef>, total: usize) -> bool {
            if acc.len() == total {
                let s = Schedule::from_refs(acc.iter().copied());
                return check_coherent_schedule(trace, Addr::ZERO, &s).is_ok();
            }
            for p in 0..frontier.len() {
                let h = &trace.histories()[p];
                if (frontier[p] as usize) < h.len() {
                    acc.push(OpRef::new(p as u16, frontier[p]));
                    frontier[p] += 1;
                    if rec(trace, frontier, acc, total) {
                        return true;
                    }
                    frontier[p] -= 1;
                    acc.pop();
                }
            }
            false
        }
        let mut frontier = vec![0u32; trace.num_procs()];
        let mut acc = Vec::new();
        let total = trace.num_ops();
        if rec(trace, &mut frontier, &mut acc, total) {
            Some(Schedule::from_refs(acc))
        } else {
            None
        }
    }
}
