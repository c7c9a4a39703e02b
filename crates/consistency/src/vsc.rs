//! Verifying Sequential Consistency (VSC, Definition 6.1): exact decision
//! by memoized backtracking over global interleavings.
//!
//! The search generalizes the single-address VMC search: state is the
//! per-process frontier plus the current value of every touched address;
//! reads that match their address's current value are absorbed greedily
//! (the same exchange argument as for coherence applies per address).
//! VSC is NP-complete (Gibbons & Korach; also by restriction from VMC,
//! §6.1), so worst-case exponential behaviour is unavoidable.
//!
//! Since the axiom refactor this module holds only the per-address
//! precheck and the SC entry points; the machine itself is *compiled*
//! from [`crate::axiom::SC_SPEC`] by [`crate::axiom`]'s operational
//! compiler onto [`vermem_coherence::kernel`] — the same engine that runs
//! the TSO/PSO machines. Its verdicts and [`SearchStats`] are pinned by
//! the golden file of `tests/axiom_differential.rs`, recorded while the
//! pre-refactor hand-written machine still ran beside it and matched it
//! bit for bit.

use crate::axiom::{solve_compiled_with_stats, ModelId};
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use vermem_coherence::kernel::KernelConfig;
use vermem_coherence::SearchStats;
use vermem_trace::Trace;
use vermem_util::pool::CancelToken;

/// Static prechecks: per-address unreadable values / unproducible finals.
pub fn precheck_sc(trace: &Trace) -> Option<ConsistencyViolation> {
    for addr in trace.addresses() {
        if let Some(v) = vermem_coherence::backtrack::precheck(trace, addr) {
            return Some(ConsistencyViolation {
                class: ViolationClass::PerAddressCoherence(v),
            });
        }
    }
    None
}

/// Decide sequential consistency of `trace` by exhaustive memoized search.
pub fn solve_sc_backtracking(trace: &Trace, cfg: &KernelConfig) -> ConsistencyVerdict {
    solve_sc_backtracking_with_stats(trace, cfg, None).0
}

/// [`solve_sc_backtracking`] with kernel [`SearchStats`] and cooperative
/// cancellation.
pub fn solve_sc_backtracking_with_stats(
    trace: &Trace,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (ConsistencyVerdict, SearchStats) {
    solve_compiled_with_stats(trace, ModelId::Sc, cfg, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{check_sc_schedule, Op, OpRef, Schedule, TraceBuilder, Value};

    fn solve(t: &Trace) -> ConsistencyVerdict {
        solve_sc_backtracking(t, &KernelConfig::default())
    }

    #[test]
    fn empty_is_sc() {
        assert!(solve(&Trace::new()).is_consistent());
    }

    #[test]
    fn message_passing_pass_outcome_is_sc() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 1u64)])
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("SC");
        check_sc_schedule(&t, s).unwrap();
    }

    #[test]
    fn message_passing_violation_not_sc() {
        // R(y)=1 but then R(x)=0: forbidden under SC (and TSO).
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(solve(&t).is_violating());
    }

    #[test]
    fn store_buffering_violation_not_sc() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(solve(&t).is_violating());
    }

    #[test]
    fn iriw_violation_not_sc() {
        // IRIW: writers W(x,1), W(y,1); readers see them in opposite orders.
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(1u32, 1u64)])
            .proc([Op::read(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(solve(&t).is_violating());
    }

    #[test]
    fn final_values_respected() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("orderable");
        assert_eq!(
            t.op(*s.refs().last().unwrap()).unwrap().written_value(),
            Some(Value(1))
        );
    }

    #[test]
    fn per_address_precheck_fires() {
        let t = TraceBuilder::new().proc([Op::read(3u32, 7u64)]).build();
        match solve(&t) {
            ConsistencyVerdict::Violating(v) => {
                assert!(matches!(v.class, ViolationClass::PerAddressCoherence(_)))
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_answers_unknown_with_stats() {
        // A contended instance the one-state budget cannot settle.
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::write(1u32, 2u64), Op::write(0u32, 2u64)])
            .proc([Op::read(0u32, 2u64), Op::read(1u32, 2u64)])
            .final_value(0u32, 1u64)
            .final_value(1u32, 1u64)
            .build();
        match solve_sc_backtracking(&t, &KernelConfig::with_budget(1)) {
            ConsistencyVerdict::Unknown { stats } => assert!(stats.states >= 1),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn generated_sc_traces_verify() {
        for seed in 0..10 {
            let (t, _) = vermem_trace::gen::gen_sc_trace(&vermem_trace::gen::GenConfig {
                procs: 3,
                total_ops: 24,
                addrs: 3,
                seed,
                ..Default::default()
            });
            let v = solve(&t);
            let s = v
                .schedule()
                .unwrap_or_else(|| panic!("seed {seed} must be SC"));
            check_sc_schedule(&t, s).unwrap();
        }
    }

    #[test]
    fn agrees_with_brute_force_on_tiny_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..80u64 {
            let mut rng = StdRng::seed_from_u64(40_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=3);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let a = rng.gen_range(0..2u32);
                        let v = rng.gen_range(0..2u64);
                        match rng.gen_range(0..3) {
                            0 => Op::read(a, v),
                            1 => Op::write(a, v),
                            _ => Op::rmw(a, v, rng.gen_range(0..2u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let expected = brute_force_sc(&t);
            assert_eq!(solve(&t).is_consistent(), expected, "seed {seed}: {t:?}");
        }
    }

    #[test]
    fn feasibility_knob_never_changes_verdicts() {
        use vermem_util::rng::StdRng;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(41_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let a = rng.gen_range(0..2u32);
                        let v = rng.gen_range(0..3u64);
                        if rng.gen_range(0..2) == 0 {
                            Op::read(a, v)
                        } else {
                            Op::write(a, v)
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let on = solve_sc_backtracking(&t, &KernelConfig::default());
            let off = solve_sc_backtracking(
                &t,
                &KernelConfig {
                    feasibility: false,
                    ..Default::default()
                },
            );
            assert_eq!(on.is_consistent(), off.is_consistent(), "seed {seed}");
            assert_eq!(on.is_violating(), off.is_violating(), "seed {seed}");
        }
    }

    fn brute_force_sc(trace: &Trace) -> bool {
        fn rec(trace: &Trace, frontier: &mut Vec<u32>, acc: &mut Vec<OpRef>, total: usize) -> bool {
            if acc.len() == total {
                return check_sc_schedule(trace, &Schedule::from_refs(acc.iter().copied())).is_ok();
            }
            for p in 0..frontier.len() {
                if (frontier[p] as usize) < trace.histories()[p].len() {
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
        rec(trace, &mut frontier, &mut Vec::new(), trace.num_ops())
    }
}
