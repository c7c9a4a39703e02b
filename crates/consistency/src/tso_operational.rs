//! An **operational** TSO checker: exhaustive search over machine states of
//! an idealized store-buffer multiprocessor (per-CPU FIFO buffers, no
//! store-to-load forwarding, atomic RMWs that drain), deciding whether the
//! observed trace is reachable.
//!
//! This is an independent, second definition of TSO. The crate's primary
//! checker ([`crate::solve_model_sat`] with [`crate::MemoryModel::Tso`]) is
//! *axiomatic*: a single serialization with the store→load program-order
//! edge relaxed. The two formulations are equivalent for forwarding-free
//! machines — a fact the test suite checks differentially on random traces,
//! giving the model framework an executable semantics to answer to.
//!
//! Since the axiom refactor the store-buffer machine is *compiled* from
//! [`crate::axiom::TSO_SPEC`] — the spec's relaxed store→load entries in
//! its enforcement table select the per-process-FIFO buffer lowering —
//! and this module only keeps the entry points (plus the differential
//! tests, which pin the compiled machine against the axiomatic SAT
//! oracle; its statistics are pinned by a golden file).
//! Exponential worst case, as it must be (§6.2: TSO verification is
//! NP-hard).

use crate::axiom::{solve_compiled_with_stats, ModelId};
use crate::verdict::ConsistencyVerdict;
use vermem_coherence::kernel::KernelConfig;
use vermem_coherence::SearchStats;
use vermem_trace::Trace;
use vermem_util::pool::CancelToken;

/// Decide operational-TSO reachability of `trace`.
///
/// On success the verdict carries a *commit-order* schedule: the order in
/// which operations took global effect (loads at issue, stores at drain) —
/// a valid witness for [`crate::check_model_schedule`] under
/// [`crate::MemoryModel::Tso`].
pub fn solve_tso_operational(trace: &Trace, cfg: &KernelConfig) -> ConsistencyVerdict {
    solve_tso_operational_with_stats(trace, cfg, None).0
}

/// [`solve_tso_operational`] with kernel [`SearchStats`] and cooperative
/// cancellation.
pub fn solve_tso_operational_with_stats(
    trace: &Trace,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (ConsistencyVerdict, SearchStats) {
    solve_compiled_with_stats(trace, ModelId::Tso, cfg, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::MemoryModel;
    use crate::sat_vsc::solve_model_sat;
    use vermem_trace::{Op, TraceBuilder};

    fn operational(t: &Trace) -> bool {
        solve_tso_operational(t, &KernelConfig::default()).is_consistent()
    }

    fn axiomatic(t: &Trace) -> bool {
        solve_model_sat(t, MemoryModel::Tso).is_consistent()
    }

    #[test]
    fn store_buffering_reachable() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(operational(&t));
        assert!(axiomatic(&t));
    }

    #[test]
    fn message_passing_violation_unreachable() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(!operational(&t));
        assert!(!axiomatic(&t));
    }

    #[test]
    fn rmw_fences_restore_order() {
        let t = TraceBuilder::new()
            .proc([Op::rmw(0u32, 0u64, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::rmw(1u32, 0u64, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(!operational(&t));
        assert!(!axiomatic(&t));
    }

    #[test]
    fn final_values_respected() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        assert!(operational(&t));
        let t2 = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .final_value(0u32, 9u64)
            .build();
        assert!(!operational(&t2));
    }

    #[test]
    fn tiny_budget_answers_unknown_with_stats() {
        let t = TraceBuilder::new()
            .proc([
                Op::write(0u32, 1u64),
                Op::write(1u32, 1u64),
                Op::read(2u32, 0u64),
            ])
            .proc([
                Op::write(1u32, 2u64),
                Op::write(2u32, 1u64),
                Op::read(0u32, 0u64),
            ])
            .proc([
                Op::write(2u32, 2u64),
                Op::write(0u32, 2u64),
                Op::read(1u32, 0u64),
            ])
            .build();
        match solve_tso_operational(&t, &KernelConfig::with_budget(1)) {
            ConsistencyVerdict::Unknown { stats } => assert!(stats.states >= 1),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn litmus_suite_matches_axiomatic_model() {
        for test in crate::litmus::all_litmus_tests() {
            let expected = test.expected[&MemoryModel::Tso];
            assert_eq!(
                operational(&test.trace),
                expected,
                "operational TSO disagrees on {}",
                test.name
            );
        }
    }

    #[test]
    fn agrees_with_axiomatic_on_random_traces() {
        use vermem_util::rng::StdRng;
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(500_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let a = rng.gen_range(0..2u32);
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..5) {
                            0 | 1 => Op::read(a, v),
                            2 | 3 => Op::write(a, v),
                            _ => Op::rmw(a, v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            assert_eq!(
                operational(&t),
                axiomatic(&t),
                "operational vs axiomatic TSO divergence on seed {seed}: {t:?}"
            );
        }
    }

    #[test]
    fn tso_machine_streams_are_reachable() {
        // Everything the TSO simulator produces must be operationally
        // reachable (it IS such a machine).
        for seed in 0..10 {
            let p = vermem_sim_free_program(seed);
            let t = p;
            assert!(operational(&t), "seed {seed}");
        }

        fn vermem_sim_free_program(seed: u64) -> Trace {
            // Local mini-generator to avoid a circular dev-dependency on
            // vermem-sim: an SC generator's trace is TSO-reachable a
            // fortiori.
            vermem_trace::gen::gen_sc_trace(&vermem_trace::gen::GenConfig {
                procs: 3,
                total_ops: 16,
                addrs: 2,
                seed,
                ..Default::default()
            })
            .0
        }
    }
}
