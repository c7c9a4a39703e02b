//! An **operational** PSO checker, mirroring
//! [`crate::tso_operational`]: exhaustive search over machine states of an
//! idealized Partial-Store-Order multiprocessor.
//!
//! PSO's store buffer keeps stores to the *same* address in FIFO order but
//! lets stores to different addresses drain in any order — modelled as one
//! FIFO queue per (processor, address slot). Loads take the memory value
//! and stall on a buffered store to their address (no forwarding, as in
//! the TSO machine); atomic RMWs drain the whole buffer and take effect
//! immediately. Since the axiom refactor the machine is *compiled* from
//! [`crate::axiom::PSO_SPEC`] — the relaxed store→store entries in its
//! enforcement table select the per-slot-FIFO buffer lowering — and this
//! module only keeps the entry points. Differential tests pin the
//! compiled semantics to the axiomatic [`crate::MemoryModel::Pso`]
//! (write→write and write→read to different addresses relaxed).

use crate::axiom::{solve_compiled_with_stats, ModelId};
use crate::verdict::ConsistencyVerdict;
use vermem_coherence::kernel::KernelConfig;
use vermem_coherence::SearchStats;
use vermem_trace::Trace;
use vermem_util::pool::CancelToken;

/// Decide operational-PSO reachability of `trace`. The witness is the
/// commit order (loads at issue, stores at drain).
pub fn solve_pso_operational(trace: &Trace, cfg: &KernelConfig) -> ConsistencyVerdict {
    solve_pso_operational_with_stats(trace, cfg, None).0
}

/// [`solve_pso_operational`] with kernel [`SearchStats`] and cooperative
/// cancellation.
pub fn solve_pso_operational_with_stats(
    trace: &Trace,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (ConsistencyVerdict, SearchStats) {
    solve_compiled_with_stats(trace, ModelId::Pso, cfg, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::MemoryModel;
    use crate::sat_vsc::solve_model_sat;
    use vermem_trace::{Op, TraceBuilder};

    fn operational(t: &Trace) -> bool {
        solve_pso_operational(t, &KernelConfig::default()).is_consistent()
    }

    fn axiomatic(t: &Trace) -> bool {
        solve_model_sat(t, MemoryModel::Pso).is_consistent()
    }

    #[test]
    fn message_passing_reordering_reachable_under_pso() {
        // MP relaxed outcome requires W→W reordering: PSO yes, TSO no.
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(operational(&t));
        assert!(axiomatic(&t));
        assert!(!solve_model_sat(&t, MemoryModel::Tso).is_consistent());
    }

    #[test]
    fn load_buffering_stays_unreachable() {
        let t = TraceBuilder::new()
            .proc([Op::read(1u32, 1u64), Op::write(0u32, 1u64)])
            .proc([Op::read(0u32, 1u64), Op::write(1u32, 1u64)])
            .build();
        assert!(!operational(&t));
        assert!(!axiomatic(&t));
    }

    #[test]
    fn same_address_store_order_preserved() {
        // CoWW: program-ordered same-address stores cannot commit reversed.
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        assert!(!operational(&t));
        assert!(!axiomatic(&t));
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
        match solve_pso_operational(&t, &KernelConfig::with_budget(1)) {
            ConsistencyVerdict::Unknown { stats } => assert!(stats.states >= 1),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn litmus_suite_matches_axiomatic_model() {
        for test in crate::litmus::all_litmus_tests() {
            let expected = test.expected[&MemoryModel::Pso];
            assert_eq!(
                operational(&test.trace),
                expected,
                "operational PSO disagrees on {}",
                test.name
            );
        }
    }

    #[test]
    fn agrees_with_axiomatic_on_random_traces() {
        use vermem_util::rng::StdRng;
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(700_000 + seed);
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
                "operational vs axiomatic PSO divergence on seed {seed}: {t:?}"
            );
        }
    }
}
