//! Property tests for the search's pruning switch
//! ([`SearchConfig::prune`]: the window pre-pass and symmetry breaking):
//! the pruned search must agree with the unpruned one — same coherence
//! verdict on every address, same first violation when incoherent — on
//! coherent generated traces AND fault-injected mutants. A companion
//! differential asserts the monotonicity contract: pruning only ever
//! removes explored states, never adds them.

use vermem_coherence::backtrack::solve_backtracking_ops_with_stats;
use vermem_coherence::{SearchConfig, Verdict};
use vermem_trace::gen::{gen_hard_coherent, gen_sc_trace, inject_violation, GenConfig};
use vermem_trace::{Addr, AddrIndex, AddrOps, Trace};
use vermem_util::prop::PropConfig;
use vermem_util::rng::StdRng;
use vermem_util::{prop_assert, prop_check};

fn cfg_with(prune: bool) -> SearchConfig {
    SearchConfig {
        prune,
        ..Default::default()
    }
}

/// Check one address: the pruned search agrees with the unpruned
/// baseline on the verdict class, on the violation when incoherent, and
/// explores at most as many states.
fn assert_prune_parity(ops: &AddrOps, ctx: &str) {
    let (base_verdict, base_stats) = solve_backtracking_ops_with_stats(ops, &cfg_with(false));
    let (verdict, stats) = solve_backtracking_ops_with_stats(ops, &cfg_with(true));
    match (&base_verdict, &verdict) {
        (Verdict::Coherent(_), Verdict::Coherent(_)) => {}
        (Verdict::Incoherent(a), Verdict::Incoherent(b)) => {
            assert_eq!(a, b, "{ctx}: first-violation drift under pruning");
        }
        (a, b) => panic!("{ctx}: verdict class drift under pruning: {a:?} vs {b:?}"),
    }
    // Monotonicity: the pruned visited-state set is a subset of the
    // baseline's, so the counter can only shrink.
    assert!(
        stats.states <= base_stats.states,
        "{ctx}: pruned search explored {} states, baseline {}",
        stats.states,
        base_stats.states
    );
}

fn arb_gen_config(rng: &mut StdRng, size: usize) -> GenConfig {
    GenConfig {
        procs: rng.gen_range(2..5usize),
        total_ops: 8 + rng.gen_range(0..(8 + 4 * size as u64)) as usize,
        addrs: rng.gen_range(1..3usize),
        write_fraction: 0.3 + f64::from(rng.gen_range(0..40u32)) / 100.0,
        rmw_fraction: f64::from(rng.gen_range(0..30u32)) / 100.0,
        value_reuse: f64::from(rng.gen_range(0..80u32)) / 100.0,
        seed: rng.gen_range(0..u64::MAX),
    }
}

#[test]
fn prop_pruning_agrees_on_coherent_traces() {
    prop_check!(
        PropConfig::with_cases(48),
        |rng, size| gen_sc_trace(&arb_gen_config(rng, size)).0,
        |trace: &Trace| {
            for ops in AddrIndex::build(trace).iter() {
                assert_prune_parity(ops, "coherent");
            }
            Ok(())
        }
    );
}

#[test]
fn prop_pruning_agrees_on_fault_injected_traces() {
    use vermem_trace::gen::ViolationKind::*;
    prop_check!(
        PropConfig::with_cases(48),
        |rng, size| {
            let trace = gen_sc_trace(&arb_gen_config(rng, size)).0;
            let kind =
                [CorruptReadValue, StaleRead, LostWrite, ReorderAdjacent][rng.gen_range(0..4usize)];
            let seed = rng.gen_range(0..1000u64);
            (trace, kind, seed)
        },
        |(trace, kind, seed): &(Trace, _, u64)| {
            let Some((mutated, _)) = inject_violation(trace, *kind, *seed) else {
                return Ok(()); // no eligible site — vacuously fine
            };
            for ops in AddrIndex::build(&mutated).iter() {
                assert_prune_parity(ops, "injected");
            }
            prop_assert!(true);
            Ok(())
        }
    );
}

/// Hard coherent instances (the NP-complete cell) where the search does
/// real backtracking: parity and monotonicity must survive deep trees too.
#[test]
fn hard_coherent_instances_keep_parity_and_monotonicity() {
    for seed in 0..6u64 {
        let (trace, _) = gen_hard_coherent(4, 7, 2, seed);
        let ops = AddrOps::of(&trace, Addr::ZERO);
        assert_prune_parity(&ops, &format!("hard seed {seed}"));
    }
}

/// The `SearchStats` counters themselves stay self-consistent under
/// pruning: memo discipline (`memo_misses == states` with memoization on)
/// holds either way, prune counters are zero with pruning off, and the
/// retired nogood counters are zero always.
#[test]
fn prune_counters_are_gated_by_the_switch() {
    for seed in 0..4u64 {
        let (trace, _) = gen_hard_coherent(4, 7, 2, seed);
        let ops = AddrOps::of(&trace, Addr::ZERO);
        for prune in [false, true] {
            let (_, stats) = solve_backtracking_ops_with_stats(&ops, &cfg_with(prune));
            assert_eq!(
                stats.memo_misses, stats.states,
                "memo discipline broken with prune={prune}"
            );
            if !prune {
                assert_eq!(stats.window_prunes, 0);
                assert_eq!(stats.symmetry_prunes, 0);
            }
            assert_eq!((stats.nogood_hits, stats.nogoods_learned), (0, 0));
        }
    }
}
