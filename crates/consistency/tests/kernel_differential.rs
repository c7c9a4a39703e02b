//! Differential suite for the shared exact-search kernel: the compiled
//! decider of every serialization model (SC, TSO and PSO on the buffer
//! lowering, coherence-only on the per-address lowering) must agree with the
//! serialization oracle (`oracle::serializes`) on every trace family, and
//! budget-limited runs must be deterministic. (Budget exhaustion on the E-5.2 family is pinned, stats
//! included, by the golden file of `axiom_differential.rs`.) At one
//! address, compiled SC runs the very search the unpruned VMC solver runs:
//! the same verdict, witness and search counts.

use vermem_coherence::backtrack::solve_backtracking_ops_with_stats;
use vermem_coherence::{SearchConfig, SearchStats, Verdict};
use vermem_consistency::oracle::serializes;
use vermem_consistency::{
    litmus::all_litmus_tests, verify_axiom, AxiomConfig, AxiomReport, ConsistencyVerdict,
    KernelConfig, ModelId,
};
use vermem_reductions::{reduce_3sat_restricted, reduce_3sat_rmw, reduce_sat_to_vmc};
use vermem_sat::random::{gen_forced_sat, gen_random_ksat, RandomSatConfig};
use vermem_trace::gen::{
    gen_hard_coherent, gen_sc_trace, inject_violation, GenConfig, ViolationKind,
};
use vermem_trace::{Addr, AddrOps, Op, Trace, TraceBuilder};
use vermem_util::rng::StdRng;

/// The compiled engine under `kernel`, as `verify_axiom` runs it.
fn compiled(trace: &Trace, id: ModelId, kernel: KernelConfig) -> AxiomReport {
    verify_axiom(
        trace,
        id,
        &AxiomConfig {
            kernel,
            ..AxiomConfig::default()
        },
    )
}

/// Assert the kernel-parity contract on one trace: every compiled
/// serialization model matches the serialization oracle.
fn assert_kernel_parity(trace: &Trace, ctx: &str) {
    for model in ModelId::SERIALIZING {
        let oracle = serializes(trace, model);
        let verdict = compiled(trace, model, KernelConfig::default()).verdict;
        assert!(
            !matches!(
                verdict,
                vermem_consistency::ConsistencyVerdict::Unknown { .. }
            ),
            "{ctx}: {} unbudgeted run returned Unknown",
            model.name()
        );
        assert_eq!(
            verdict.is_consistent(),
            oracle,
            "{ctx}: {} operational/axiomatic drift",
            model.name()
        );
    }
}

/// Budget-hit determinism: two identical tiny-budget runs must return the
/// same verdict class *and* bit-identical stats.
fn assert_budget_determinism(trace: &Trace, ctx: &str) {
    for id in ModelId::SERIALIZING {
        let model = id.name();
        for budget in [1u64, 3, 16] {
            let cfg = KernelConfig::with_budget(budget);
            let AxiomReport {
                verdict: v1,
                stats: s1,
                ..
            } = compiled(trace, id, cfg);
            let AxiomReport {
                verdict: v2,
                stats: s2,
                ..
            } = compiled(trace, id, cfg);
            assert_eq!(
                v1.is_consistent(),
                v2.is_consistent(),
                "{ctx}: {model} budget={budget} verdict class drift"
            );
            assert_eq!(
                v1.unknown_stats().is_some(),
                v2.unknown_stats().is_some(),
                "{ctx}: {model} budget={budget} Unknown-ness drift"
            );
            assert_eq!(s1, s2, "{ctx}: {model} budget={budget} stats drift");
            // A budget-exhausted answer must still report real progress.
            if v1.unknown_stats().is_some() {
                assert!(s1.states > budget, "{ctx}: {model} stopped before the cap");
            }
        }
    }
}

/// Family 3: small random traces mixing reads, writes and RMWs (the same
/// shape the cross-validation suite uses).
fn arb_trace(rng: &mut StdRng) -> Trace {
    let procs = rng.gen_range(1..=3usize);
    let mut b = TraceBuilder::new();
    for _ in 0..procs {
        let len = rng.gen_range(0..=4usize);
        let ops: Vec<Op> = (0..len)
            .map(|_| {
                let kind = rng.gen_range(0..5u8);
                let a = rng.gen_range(0..2u32);
                let v = rng.gen_range(0..3u64);
                let w = rng.gen_range(0..3u64);
                match kind {
                    0 | 1 => Op::read(a, v),
                    2 | 3 => Op::write(a, v),
                    _ => Op::rmw(a, v, w),
                }
            })
            .collect();
        b = b.proc(ops);
    }
    b.build()
}

#[test]
fn litmus_traces_keep_kernel_parity() {
    for test in all_litmus_tests() {
        assert_kernel_parity(&test.trace, test.name);
    }
}

#[test]
fn generated_sc_traces_keep_kernel_parity() {
    // Family 1: SC-by-construction workloads (consistent under every model).
    for seed in 0..6u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3,
            total_ops: 18,
            addrs: 3,
            value_reuse: 0.5,
            seed: 40_000 + seed,
            ..Default::default()
        });
        assert_kernel_parity(&t, &format!("gen seed {seed}"));
    }
}

#[test]
fn fault_injected_traces_keep_kernel_parity() {
    // Family 2: SC traces corrupted by each injector kind — the violating
    // side of the differential (several of these are incoherent, some are
    // masked and stay consistent; either way the engines must agree).
    let kinds = [
        ViolationKind::CorruptReadValue,
        ViolationKind::StaleRead,
        ViolationKind::LostWrite,
        ViolationKind::ReorderAdjacent,
    ];
    let mut mutated_traces = 0u32;
    for (k, kind) in kinds.into_iter().enumerate() {
        for seed in 0..4u64 {
            let (t, _) = gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: 16,
                addrs: 2,
                value_reuse: 0.6,
                seed: 50_000 + seed,
                ..Default::default()
            });
            if let Some((bad, _inj)) = inject_violation(&t, kind, 9_000 + seed) {
                assert_kernel_parity(&bad, &format!("fault {k} seed {seed}"));
                mutated_traces += 1;
            }
        }
    }
    assert!(
        mutated_traces >= 8,
        "too few injected traces: {mutated_traces}"
    );
}

#[test]
fn random_traces_keep_kernel_parity() {
    // Family 3: unconstrained random traces.
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    for case in 0..48u32 {
        let t = arb_trace(&mut rng);
        assert_kernel_parity(&t, &format!("random case {case}"));
    }
}

#[test]
fn budget_hits_are_deterministic() {
    // Contended traces that actually blow tiny budgets.
    let (t, _) = gen_sc_trace(&GenConfig {
        procs: 4,
        total_ops: 24,
        addrs: 2,
        value_reuse: 0.7,
        seed: 77,
        ..Default::default()
    });
    assert_budget_determinism(&t, "gen contended");
    for test in all_litmus_tests().iter().filter(|t| t.name == "IRIW") {
        assert_budget_determinism(&test.trace, test.name);
    }
}

/// Compiled SC at one address is the unpruned VMC search: on each trace,
/// under its cap, the same verdict class and witness refs, and the same
/// states, branches and memo traffic.
#[test]
fn compiled_sc_at_one_address_is_the_unpruned_vmc_search() {
    let mut cases: Vec<(String, Trace, Option<u64>)> = Vec::new();
    // Random one-address traces: hard coherent ones, and SC executions
    // with RMWs, healthy and with each injected violation.
    for seed in 0..40 {
        let (t, _) = gen_hard_coherent(3 + seed as usize % 3, 5, 2, seed);
        cases.push((format!("hard {seed}"), t, None));
    }
    for seed in 0..30 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3 + seed as usize % 2,
            total_ops: 16,
            addrs: 1,
            rmw_fraction: 0.2,
            value_reuse: 0.5,
            seed: 60_000 + seed,
            ..Default::default()
        });
        for kind in [
            ViolationKind::StaleRead,
            ViolationKind::LostWrite,
            ViolationKind::ReorderAdjacent,
        ] {
            if let Some((bad, _)) = inject_violation(&t, kind, seed) {
                cases.push((format!("sc {seed} {kind:?}"), bad, None));
            }
        }
        cases.push((format!("sc {seed}"), t, None));
    }
    assert!(cases.len() >= 130, "only {} random traces", cases.len());
    // The Figure 4.1 reductions, and the E-PRUNE blow-up instances of
    // Figures 5.1 and 5.2 under a cap.
    for m in 3..=5 {
        let f = gen_forced_sat(&RandomSatConfig::three_sat(m, 3.0, 6));
        cases.push((format!("fig 4.1 m={m}"), reduce_sat_to_vmc(&f).trace, None));
    }
    let wall = gen_forced_sat(&RandomSatConfig::three_sat(6, 1.0, 31 * 6));
    let overcons = gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93));
    let twins = gen_random_ksat(&RandomSatConfig::three_sat(3, 6.0, 7));
    for (case, t) in [
        ("e5.1-m6-wall", reduce_3sat_restricted(&wall).trace),
        ("e5.1-overcons", reduce_3sat_restricted(&overcons).trace),
        ("e5.2-overcons", reduce_3sat_rmw(&overcons).trace),
        ("e5.2-twins", reduce_3sat_rmw(&twins).trace),
    ] {
        cases.push((case.to_string(), t, Some(20_000)));
    }
    let search = |s: SearchStats| (s.states, s.branches, s.memo_hits, s.memo_misses);
    for (ctx, trace, cap) in &cases {
        let ops = AddrOps::of(trace, Addr::ZERO);
        assert_eq!(ops.num_ops(), trace.num_ops(), "{ctx}: one address");
        let unpruned = SearchConfig {
            max_states: *cap,
            prune: false,
        };
        let (vmc, vmc_stats) = solve_backtracking_ops_with_stats(&ops, &unpruned);
        let sc = compiled(trace, ModelId::Sc, KernelConfig { max_states: *cap });
        match (&vmc, &sc.verdict) {
            (Verdict::Coherent(a), ConsistencyVerdict::Consistent(b)) => {
                assert_eq!(a.refs(), b.refs(), "{ctx}: witness")
            }
            (Verdict::Incoherent(_), ConsistencyVerdict::Violating(_))
            | (Verdict::Unknown, ConsistencyVerdict::Unknown { .. }) => {}
            (a, b) => panic!("{ctx}: VMC {a:?} against SC {b:?}"),
        }
        assert_eq!(search(sc.stats), search(vmc_stats), "{ctx}: stats");
    }
}
