//! Differential suite for the shared exact-search kernel: every
//! operational engine (SC backtracking, TSO, PSO) must agree with the
//! axiomatic SAT oracle on every trace family, with feasibility pruning on
//! and off — and budget-limited runs must be deterministic. (Budget
//! exhaustion on the E-5.2 family is pinned, stats included, by the
//! golden file of `axiom_differential.rs`.)

use vermem_consistency::{
    litmus::all_litmus_tests, solve_model_sat, verify_model_operational, KernelConfig, MemoryModel,
    SearchStats,
};
use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem_trace::{Op, Trace, TraceBuilder};
use vermem_util::rng::StdRng;

/// The three operational engines (CoherenceOnly has no machine; its
/// dispatch in `verify_model_operational` *is* the SAT oracle, so a
/// differential there would be a tautology).
const OPERATIONAL: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

/// Kernel knob grid: default and feasibility off.
fn knob_grid() -> [KernelConfig; 2] {
    [true, false].map(|feasibility| KernelConfig {
        feasibility,
        ..Default::default()
    })
}

/// Assert the kernel-parity contract on one trace: every operational
/// engine matches `solve_model_sat` for its model under every knob.
fn assert_kernel_parity(trace: &Trace, ctx: &str) {
    for model in OPERATIONAL {
        let oracle = solve_model_sat(trace, model).is_consistent();
        for cfg in knob_grid() {
            let (verdict, _stats) = verify_model_operational(trace, model, &cfg);
            assert!(
                !matches!(
                    verdict,
                    vermem_consistency::ConsistencyVerdict::Unknown { .. }
                ),
                "{ctx}: {model} unbudgeted run returned Unknown under {cfg:?}"
            );
            assert_eq!(
                verdict.is_consistent(),
                oracle,
                "{ctx}: {model} operational/axiomatic drift under {cfg:?}"
            );
        }
    }
}

/// Budget-hit determinism: two identical tiny-budget runs must return the
/// same verdict class *and* bit-identical stats.
fn assert_budget_determinism(trace: &Trace, ctx: &str) {
    for model in OPERATIONAL {
        for budget in [1u64, 3, 16] {
            let cfg = KernelConfig::with_budget(budget);
            let (v1, s1): (_, SearchStats) = verify_model_operational(trace, model, &cfg);
            let (v2, s2) = verify_model_operational(trace, model, &cfg);
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
/// shape the cross-validation suite uses, but driven through the kernel
/// knob grid).
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
