//! Differential suite for the axiom framework: every declared model must
//! give the same answer through the operational compiler and the SAT
//! compiler, and the four base models must also match the hand-written
//! `sat_vsc` encoding — an oracle not derived from `ModelSpec` — across
//! the litmus suite, generated workloads, fault-injected traces and
//! unconstrained random traces. The compiled engine's verdicts and
//! `SearchStats` on the same corpus are pinned by a golden file. The RA
//! fast tier must never mask the exact verdict, and must actually decide
//! healthy unique-value workloads.

use std::fmt::Write as _;
use vermem_coherence::TierConfig;
use vermem_consistency::axiom::ra_fast::{self, FastOutcome};
use vermem_consistency::{
    litmus::all_litmus_tests, solve_model_sat, verify_axiom, AxiomConfig, Engine, KernelConfig,
    ModelId,
};
use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem_trace::{Op, Trace, TraceBuilder};
use vermem_util::rng::StdRng;

fn config(engine: Engine) -> AxiomConfig {
    AxiomConfig {
        engine,
        ..AxiomConfig::default()
    }
}

/// Compiled (tiered and exact-only) and SAT agree on consistency for every
/// declared model, and with the hand-written encoding wherever one exists.
fn assert_engine_agreement(trace: &Trace, ctx: &str) {
    for id in ModelId::ALL {
        let sat = verify_axiom(trace, id, &config(Engine::Sat)).verdict;
        let tiered = verify_axiom(trace, id, &config(Engine::Compiled)).verdict;
        let exact = verify_axiom(
            trace,
            id,
            &AxiomConfig {
                engine: Engine::Compiled,
                tier: TierConfig::exact_only(),
                ..AxiomConfig::default()
            },
        )
        .verdict;
        assert_eq!(
            tiered.is_consistent(),
            sat.is_consistent(),
            "{ctx}: {} compiled/sat drift",
            id.name()
        );
        assert_eq!(
            exact.is_consistent(),
            sat.is_consistent(),
            "{ctx}: {} exact-only/sat drift",
            id.name()
        );
        if let Some(model) = id.base_model() {
            assert_eq!(
                tiered.is_consistent(),
                solve_model_sat(trace, model).is_consistent(),
                "{ctx}: {} compiled/hand-written encoding drift",
                id.name()
            );
        }
    }
}

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

fn litmus_traces() -> Vec<(String, Trace)> {
    all_litmus_tests()
        .into_iter()
        .map(|t| (t.name.to_string(), t.trace))
        .collect()
}

fn generated_traces() -> Vec<(String, Trace)> {
    (0..5u64)
        .map(|seed| {
            let (t, _) = gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: 12,
                addrs: 2,
                value_reuse: 0.5,
                seed: 60_000 + seed,
                ..Default::default()
            });
            (format!("gen seed {seed}"), t)
        })
        .collect()
}

fn fault_injected_traces() -> Vec<(String, Trace)> {
    let kinds = [
        ViolationKind::CorruptReadValue,
        ViolationKind::StaleRead,
        ViolationKind::LostWrite,
        ViolationKind::ReorderAdjacent,
    ];
    let mut out = Vec::new();
    for (k, kind) in kinds.into_iter().enumerate() {
        for seed in 0..3u64 {
            let (t, _) = gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: 12,
                addrs: 2,
                value_reuse: 0.6,
                seed: 61_000 + seed,
                ..Default::default()
            });
            if let Some((bad, _)) = inject_violation(&t, kind, 9_500 + seed) {
                out.push((format!("fault {k} seed {seed}"), bad));
            }
        }
    }
    out
}

fn random_traces() -> Vec<(String, Trace)> {
    let mut rng = StdRng::seed_from_u64(0xAC51_0D1F);
    (0..40u32)
        .map(|case| (format!("random case {case}"), arb_trace(&mut rng)))
        .collect()
}

/// The compiled engine on the whole corpus, one line per trace × model ×
/// feasibility setting, then the E-5.2 budget-exhaustion family (the
/// all-RMW 3SAT reduction of Figure 5.2 at clause ratio 5.0) for the
/// three machine-backed base models.
fn render_compiled() -> String {
    let mut out = String::new();
    let corpus = [
        litmus_traces(),
        generated_traces(),
        fault_injected_traces(),
        random_traces(),
    ];
    for (ctx, trace) in corpus.iter().flatten() {
        for id in ModelId::ALL {
            for feasibility in [true, false] {
                let kernel = KernelConfig {
                    feasibility,
                    ..KernelConfig::default()
                };
                let r = verify_axiom(
                    trace,
                    id,
                    &AxiomConfig {
                        kernel,
                        ..AxiomConfig::default()
                    },
                );
                writeln!(
                    out,
                    "{ctx} | {} | feasibility={feasibility} | {:?} | {:?}",
                    id.name(),
                    r.verdict,
                    r.stats
                )
                .unwrap();
            }
        }
    }
    let cnf = vermem_sat::random::gen_random_ksat(&vermem_sat::random::RandomSatConfig::three_sat(
        3, 5.0, 93,
    ));
    let trace = vermem_reductions::reduce_3sat_rmw(&cnf).trace;
    for id in [ModelId::Sc, ModelId::Tso, ModelId::Pso] {
        for budget in [16u64, 64, 256] {
            let r = verify_axiom(
                &trace,
                id,
                &AxiomConfig {
                    kernel: KernelConfig::with_budget(budget),
                    ..AxiomConfig::default()
                },
            );
            writeln!(
                out,
                "e5.2 3sat-rmw | {} | budget={budget} | {:?} | {:?}",
                id.name(),
                r.verdict,
                r.stats
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn compiled_engine_matches_golden_stats() {
    let golden = include_str!("golden/axiom_stats.txt");
    let actual = render_compiled();
    let mut expected = golden.lines();
    for (i, line) in actual.lines().enumerate() {
        let want = expected
            .next()
            .unwrap_or_else(|| panic!("axiom_stats: unexpected extra line {}", i + 1));
        assert_eq!(line, want, "axiom_stats: line {}", i + 1);
    }
    assert_eq!(expected.next(), None, "axiom_stats: missing lines");
    // The budget family must actually exhaust the small budgets, or its
    // lines pin nothing about budget behaviour.
    assert!(
        actual
            .lines()
            .filter(|l| l.starts_with("e5.2") && l.contains("Unknown"))
            .count()
            >= 3,
        "E-5.2 family no longer exhausts its budgets"
    );
}

#[test]
fn litmus_expectations_hold_on_every_engine() {
    for test in all_litmus_tests() {
        for (&id, &allowed) in &test.expected_axiom {
            for engine in [Engine::Compiled, Engine::Sat] {
                let report = verify_axiom(&test.trace, id, &config(engine));
                assert_eq!(
                    report.verdict.is_consistent(),
                    allowed,
                    "{} under {} via {}: expected allowed={}",
                    test.name,
                    id.name(),
                    engine.name(),
                    allowed
                );
            }
        }
    }
}

#[test]
fn litmus_traces_keep_engine_agreement() {
    for (ctx, trace) in litmus_traces() {
        assert_engine_agreement(&trace, &ctx);
    }
}

#[test]
fn generated_traces_keep_engine_agreement() {
    for (ctx, trace) in generated_traces() {
        assert_engine_agreement(&trace, &ctx);
    }
}

#[test]
fn fault_injected_traces_keep_engine_agreement() {
    let traces = fault_injected_traces();
    assert!(
        traces.len() >= 6,
        "too few injected traces: {}",
        traces.len()
    );
    for (ctx, trace) in traces {
        assert_engine_agreement(&trace, &ctx);
    }
}

#[test]
fn random_traces_keep_engine_agreement() {
    for (ctx, trace) in random_traces() {
        assert_engine_agreement(&trace, &ctx);
    }
}

#[test]
fn ra_frontline_never_masks_the_exact_verdict() {
    // Wherever the polynomial RA tier decides, the exact graph search and
    // the SAT compiler must agree with it — on litmus *and* random traces.
    let mut rng = StdRng::seed_from_u64(0xFA57_11E5);
    let mut traces: Vec<(String, Trace)> = all_litmus_tests()
        .into_iter()
        .map(|t| (t.name.to_string(), t.trace))
        .collect();
    for case in 0..40u32 {
        traces.push((format!("random {case}"), arb_trace(&mut rng)));
    }
    let mut decided = 0u32;
    for (name, t) in &traces {
        let exact = verify_axiom(
            t,
            ModelId::Ra,
            &AxiomConfig {
                tier: TierConfig::exact_only(),
                ..AxiomConfig::default()
            },
        )
        .verdict;
        if let FastOutcome::Decided(fast) = ra_fast::try_decide(t) {
            decided += 1;
            assert_eq!(
                fast.is_consistent(),
                exact.is_consistent(),
                "{name}: RA fast tier masks the exact verdict"
            );
        }
        // Through the public tiered entry point as well.
        let tiered = verify_axiom(t, ModelId::Ra, &AxiomConfig::default()).verdict;
        assert_eq!(
            tiered.is_consistent(),
            exact.is_consistent(),
            "{name}: tiered RA drifts from exact-only"
        );
    }
    assert!(decided >= 10, "fast tier decided only {decided} traces");
}

#[test]
fn ra_fast_tier_decides_healthy_unique_value_traces() {
    // The decision-rate contract behind the verify.sh gate: on healthy
    // generated traces with no value reuse every read has a unique writer
    // candidate, so the polynomial tier must decide ≥ 90% of them.
    let total = 30u32;
    let mut decided = 0u32;
    for seed in 0..u64::from(total) {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3,
            total_ops: 16,
            addrs: 3,
            value_reuse: 0.0,
            seed: 62_000 + seed,
            ..Default::default()
        });
        match ra_fast::try_decide(&t) {
            FastOutcome::Decided(v) => {
                assert!(v.is_consistent(), "healthy SC trace refuted under RA");
                decided += 1;
            }
            FastOutcome::Escalate => {}
        }
    }
    assert!(
        decided * 10 >= total * 9,
        "RA fast tier decided only {decided}/{total} healthy traces"
    );
}

#[test]
fn graph_models_respect_budgets_deterministically() {
    // The graph-backed models (RA, ARM-dob) honour the same budget
    // contract as the buffer machines: explicit Unknown with real
    // progress, bit-identical across repeated runs.
    let (t, _) = gen_sc_trace(&GenConfig {
        procs: 3,
        total_ops: 14,
        addrs: 2,
        value_reuse: 0.7,
        seed: 63_001,
        ..Default::default()
    });
    for id in [ModelId::Ra, ModelId::ArmDob] {
        for budget in [1u64, 4, 32] {
            let cfg = AxiomConfig {
                kernel: KernelConfig::with_budget(budget),
                tier: TierConfig::exact_only(),
                ..AxiomConfig::default()
            };
            let r1 = verify_axiom(&t, id, &cfg);
            let r2 = verify_axiom(&t, id, &cfg);
            assert_eq!(r1.verdict, r2.verdict, "{} budget={budget}", id.name());
            assert_eq!(r1.stats, r2.stats, "{} budget={budget}", id.name());
            if r1.verdict.unknown_stats().is_some() {
                assert!(r1.stats.states > budget, "{} stopped early", id.name());
            }
        }
    }
}
