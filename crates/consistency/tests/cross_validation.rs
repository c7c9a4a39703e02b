//! Cross-validation of the consistency stack: the VSCC pipeline, the
//! direct SC decision, the model hierarchy, and the compiled machines'
//! operational semantics against the serialization oracle must all tell
//! one coherent story on random traces.

use vermem_consistency::oracle::serializes;
use vermem_consistency::{verify_axiom, verify_vscc, AxiomConfig, ModelId, SettledBy};
use vermem_trace::{Op, Trace, TraceBuilder};
use vermem_util::prop::PropConfig;
use vermem_util::rng::StdRng;
use vermem_util::{prop_assert, prop_assert_eq, prop_check};

/// Random trace with 1–3 processes of up to 4 ops over 2 addresses and a
/// 3-value universe (small enough that every solver in the stack finishes).
fn arb_trace(rng: &mut StdRng, size: usize) -> Trace {
    let procs = rng.gen_range(1..=3usize);
    let max_ops = size.min(4);
    let mut b = TraceBuilder::new();
    for _ in 0..procs {
        let len = rng.gen_range(0..=max_ops);
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

/// The default (compiled, tiered) decision of `trace` under `id`.
fn consistent(trace: &Trace, id: ModelId) -> bool {
    verify_axiom(trace, id, &AxiomConfig::default())
        .verdict
        .is_consistent()
}

#[test]
fn vscc_pipeline_agrees_with_direct_sc() {
    // The VSCC pipeline's final verdict equals the direct SC decision.
    prop_check!(PropConfig::with_cases(96), arb_trace, |trace: &Trace| {
        let direct = consistent(trace, ModelId::Sc);
        let report = verify_vscc(trace);
        // When coherence fails, SC fails too (coherence is necessary).
        prop_assert_eq!(
            report.verdict.is_consistent(),
            direct,
            "pipeline settled by {:?}",
            report.settled_by
        );
        // A fast merge success must mean the trace really is SC.
        if report.settled_by == SettledBy::FastMerge {
            prop_assert!(direct);
        }
        Ok(())
    });
}

#[test]
fn model_hierarchy_is_monotone() {
    // Serialization models: SC ⊆ TSO ⊆ PSO ⊆ CoherenceOnly. RA and
    // ARM-dob sit between SC and coherence-only.
    prop_check!(PropConfig::with_cases(96), arb_trace, |trace: &Trace| {
        let [sc, tso, pso, coh, ra, dob] = ModelId::ALL.map(|id| consistent(trace, id));
        prop_assert!(!sc || tso);
        prop_assert!(!tso || pso);
        prop_assert!(!pso || coh);
        prop_assert!(!sc || (ra && dob));
        prop_assert!(coh || (!ra && !dob));
        // Coherence-only consistency equals per-address coherence.
        prop_assert_eq!(coh, vermem_coherence::verify_execution(trace).is_coherent());
        Ok(())
    });
}

#[test]
fn operational_equals_axiomatic_for_serialization_models() {
    // The compiled machines (buffer lowering for SC/TSO/PSO, graph
    // lowering for coherence-only) against the serialization oracle.
    prop_check!(PropConfig::with_cases(96), arb_trace, |trace: &Trace| {
        for id in ModelId::SERIALIZING {
            let operational = consistent(trace, id);
            prop_assert_eq!(operational, serializes(trace, id), "{}", id.name());
        }
        Ok(())
    });
}

#[test]
fn coherence_only_matches_per_address_coherence_on_vscc_instances() {
    // Figure 6.2 instances are coherent by construction, so they must be
    // CoherenceOnly-consistent regardless of the formula.
    for seed in 0..6 {
        let f = vermem_sat::random::gen_random_ksat(
            &vermem_sat::random::RandomSatConfig::three_sat(3, 4.0, 88_000 + seed),
        );
        let red = vermem_reductions::reduce_sat_to_vscc(&f);
        assert!(
            consistent(&red.trace, ModelId::CoherenceOnly),
            "seed {seed}"
        );
    }
}
