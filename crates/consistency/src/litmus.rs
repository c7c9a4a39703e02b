//! Classic litmus tests with expected outcomes per memory model.
//!
//! Each test encodes an *observed outcome* as a trace (read values are the
//! observation); "allowed" under a model means a valid schedule for that
//! model exists. The expectations follow the standard litmus literature
//! (adapted to this crate's relaxed-order single-serialization semantics,
//! which matches the usual axiomatic classifications for these tests).
//!
//! Every test carries expectations for *all six* declared models
//! ([`ModelId`]): the four serialization-based models plus Release–Acquire
//! and ARM-dob. The RA and ARM-dob columns are
//! hand-derived from the declarative axioms ([`crate::axiom::RA_SPEC`],
//! [`crate::axiom::ARM_DOB_SPEC`]) and pinned against both compilers by
//! the differential suite — so a change to either compiler that flips a
//! classic litmus outcome is caught here, not in production.

use crate::axiom::ModelId;
use std::collections::BTreeMap;
use vermem_trace::{Op, Trace, TraceBuilder};

/// A named litmus test with per-model expectations.
pub struct LitmusTest {
    /// Conventional short name (SB, MP, LB, IRIW, ...).
    pub name: &'static str,
    /// What the test observes.
    pub description: &'static str,
    /// The observed-outcome trace.
    pub trace: Trace,
    /// For each declared model: is the observed outcome allowed?
    pub expected: BTreeMap<ModelId, bool>,
}

/// Build a test with its six-model expectation row
/// (`[sc, tso, pso, coh, ra, dob]`, the order of [`ModelId::ALL`]).
fn case(
    name: &'static str,
    description: &'static str,
    trace: Trace,
    allowed: [bool; 6],
) -> LitmusTest {
    let [sc, tso, pso, coh, ra, dob] = allowed;
    // Strength sanity: anything SC allows, every weaker model allows; and
    // everything any model allows, coherence-only allows.
    debug_assert!(
        !sc || (tso && ra && dob),
        "{name}: SC-allowed must propagate"
    );
    debug_assert!(!tso || pso, "{name}: TSO-allowed must propagate to PSO");
    debug_assert!(
        coh || (!pso && !ra && !dob),
        "{name}: coherence-only is the weakest model"
    );
    LitmusTest {
        name,
        description,
        trace,
        expected: ModelId::ALL.into_iter().zip(allowed).collect(),
    }
}

/// The full built-in litmus suite.
pub fn all_litmus_tests() -> Vec<LitmusTest> {
    let x = 0u32;
    let y = 1u32;
    vec![
        case(
            "SB",
            "store buffering: both reads miss the other CPU's store",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::read(y, 0u64)])
                .proc([Op::write(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // RA: no cross-process rf, so nothing happens-before the
            // stale reads. ARM-dob: the W→R pairs are cross-address with a
            // write source, hence not dob-ordered.
            [false, true, true, true, true, true],
        ),
        case(
            "SB+rmws",
            "store buffering with atomic RMWs: the RMWs restore order",
            TraceBuilder::new()
                .proc([Op::rmw(x, 0u64, 1u64), Op::read(y, 0u64)])
                .proc([Op::rmw(y, 0u64, 1u64), Op::read(x, 0u64)])
                .build(),
            // RA still allows it (RMWs are not SC fences in RA), but the
            // RMW sources are read-capable, so dob orders rmw→R and the
            // fre edges close an external-coherence cycle.
            [false, false, false, true, true, false],
        ),
        case(
            "MP",
            "message passing: flag observed set but payload stale",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::write(y, 1u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // RA: the flag rf makes the payload write happen-before the
            // stale read — forbidden. ARM-dob: W→W is not dob-ordered, so
            // the cycle never closes (classic ARM "MP without barriers").
            [false, false, true, true, false, true],
        ),
        case(
            "MP+rmws",
            "message passing with RMW flag publish/observe",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::rmw(y, 0u64, 1u64)])
                .proc([Op::rmw(y, 1u64, 2u64), Op::read(x, 0u64)])
                .build(),
            // RA: rf between the flag RMWs carries happens-before —
            // forbidden. ARM-dob: the payload write → flag RMW edge has a
            // *write* source (not dob), so external coherence stays acyclic.
            [false, false, false, true, false, true],
        ),
        case(
            "LB",
            "load buffering: both loads see the other CPU's later store",
            TraceBuilder::new()
                .proc([Op::read(y, 1u64), Op::write(x, 1u64)])
                .proc([Op::read(x, 1u64), Op::write(y, 1u64)])
                .build(),
            // po ∪ rf is cyclic: forbidden under RA causality, and the
            // read-sourced po edges are dob, closing the ARM cycle too.
            [false, false, false, true, false, false],
        ),
        case(
            "IRIW",
            "independent reads of independent writes observed in opposite orders",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64)])
                .proc([Op::write(y, 1u64)])
                .proc([Op::read(x, 1u64), Op::read(y, 0u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // The canonical RA/ARM split: RA has no multi-copy-atomicity
            // requirement (allowed), ARM-dob's reader-side dob edges plus
            // rfe/fre close an external cycle (forbidden).
            [false, false, false, true, true, false],
        ),
        case(
            "2+2W",
            "two writers each writing both locations; finals cross",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::write(y, 2u64)])
                .proc([Op::write(y, 1u64), Op::write(x, 2u64)])
                .final_value(x, 1u64)
                .final_value(y, 1u64)
                .build(),
            // No reads at all: happens-before is per-process only, and
            // W→W cross-address pairs are not dob-ordered.
            [false, false, true, true, true, true],
        ),
        case(
            "CoRR",
            "coherence read-read: one CPU sees a location's value regress",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::write(x, 2u64)])
                .proc([Op::read(x, 2u64), Op::read(x, 1u64)])
                .build(),
            [false, false, false, false, false, false],
        ),
        case(
            "CoRR2",
            "coherence read-read 2: two CPUs observe the same location's writes in opposite orders",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64)])
                .proc([Op::write(x, 2u64)])
                .proc([Op::read(x, 1u64), Op::read(x, 2u64)])
                .proc([Op::read(x, 2u64), Op::read(x, 1u64)])
                .build(),
            [false, false, false, false, false, false],
        ),
        case(
            "CoWW",
            "coherence write-write: program-ordered writes commit reversed",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::write(x, 2u64)])
                .final_value(x, 1u64)
                .build(),
            [false, false, false, false, false, false],
        ),
        case(
            "CoRW1",
            "coherence read-write: a load observes the CPU's own later store",
            TraceBuilder::new()
                .proc([Op::read(x, 1u64), Op::write(x, 1u64)])
                .build(),
            [false, false, false, false, false, false],
        ),
        case(
            "WRC",
            "write-to-read causality: P2 misses a write P1 already observed",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64)])
                .proc([Op::read(x, 1u64), Op::write(y, 1u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // RA: the rf chain carries happens-before to the stale read.
            // ARM-dob: both relays are read-sourced (dob), closing the
            // cycle — cumulative causality holds even without barriers.
            [false, false, false, true, false, false],
        ),
        case(
            "WRC+rmws",
            "write-to-read causality where the relay is an RMW on the payload itself",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64)])
                .proc([Op::rmw(x, 1u64, 2u64), Op::write(y, 1u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // Same profile as WRC: the RMW relay is read-capable, so the
            // dob chain survives, and RA's happens-before is unchanged.
            [false, false, false, true, false, false],
        ),
        case(
            "R",
            "store ordered after a racing write, load misses the first store",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::write(y, 1u64)])
                .proc([Op::write(y, 2u64), Op::read(x, 0u64)])
                .final_value(y, 2u64)
                .build(),
            [false, true, true, true, true, true],
        ),
        case(
            "S",
            "write reordered below a later write observed remotely",
            TraceBuilder::new()
                .proc([Op::write(x, 2u64), Op::write(y, 1u64)])
                .proc([Op::read(y, 1u64), Op::write(x, 1u64)])
                .final_value(x, 2u64)
                .final_value(y, 1u64)
                .build(),
            // RA: mo(x1 → x2) contradicts hb(x2 → x1) through the flag rf.
            // ARM-dob: the W→W edge on P0 is not dob, so no external cycle.
            [false, false, true, true, false, true],
        ),
        case(
            "CoRW2",
            "coherence read-write: a load observes a store that must follow the CPU's own later store",
            TraceBuilder::new()
                .proc([Op::read(x, 2u64), Op::write(x, 1u64)])
                .proc([Op::write(x, 2u64)])
                .final_value(x, 2u64)
                .build(),
            [false, false, false, false, false, false],
        ),
        case(
            "RMW-chain",
            "ownership handoff over a fetch-and-add chain: payload observed",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::rmw(y, 0u64, 1u64)])
                .proc([Op::rmw(y, 1u64, 2u64), Op::read(x, 1u64)])
                .build(),
            // The *positive* MP variant: allowed everywhere. Every read has
            // a unique writer candidate, so the RA fast tier decides it
            // without escalating.
            [true, true, true, true, true, true],
        ),
        case(
            "RMW-race",
            "two RMWs both claim the same initial value: atomicity forbids it",
            TraceBuilder::new()
                .proc([Op::rmw(x, 0u64, 1u64)])
                .proc([Op::rmw(x, 0u64, 2u64)])
                .build(),
            // Whichever RMW commits second reads the initial value across
            // the first one's write — an fr ∪ mo cycle on one address, so
            // even coherence-only refuses.
            [false, false, false, false, false, false],
        ),
        // --- no-store-forwarding pins -------------------------------------
        // The crate's TSO/PSO machines have *no* store-to-load forwarding:
        // a CPU's load stalls on its own buffered store until it drains.
        // Each case below reads the CPU's own store before observing the
        // classic relaxed outcome. Real forwarding hardware (x86-TSO,
        // SPARC) still allows the relaxed outcome — the own-read is served
        // from the buffer — but the forwarding-free semantics modelled here
        // (and by the serialization oracle, `oracle::serializes`, where the
        // same-address W→R edge is always enforced) forbid it: the own-read
        // forces the store to drain before the CPU proceeds.
        case(
            "SB+own-reads",
            "store buffering where each CPU first reads back its own store; \
             allowed on forwarding hardware, forbidden without forwarding",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::read(x, 1u64), Op::read(y, 0u64)])
                .proc([Op::write(y, 1u64), Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // RA tolerates it (the own-reads add only internal rf), but
            // the own-reads give every stale read a read-capable
            // dob-ancestor, closing the ARM external cycle.
            [false, false, false, true, true, false],
        ),
        case(
            "MP+own-read",
            "message passing where the writer reads back the payload before \
             raising the flag; forwarding PSO allows the stale read, \
             forwarding-free PSO does not",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::read(x, 1u64), Op::write(y, 1u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            // The own-read makes the payload→flag leg dob-ordered (read
            // source), so ARM-dob now forbids MP as well.
            [false, false, false, true, false, false],
        ),
        case(
            "IRIW+own-reads",
            "IRIW where each writer reads back its own store: the own-reads \
             force both stores to drain before the writers retire",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::read(x, 1u64)])
                .proc([Op::write(y, 1u64), Op::read(y, 1u64)])
                .proc([Op::read(x, 1u64), Op::read(y, 0u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 0u64)])
                .build(),
            [false, false, false, true, true, false],
        ),
        case(
            "MP+final",
            "message passing where the payload is later overwritten",
            TraceBuilder::new()
                .proc([Op::write(x, 1u64), Op::write(y, 1u64), Op::write(x, 2u64)])
                .proc([Op::read(y, 1u64), Op::read(x, 1u64)])
                .final_value(x, 2u64)
                .final_value(y, 1u64)
                .build(),
            [true, true, true, true, true, true],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::{solve_spec_sat, verify_axiom, AxiomConfig};
    use crate::oracle::serializes;

    #[test]
    fn litmus_suite_matches_expectations() {
        // The serialization columns against the serialization oracle.
        for test in all_litmus_tests() {
            assert_eq!(test.expected.len(), ModelId::ALL.len(), "{}", test.name);
            for id in ModelId::SERIALIZING {
                let allowed = test.expected[&id];
                let got = serializes(&test.trace, id);
                assert_eq!(
                    got,
                    allowed,
                    "{} under {}: expected allowed={}, got {}",
                    test.name,
                    id.name(),
                    allowed,
                    got
                );
            }
        }
    }

    #[test]
    fn axiom_expectations_match_the_sat_compiler() {
        // All six columns — including the hand-derived RA and ARM-dob
        // ones — against the spec-generic SAT compiler.
        for test in all_litmus_tests() {
            for (&id, &allowed) in &test.expected {
                let got = solve_spec_sat(&test.trace, crate::axiom::spec(id)).is_consistent();
                assert_eq!(
                    got,
                    allowed,
                    "{} under {} (SAT compiler): expected allowed={}",
                    test.name,
                    id.name(),
                    allowed
                );
            }
        }
    }

    #[test]
    fn sc_expectations_agree_with_compiled_engine() {
        for test in all_litmus_tests() {
            let expected = test.expected[&ModelId::Sc];
            let got = verify_axiom(&test.trace, ModelId::Sc, &AxiomConfig::default())
                .verdict
                .is_consistent();
            assert_eq!(got, expected, "{} under SC (compiled)", test.name);
        }
    }

    #[test]
    fn suite_is_nontrivial() {
        let tests = all_litmus_tests();
        assert!(tests.len() >= 10);
        // Some test distinguishes every adjacent serialization-model pair.
        for pair in ModelId::SERIALIZING.windows(2) {
            let (strong, weak) = (pair[0], pair[1]);
            assert!(
                tests
                    .iter()
                    .any(|t| !t.expected[&strong] && t.expected[&weak]),
                "no test separates {} from {}",
                strong.name(),
                weak.name()
            );
        }
        // RA and ARM-dob are incomparable: some test splits them in each
        // direction (IRIW: RA yes, ARM no; MP: RA no, ARM yes), and each
        // is strictly stronger than coherence-only.
        for (a, b) in [
            (ModelId::Ra, ModelId::ArmDob),
            (ModelId::ArmDob, ModelId::Ra),
        ] {
            assert!(
                tests.iter().any(|t| t.expected[&a] && !t.expected[&b]),
                "no test allows {} while forbidding {}",
                a.name(),
                b.name()
            );
        }
        for id in [ModelId::Ra, ModelId::ArmDob] {
            assert!(
                tests
                    .iter()
                    .any(|t| !t.expected[&id] && t.expected[&ModelId::CoherenceOnly]),
                "no test separates {} from coherence-only",
                id.name()
            );
        }
    }
}
