//! VSCC — Verifying Sequential Consistency with Coherence (Definition 6.2).
//!
//! The promise problem: the input is guaranteed (or first shown) coherent
//! per address; is it sequentially consistent? The paper's §6.3 point is
//! that the natural pipeline —
//!
//! 1. verify coherence per address (collecting witness schedules), then
//! 2. merge those schedules with program order (VSC-Conflict, O(n lg n))
//!
//! — is *incomplete*: step 2 can fail even when the trace is sequentially
//! consistent under a different choice of coherent schedules, because VSCC
//! is itself NP-complete. [`verify_vscc`] runs the pipeline and, when the
//! cheap merge fails, falls back to the exact VSC decision, reporting which
//! stage settled the answer so the incompleteness is observable.

use crate::axiom::{verify_axiom, AxiomConfig, Engine, ModelId};
use crate::verdict::ConsistencyVerdict;
use crate::vsc_conflict::{merge_coherent_schedules, MergeOutcome};
use std::collections::BTreeMap;
use vermem_coherence::{ExecutionVerdict, KernelConfig, SearchStats, Violation};
use vermem_trace::{Addr, Schedule, Trace};

/// Which stage of the VSCC pipeline produced the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettledBy {
    /// The per-address coherence check already failed (the promise of
    /// Definition 6.2 does not hold).
    CoherenceCheck,
    /// The O(n lg n) VSC-Conflict merge succeeded.
    FastMerge,
    /// The merge was cyclic; the exact VSC solver decided the instance.
    ExactFallback,
}

/// Full report from the VSCC pipeline.
#[derive(Clone, Debug)]
pub struct VsccReport {
    /// Whether the execution satisfies the coherence promise, and the
    /// per-address witness schedules if so.
    pub coherence: Result<BTreeMap<Addr, Schedule>, Violation>,
    /// The final sequential-consistency verdict.
    pub verdict: ConsistencyVerdict,
    /// Which stage settled the verdict.
    pub settled_by: SettledBy,
    /// True when the trace was SC even though the fast merge failed — a
    /// concrete witness of §6.3's incompleteness argument.
    pub merge_was_misleading: bool,
}

/// Run the VSCC pipeline with default settings.
pub fn verify_vscc(trace: &Trace) -> VsccReport {
    verify_vscc_with(trace, Engine::Compiled, &KernelConfig::default())
}

/// Run the VSCC pipeline with an explicit engine for the exact fallback
/// (the SC decision of [`verify_axiom`]) and kernel budget.
pub fn verify_vscc_with(trace: &Trace, engine: Engine, cfg: &KernelConfig) -> VsccReport {
    // Stage 1: coherence per address.
    let schedules = match vermem_coherence::verify_execution(trace) {
        ExecutionVerdict::Coherent(s) => s,
        ExecutionVerdict::Incoherent(v) => {
            return VsccReport {
                verdict: ConsistencyVerdict::Violating(crate::verdict::ConsistencyViolation {
                    class: crate::verdict::ViolationClass::PerAddressCoherence(v.clone()),
                }),
                coherence: Err(v),
                settled_by: SettledBy::CoherenceCheck,
                merge_was_misleading: false,
            };
        }
        ExecutionVerdict::Unknown { .. } => {
            return VsccReport {
                coherence: Ok(BTreeMap::new()),
                verdict: ConsistencyVerdict::Unknown {
                    stats: SearchStats::default(),
                },
                settled_by: SettledBy::CoherenceCheck,
                merge_was_misleading: false,
            };
        }
    };

    // Stage 2: the O(n lg n) merge.
    match merge_coherent_schedules(trace, &schedules) {
        MergeOutcome::Merged(s) => VsccReport {
            coherence: Ok(schedules),
            verdict: ConsistencyVerdict::Consistent(s),
            settled_by: SettledBy::FastMerge,
            merge_was_misleading: false,
        },
        MergeOutcome::Cyclic { .. } => {
            // Stage 3: exact decision.
            let axiom = AxiomConfig {
                engine,
                kernel: *cfg,
                ..AxiomConfig::default()
            };
            let verdict = verify_axiom(trace, ModelId::Sc, &axiom).verdict;
            let misleading = verdict.is_consistent();
            VsccReport {
                coherence: Ok(schedules),
                verdict,
                settled_by: SettledBy::ExactFallback,
                merge_was_misleading: misleading,
            }
        }
    }
}

/// A minimal hand-built witness of §6.3's incompleteness: a sequentially
/// consistent trace for which at least one valid choice of per-address
/// coherent schedules fails to merge. Used by tests and the consistency
/// benchmarks.
///
/// Layout (addresses x=0, y=1; `d_I = 0`; y takes value 1 twice):
///
/// ```text
/// P0: W(x,1)  R(y,1)
/// P1: W(y,1)  W(y,2)  W(y,1)
/// P2: R(y,2)  R(x,0)
/// ```
///
/// `R(y,1)` may bind to either `W(y,1)`. Binding it to the *first* one
/// forces `R(y,1)` before `W(y,2)`, which (through program order and the
/// x-schedule `R(x,0) < W(x,1)`) closes a cycle — while binding it to the
/// second `W(y,1)` merges into a valid SC schedule. Both bindings are
/// coherent for `y` in isolation.
pub fn misleading_merge_example() -> (Trace, BTreeMap<Addr, Schedule>) {
    use vermem_trace::{Op, OpRef, TraceBuilder};
    let trace = TraceBuilder::new()
        .proc([Op::write(0u32, 1u64), Op::read(1u32, 1u64)])
        .proc([
            Op::write(1u32, 1u64),
            Op::write(1u32, 2u64),
            Op::write(1u32, 1u64),
        ])
        .proc([Op::read(1u32, 2u64), Op::read(0u32, 0u64)])
        .build();

    // Adversarial coherent schedule for y: R(y,1) bound to the FIRST W(y,1).
    let y: Schedule = [
        OpRef::new(1u16, 0), // W(y,1)
        OpRef::new(0u16, 1), // R(y,1)  ← early binding
        OpRef::new(1u16, 1), // W(y,2)
        OpRef::new(2u16, 0), // R(y,2)
        OpRef::new(1u16, 2), // W(y,1)
    ]
    .into_iter()
    .collect();
    let x: Schedule = [
        OpRef::new(2u16, 1), // R(x,0)
        OpRef::new(0u16, 0), // W(x,1)
    ]
    .into_iter()
    .collect();
    let mut schedules = BTreeMap::new();
    schedules.insert(Addr(0), x);
    schedules.insert(Addr(1), y);
    (trace, schedules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{check_coherent_schedule_ops, AddrIndex, Op, TraceBuilder};

    #[test]
    fn pipeline_fast_merge_on_sc_trace() {
        let (t, _) = vermem_trace::gen::gen_sc_trace(&vermem_trace::gen::GenConfig {
            procs: 3,
            total_ops: 30,
            addrs: 3,
            seed: 11,
            ..Default::default()
        });
        let report = verify_vscc(&t);
        assert!(report.verdict.is_consistent());
        // The fast merge usually settles generated traces; either way the
        // verdict must be SC.
    }

    #[test]
    fn pipeline_detects_incoherent_promise_break() {
        let t = TraceBuilder::new().proc([Op::read(0u32, 9u64)]).build();
        let report = verify_vscc(&t);
        assert_eq!(report.settled_by, SettledBy::CoherenceCheck);
        assert!(report.verdict.is_violating());
        assert!(report.coherence.is_err());
    }

    #[test]
    fn pipeline_exact_fallback_on_sb_violation() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        let report = verify_vscc(&t);
        assert!(report.coherence.is_ok(), "SB is coherent per address");
        assert_eq!(report.settled_by, SettledBy::ExactFallback);
        assert!(report.verdict.is_violating());
        assert!(!report.merge_was_misleading);
    }

    #[test]
    fn misleading_example_is_sound() {
        let (t, adversarial) = misleading_merge_example();
        // The adversarial schedules are genuinely coherent per address...
        let index = AddrIndex::build(&t);
        for (&addr, s) in &adversarial {
            check_coherent_schedule_ops(index.get(addr).unwrap(), s)
                .unwrap_or_else(|e| panic!("schedule for {addr:?} invalid: {e}"));
        }
        // ...but they do not merge...
        assert!(matches!(
            merge_coherent_schedules(&t, &adversarial),
            MergeOutcome::Cyclic { .. }
        ));
        // ...even though the trace IS sequentially consistent.
        let exact = verify_axiom(&t, ModelId::Sc, &AxiomConfig::default()).verdict;
        assert!(exact.is_consistent(), "trace must be SC");
    }

    #[test]
    fn both_engines_agree() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        let a = verify_vscc_with(&t, Engine::Compiled, &KernelConfig::default());
        let b = verify_vscc_with(&t, Engine::Sat, &KernelConfig::default());
        assert_eq!(a.verdict.is_consistent(), b.verdict.is_consistent());
    }
}
