//! # vermem-consistency
//!
//! Memory *consistency* verification for the `vermem` suite, covering §6 of
//! Cantin, Lipasti & Smith:
//!
//! * [`axiom`] — memory models as **data**: declarative [`ModelSpec`]s
//!   (program-order enforcement table + axioms over `po`/`rf`/`mo`/`fr`)
//!   compiled by two independent compilers — an operational lowering onto
//!   the shared exact-search kernel ([`vermem_coherence::kernel`]) and a
//!   SAT lowering — covering SC, TSO, PSO, coherence-only,
//!   Release–Acquire and an ARM-like dob model, with a polynomial RA fast
//!   tier ([`axiom::ra_fast`]);
//! * [`vsc`] — Verifying Sequential Consistency (Definition 6.1): the SC
//!   entry points over the compiled machine, as are the operational
//!   [`tso_operational`] and [`pso_operational`] wrappers;
//! * [`sat_vsc`] — the hand-written serialization SAT encoding for the
//!   four base models (the compiled engines' independent oracle);
//! * [`vsc_conflict`] — the O(n lg n) merge of per-address coherent
//!   schedules into an SC schedule (and its §6.3 incompleteness);
//! * [`vscc`] — the VSCC promise-problem pipeline (Definition 6.2):
//!   coherence first (through the coherence crate's default *tiered*
//!   pipeline — closure frontline, exact escalation; see
//!   [`vermem_coherence::closure`]), fast merge, exact fallback;
//! * [`models`] — the consistency models as program-order relaxations, with
//!   witness checkers;
//! * [`litmus`] — the classic litmus suite with per-model expectations;
//! * [`lrc`] — Lazy Release Consistency for fully synchronized traces
//!   (Figure 6.1's target model).
//!
//! [`ModelSpec`]: axiom::ModelSpec

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod axiom;
pub mod litmus;
pub mod lrc;
mod machine;
pub mod models;
pub mod pso_operational;
pub mod sat_vsc;
pub mod tso_operational;
mod verdict;
pub mod vsc;
pub mod vsc_conflict;
pub mod vscc;

pub use axiom::{
    check_witness, solve_spec_sat, spec, verify_axiom, verify_axiom_with, AxiomConfig, AxiomReport,
    Engine, ModelId, ModelSpec, Witness,
};
pub use models::{check_model_schedule, MemoryModel};
pub use pso_operational::{solve_pso_operational, solve_pso_operational_with_stats};
pub use sat_vsc::{encode_model, solve_model_sat, VscEncoding};
pub use tso_operational::{solve_tso_operational, solve_tso_operational_with_stats};
pub use verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
/// Budget/ablation knobs shared by every kernel-backed search (re-exported
/// from the coherence crate so consistency callers need no extra import).
pub use vermem_coherence::KernelConfig;
/// Search counters shared with the VMC engine (re-exported alongside
/// [`KernelConfig`]).
pub use vermem_coherence::SearchStats;
pub use vsc::{precheck_sc, solve_sc_backtracking, solve_sc_backtracking_with_stats};
pub use vsc_conflict::{merge_coherent_schedules, MergeOutcome};
pub use vscc::{verify_vscc, verify_vscc_with, SettledBy, VsccBackend, VsccReport};

use vermem_trace::Trace;

/// Decide adherence of `trace` to `model` with default settings: exact
/// backtracking for SC, the SAT encoding for relaxed models.
///
/// ```
/// use vermem_consistency::{verify_model, MemoryModel};
/// use vermem_trace::{Op, TraceBuilder};
/// // Store buffering: each CPU misses the other's store.
/// let sb = TraceBuilder::new()
///     .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
///     .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
///     .build();
/// assert!(verify_model(&sb, MemoryModel::Sc).is_violating());
/// assert!(verify_model(&sb, MemoryModel::Tso).is_consistent());
/// ```
pub fn verify_model(trace: &Trace, model: MemoryModel) -> ConsistencyVerdict {
    match model {
        MemoryModel::Sc => solve_sc_backtracking(trace, &KernelConfig::default()),
        _ => solve_model_sat(trace, model),
    }
}

/// Decide adherence of `trace` to `model` with the *operational* engines:
/// every model compiles to a kernel-backed machine (SC, TSO and PSO to
/// store-buffer machines, [`MemoryModel::CoherenceOnly`] to the witness
/// search) that honours `cfg`'s budget and reports [`SearchStats`].
///
/// ```
/// use vermem_consistency::{verify_model_operational, KernelConfig, MemoryModel};
/// use vermem_trace::{Op, TraceBuilder};
/// // Store buffering again: TSO's per-process FIFO buffer explains it.
/// let sb = TraceBuilder::new()
///     .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
///     .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
///     .build();
/// let (verdict, stats) = verify_model_operational(
///     &sb, MemoryModel::Tso, &KernelConfig::default());
/// assert!(verdict.is_consistent());
/// assert!(stats.states > 0); // the machine really searched
///
/// // A budget of one state is exhausted immediately: explicit Unknown,
/// // never a silent give-up.
/// let tight = KernelConfig { max_states: Some(1), ..KernelConfig::default() };
/// let (verdict, _) = verify_model_operational(&sb, MemoryModel::Tso, &tight);
/// assert!(verdict.unknown_stats().is_some());
/// ```
pub fn verify_model_operational(
    trace: &Trace,
    model: MemoryModel,
    cfg: &KernelConfig,
) -> (ConsistencyVerdict, SearchStats) {
    axiom::solve_compiled_with_stats(trace, ModelId::from(model), cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{Op, TraceBuilder};

    #[test]
    fn verify_model_dispatch() {
        let sb = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(verify_model(&sb, MemoryModel::Sc).is_violating());
        assert!(verify_model(&sb, MemoryModel::Tso).is_consistent());
    }
}
