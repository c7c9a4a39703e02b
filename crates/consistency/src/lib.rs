//! # vermem-consistency
//!
//! Memory *consistency* verification for the `vermem` suite, covering §6 of
//! Cantin, Lipasti & Smith:
//!
//! * [`axiom`] — memory models as **data**: one model vocabulary
//!   ([`ModelId`]), one declarative [`ModelSpec`] per model
//!   (program-order enforcement table + axioms over `po`/`rf`/`mo`/`fr`),
//!   and one deciding entry point, [`verify_axiom`]. Two independent
//!   compilers run the same spec — an operational lowering onto the
//!   coherence crate's deciders (the VMC dispatcher address by address
//!   for coherence-only, the shared exact-search kernel
//!   [`vermem_coherence::kernel`] for the rest) and a SAT lowering
//!   ([`solve_spec_sat`]) — covering SC (VSC, Definition 6.1), TSO, PSO,
//!   coherence-only, Release–Acquire and an ARM-like dob model, with a
//!   polynomial RA fast tier ([`axiom::ra_fast`]). Schedules of the four
//!   serialization models are checked by [`check_model_schedule`]: the
//!   one schedule checker, [`vermem_trace::check_serialization`] (Theorem
//!   4.2's check at each address plus one cross-address pass), under the
//!   spec's program-order table. Other witnesses are checked by
//!   [`check_witness`];
//! * [`oracle`] — the definition of every declared model, run by
//!   exhaustive search: the four serialization models over a
//!   hand-written preserved program order, RA and ARM-dob over every
//!   `rf` × `mo` witness against hand-written axioms. It is the reference
//!   the differential suites hold both compilers to (no production path
//!   calls it);
//! * [`vsc_conflict`] — the O(n lg n) merge of per-address coherent
//!   schedules into an SC schedule (and its §6.3 incompleteness);
//! * [`vscc`] — the VSCC promise-problem pipeline (Definition 6.2):
//!   coherence first (through the coherence crate's default *tiered*
//!   pipeline — closure frontline, exact escalation; see
//!   [`vermem_coherence::closure`]), fast merge, exact fallback through
//!   [`verify_axiom`];
//! * [`litmus`] — the classic litmus suite with per-model expectations;
//! * [`lrc`] — Lazy Release Consistency for fully synchronized traces
//!   (Figure 6.1's target model).
//!
//! ```
//! use vermem_consistency::{verify_axiom, AxiomConfig, ModelId};
//! use vermem_trace::{Op, TraceBuilder};
//! // Message passing with a stale payload: only models that let the two
//! // stores (or the two loads) reorder allow it.
//! let mp = TraceBuilder::new()
//!     .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
//!     .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
//!     .build();
//! let allowed: Vec<&str> = ModelId::ALL
//!     .into_iter()
//!     .filter(|&id| verify_axiom(&mp, id, &AxiomConfig::default()).verdict.is_consistent())
//!     .map(ModelId::name)
//!     .collect();
//! assert_eq!(allowed, ["PSO", "Coherence", "ARM-dob"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod axiom;
pub mod litmus;
pub mod lrc;
pub mod oracle;
mod verdict;
pub mod vsc_conflict;
pub mod vscc;

pub use axiom::{
    check_model_schedule, check_witness, precheck_sc, solve_spec_sat, spec, verify_axiom,
    AxiomConfig, AxiomReport, Engine, ModelId, ModelSpec, Witness,
};
pub use verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
/// Budget/ablation knobs shared by every kernel-backed search (re-exported
/// from the coherence crate so consistency callers need no extra import).
pub use vermem_coherence::KernelConfig;
/// Search counters shared with the VMC engine (re-exported alongside
/// [`KernelConfig`]).
pub use vermem_coherence::SearchStats;
pub use vsc_conflict::{merge_coherent_schedules, MergeOutcome};
pub use vscc::{verify_vscc, verify_vscc_with, SettledBy, VsccReport};
