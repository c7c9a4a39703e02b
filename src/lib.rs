//! # vermem — verifying memory coherence and consistency
//!
//! A production-quality reproduction of *“The Complexity of Verifying
//! Memory Coherence and Consistency”* (Jason F. Cantin, Mikko H. Lipasti,
//! James E. Smith; SPAA 2003 brief announcement / UW-Madison TR ECE-03-01):
//! a canonical trace-based verifier for shared-memory executions, the
//! polynomial special-case algorithms of the paper's Figure 5.3, executable
//! versions of all its reductions, and the substrates (a CDCL SAT solver
//! and a MESI multiprocessor simulator) needed to exercise them end to end.
//!
//! ## Quick start
//!
//! ```
//! use vermem::trace::{Op, TraceBuilder, Addr};
//! use vermem::coherence;
//!
//! // P0 writes 1; P1 reads 1 — a coherent single-location execution.
//! let trace = TraceBuilder::new()
//!     .proc([Op::w(1u64)])
//!     .proc([Op::r(1u64)])
//!     .build();
//! let verdict = coherence::verify(&trace, Addr::ZERO);
//! assert!(verdict.is_coherent());
//! ```
//!
//! ## Crate map
//!
//! * [`trace`] — operations, histories, traces, the per-address index
//!   (`AddrOps`, one VMC instance per address), schedules and the
//!   polynomial certificate checkers (Theorem 4.2), generators, formats.
//! * [`sat`] — the CDCL/DPLL SAT substrate.
//! * [`coherence`] — VMC solvers: exact (backtracking, SAT encoding) and
//!   every Figure 5.3 fast path, with auto-dispatch.
//! * [`consistency`] — VSC/VSCC, six declared memory models (SC, TSO, PSO,
//!   coherence-only, RA, ARM-dob), VSC-Conflict merging, litmus tests, LRC.
//! * [`reductions`] — Figures 4.1, 4.2, 5.1, 5.2, 6.1, 6.2 as code.
//! * [`sim`] — the MESI/TSO multiprocessor with fault injection and
//!   write-order capture.
//! * [`util`] — the zero-dependency substrate: deterministic PRNG,
//!   property-testing harness, binary codec, hashing, dense maps, the
//!   work pool, JSON and observability.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vermem_coherence as coherence;
pub use vermem_consistency as consistency;
pub use vermem_reductions as reductions;
pub use vermem_sat as sat;
pub use vermem_sim as sim;
pub use vermem_trace as trace;
pub use vermem_util as util;
