//! # vermem-reductions
//!
//! Executable constructions of every reduction figure in *The Complexity of
//! Verifying Memory Coherence and Consistency* (Cantin, Lipasti & Smith):
//!
//! | Figure | Construction | Module |
//! |---|---|---|
//! | 4.1 | SAT → VMC (Theorem 4.2) | [`sat_to_vmc`] |
//! | 4.2 | the worked example `Q = u` | [`sat_to_vmc::example_fig_4_2`] |
//! | 5.1 | 3SAT → VMC, ≤3 simple ops/process, ≤2 writes/value | [`threesat_restricted`] |
//! | 5.2 | 3SAT → VMC, ≤2 RMWs/process, ≤3 writes/value | [`threesat_rmw`] |
//! | 6.1 | the Figure 4.1 instance under LRC synchronization | [`lrc`] |
//! | 6.2 | SAT → VSCC (coherent by construction, Figure 6.3) | [`sat_to_vscc`] |
//!
//! Every construction is tested for *differential equisatisfiability*:
//! the source formula is solved with the CDCL solver and the constructed
//! instance with the exact coherence/consistency solvers, and the two
//! answers must agree; satisfying assignments are extracted back out of
//! witness schedules and re-checked against the formula. Figures 4.1, 5.1
//! and 5.2 are checked this way on every formula of 2–3 variables and 1–3
//! distinct clauses (`tests/exhaustive_small.rs`).
//!
//! Figures 5.1 and 5.2 are OCR-damaged in the available text of the paper;
//! the constructions here are reconstructions that meet the same stated
//! restrictions (checked structurally in tests via the Figure 5.3
//! classifier) and preserve equisatisfiability. See the module docs for
//! the reconstructed gadget designs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lrc;
pub mod sat_to_vmc;
pub mod sat_to_vscc;
pub mod threesat_restricted;
pub mod threesat_rmw;

pub use lrc::{reduce_sat_to_lrc, LrcReduction};
pub use sat_to_vmc::{example_fig_4_2, reduce_sat_to_vmc, VmcReduction};
pub use sat_to_vscc::{reduce_sat_to_vscc, VsccReduction};
pub use threesat_restricted::{reduce_3sat_restricted, Restricted3SatReduction};
pub use threesat_rmw::{reduce_3sat_rmw, Rmw3SatReduction};
