//! # vermem-sat
//!
//! A from-scratch SAT-solving substrate for the `vermem` verifier suite.
//!
//! The paper (*The Complexity of Verifying Memory Coherence and
//! Consistency*, Cantin, Lipasti & Smith) proves VMC NP-complete by
//! reduction *from* SAT; in practice one also solves NP-complete VMC
//! instances by reducing *to* SAT. Both directions need a real solver:
//!
//! * [`CdclSolver`] — conflict-driven clause learning with two-watched
//!   literals, first-UIP learning, VSIDS + phase saving, Luby restarts and
//!   learnt-clause database reduction;
//! * [`solve_dpll`] — a plain DPLL reference the CDCL solver is checked
//!   against where brute force cannot reach;
//! * [`Cnf`] — CNF construction and evaluation;
//! * [`drat`] — RUP checking of the solver's refutation proofs;
//! * [`dimacs`] — standard DIMACS CNF I/O;
//! * [`random`] — random and forced-satisfiable k-SAT generators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cnf;
pub mod dimacs;
mod dpll;
pub mod drat;
mod heap;
mod lit;
pub mod random;
mod solver;

pub use cnf::{Cnf, Model, SatResult};
pub use dpll::solve_dpll;
pub use drat::{check_unsat_proof, Proof, ProofCheck};
pub use lit::{LBool, Lit, Var};
pub use solver::{solve_cdcl, solve_certified, CdclSolver, SolverStats};
