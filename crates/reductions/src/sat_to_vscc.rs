//! The Figure 6.2 reduction: SAT → VSCC (§6.3).
//!
//! A SAT instance with `m` variables and `n` clauses becomes a trace with
//! `2m + 3` processes and `m + n + 1` shared locations that is **coherent
//! at every address by construction** (Figure 6.3) yet sequentially
//! consistent iff the formula is satisfiable — witnessing that verifying
//! consistency stays NP-complete even under the coherence promise.
//!
//! * Address `a_{u_i}` per variable; the order of the values `d_X`/`d_Y`
//!   written to it encodes the variable's truth (equation 6.1).
//! * `h₁` writes `d_X` to every variable address, `h₂` writes `d_Y`; after
//!   reading the gate location `a_Δ` both rewrite the opposite values so
//!   false literals can complete.
//! * Literal histories read `(d_X, d_Y)` (or the reverse) from their
//!   variable's address, then write `d_Z` to `a_c` for each clause the
//!   literal satisfies.
//! * `h₃` reads `d_Z` from every clause address and then writes the gate
//!   `a_Δ`.

use vermem_sat::{Cnf, Model, Var};
use vermem_trace::{Addr, Op, OpRef, ProcessHistory, Schedule, Trace, Value};

/// Data value `d_X`.
pub const D_X: Value = Value(1);
/// Data value `d_Y`.
pub const D_Y: Value = Value(2);
/// Data value `d_Z`.
pub const D_Z: Value = Value(3);

/// The constructed VSCC instance.
pub struct VsccReduction {
    /// The multi-address trace (coherent per address by construction).
    pub trace: Trace,
    /// Number of SAT variables.
    pub num_vars: u32,
    /// `h₁`'s initial `W(a_{u_i}, d_X)` per variable.
    pub h1_write: Vec<OpRef>,
    /// `h₂`'s initial `W(a_{u_i}, d_Y)` per variable.
    pub h2_write: Vec<OpRef>,
}

/// The address `a_{u_i}` of variable `i`.
pub fn addr_var(i: u32) -> Addr {
    Addr(i)
}

/// The address `a_{c_j}` of clause `j`.
pub fn addr_clause(num_vars: u32, j: usize) -> Addr {
    Addr(num_vars + j as u32)
}

/// The gate address `a_Δ`.
pub fn addr_gate(num_vars: u32, num_clauses: usize) -> Addr {
    Addr(num_vars + num_clauses as u32)
}

/// Build the Figure 6.2 instance for `cnf`.
pub fn reduce_sat_to_vscc(cnf: &Cnf) -> VsccReduction {
    let m = cnf.num_vars();
    let n = cnf.num_clauses();
    let gate = addr_gate(m, n);
    let mut histories: Vec<ProcessHistory> = Vec::with_capacity(2 * m as usize + 3);

    // h1: W(a_u, d_X) ∀u; R(a_Δ, d_Z); W(a_u, d_Y) ∀u.
    let mut h1 = ProcessHistory::new();
    for i in 0..m {
        h1.push(Op::Write {
            addr: addr_var(i),
            value: D_X,
        });
    }
    h1.push(Op::Read {
        addr: gate,
        value: D_Z,
    });
    for i in 0..m {
        h1.push(Op::Write {
            addr: addr_var(i),
            value: D_Y,
        });
    }
    histories.push(h1);

    // h2: W(a_u, d_Y) ∀u; R(a_Δ, d_Z); W(a_u, d_X) ∀u.
    let mut h2 = ProcessHistory::new();
    for i in 0..m {
        h2.push(Op::Write {
            addr: addr_var(i),
            value: D_Y,
        });
    }
    h2.push(Op::Read {
        addr: gate,
        value: D_Z,
    });
    for i in 0..m {
        h2.push(Op::Write {
            addr: addr_var(i),
            value: D_X,
        });
    }
    histories.push(h2);

    // Literal histories.
    for i in 0..m {
        for positive in [true, false] {
            let (first, second) = if positive { (D_X, D_Y) } else { (D_Y, D_X) };
            let mut h = ProcessHistory::new();
            h.push(Op::Read {
                addr: addr_var(i),
                value: first,
            });
            h.push(Op::Read {
                addr: addr_var(i),
                value: second,
            });
            for (j, clause) in cnf.clauses().iter().enumerate() {
                if clause.contains(&Var(i).lit(positive)) {
                    h.push(Op::Write {
                        addr: addr_clause(m, j),
                        value: D_Z,
                    });
                }
            }
            histories.push(h);
        }
    }

    // h3: R(a_c, d_Z) ∀c; W(a_Δ, d_Z).
    let mut h3 = ProcessHistory::new();
    for j in 0..n {
        h3.push(Op::Read {
            addr: addr_clause(m, j),
            value: D_Z,
        });
    }
    h3.push(Op::Write {
        addr: gate,
        value: D_Z,
    });
    histories.push(h3);

    let trace = Trace::from_histories(histories);
    let h1_write = (0..m).map(|i| OpRef::new(0u16, i)).collect();
    let h2_write = (0..m).map(|i| OpRef::new(1u16, i)).collect();
    VsccReduction {
        trace,
        num_vars: m,
        h1_write,
        h2_write,
    }
}

impl VsccReduction {
    /// Extract the truth assignment from an SC schedule (equation 6.1).
    pub fn extract_assignment(&self, schedule: &Schedule) -> Model {
        let mut pos = std::collections::HashMap::new();
        for (i, &r) in schedule.refs().iter().enumerate() {
            pos.insert(r, i);
        }
        let values = (0..self.num_vars as usize)
            .map(|i| pos[&self.h1_write[i]] < pos[&self.h2_write[i]])
            .collect();
        Model::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_coherence::verify_execution;
    use vermem_consistency::{verify_axiom, AxiomConfig, ConsistencyVerdict, ModelId};
    use vermem_sat::{solve_cdcl, Lit};

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&x| Lit::from_dimacs(x)));
        }
        f
    }

    fn decide_sc(trace: &Trace) -> ConsistencyVerdict {
        verify_axiom(trace, ModelId::Sc, &AxiomConfig::default()).verdict
    }

    fn sc(trace: &Trace) -> bool {
        decide_sc(trace).is_consistent()
    }

    #[test]
    fn instance_shape_matches_paper() {
        let f = cnf(&[&[1, 2], &[-1, 2]]);
        let red = reduce_sat_to_vscc(&f);
        // 2m+3 processes, m+n+1 addresses.
        assert_eq!(red.trace.num_procs(), 2 * 2 + 3);
        assert_eq!(red.trace.addresses().len(), 2 + 2 + 1);
    }

    #[test]
    fn coherent_by_construction_regardless_of_satisfiability() {
        // Figure 6.3: even for UNSAT formulas every address is coherent.
        for f in [cnf(&[&[1], &[-1]]), cnf(&[&[1, 2], &[-1, 2]])] {
            let red = reduce_sat_to_vscc(&f);
            assert!(
                verify_execution(&red.trace).is_coherent(),
                "VSCC instance must satisfy the coherence promise"
            );
        }
    }

    #[test]
    fn satisfiable_iff_sequentially_consistent() {
        for (f, expect) in [
            (cnf(&[&[1]]), true),
            (cnf(&[&[1, 2], &[-1, 2], &[1, -2]]), true),
            (cnf(&[&[1], &[-1]]), false),
            (cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]), false),
        ] {
            assert_eq!(solve_cdcl(&f).is_sat(), expect);
            let red = reduce_sat_to_vscc(&f);
            assert_eq!(sc(&red.trace), expect, "equisatisfiability violated");
        }
    }

    #[test]
    fn extracted_assignments_satisfy() {
        for seed in 0..15u64 {
            let cfg = vermem_sat::random::RandomSatConfig {
                num_vars: 3,
                num_clauses: 5,
                k: 2,
                seed: 900 + seed,
            };
            let f = vermem_sat::random::gen_random_ksat(&cfg);
            let red = reduce_sat_to_vscc(&f);
            let verdict = decide_sc(&red.trace);
            if let Some(s) = verdict.schedule() {
                let model = red.extract_assignment(s);
                assert_eq!(f.eval(&model), Some(true), "seed {seed}");
            } else {
                assert!(!solve_cdcl(&f).is_sat(), "seed {seed}");
            }
        }
    }

    #[test]
    fn equisatisfiable_on_random_instances() {
        for seed in 0..15u64 {
            let cfg = vermem_sat::random::RandomSatConfig {
                num_vars: 2,
                num_clauses: 4,
                k: 2,
                seed: 1200 + seed,
            };
            let f = vermem_sat::random::gen_random_ksat(&cfg);
            let red = reduce_sat_to_vscc(&f);
            assert_eq!(sc(&red.trace), solve_cdcl(&f).is_sat(), "seed {seed}");
        }
    }
}
