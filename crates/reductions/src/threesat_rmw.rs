//! The Figure 5.2 reduction: 3SAT → VMC with **only read-modify-write
//! operations, at most two per process, and every value written at most
//! three times**.
//!
//! As with Figure 5.1 the published figure is corrupted in the source text;
//! this reconstruction keeps its visible architecture (a `B`-token spine
//! through the variables, `t`/`c` token–clause alternation, per-occurrence
//! two-RMW literal histories, a final value `d_F`) and provably meets the
//! same restrictions. Equisatisfiability is checked exhaustively on every
//! formula of 2–3 variables and 1–3 distinct clauses
//! (`tests/exhaustive_small.rs`) and differentially on random 3SAT.
//!
//! Because every operation is an RMW, a coherent schedule is a single chain
//! through value space: op `k+1` reads what op `k` wrote. The construction
//! shapes that chain as:
//!
//! ```text
//! d_I → B₁ →(true families)→ B_{m+1} → t₁ → c₁ → t₂ → … → c_n → R
//!     ↘ rewind: R → B₁ →(false families)→ B_{m+1} → pass-B clause work → F
//! ```
//!
//! * **Variable gadget:** for each variable, each of its two literal
//!   *families* chains `B_i → … → B_{i+1}` with the first RMW of each
//!   occurrence history. Only one family fits in the first traversal (the
//!   `B_i` value exists once per pass); that family is the true literal.
//! * **Clause gadget (pass A):** token `t_j` is produced once by the spine;
//!   only a literal history whose first RMW already executed — a *true*
//!   literal — can consume it (`RW(t_j, c_j)`), and the spine needs `c_j`
//!   to advance. Hence the spine reaches the rewind token `R` iff every
//!   clause holds under the assignment.
//! * **Pass B:** after the rewind, the false families traverse the `B`
//!   spine again, and the remaining literal second-RMWs are consumed by a
//!   second token pass (`r_j = |c_j| - 1` consumers per clause, fed by
//!   `RW(c_j, t_j)` producers), ending in the final value `d_F` that the
//!   instance's final-value constraint pins.
//!
//! * **Unit clauses** are rewritten first: `(l)` becomes `(l ∨ y)(l ∨ ¬y)`
//!   with a fresh variable `y`, an equisatisfiable pair. Nothing orders
//!   pass A's exit from `B_{m+1}` (to `t₁`) before pass B's (to the first
//!   pass-B clause), and pass B skips unit clauses, so without the rewrite
//!   a schedule can run pass B in the first traversal and then serve pass
//!   A with both families of a variable: `(x₁)(¬x₁)(x₁ ∨ x₂)` came out
//!   coherent. With two-literal clauses every clause takes part in both
//!   passes.
//!
//! Write counts: `t_j` is written `|c_j| ≤ 3` times; `B₁` and `B_{m+1}`
//! twice; everything else at most twice.

use std::collections::BTreeMap;
use vermem_sat::{Cnf, Lit, Model, Var};
use vermem_trace::{Op, OpRef, ProcessHistory, Schedule, Trace, Value};

/// The constructed all-RMW instance.
pub struct Rmw3SatReduction {
    /// The single-address, all-RMW VMC instance with a final-value
    /// constraint.
    pub trace: Trace,
    /// Number of SAT variables of the source formula (the fresh variables
    /// of the unit-clause rewrite come after them).
    pub num_vars: u32,
    /// For each source variable, the first RMW of its positive family
    /// (the one leaving `B_i`).
    pub positive_first: Vec<OpRef>,
    /// The rewind RMW `R → B₁`.
    pub rewind: OpRef,
}

impl Rmw3SatReduction {
    /// Extract the truth assignment encoded by a coherent schedule: a
    /// variable is true iff its positive family leaves `B_i` before the
    /// rewind, in the first traversal.
    pub fn extract_assignment(&self, schedule: &Schedule) -> Model {
        let pos = |r: OpRef| schedule.refs().iter().position(|&s| s == r);
        let rewind = pos(self.rewind);
        let values = self
            .positive_first
            .iter()
            .map(|&r| pos(r) < rewind)
            .collect();
        Model::from_values(values)
    }
}

/// Build the all-RMW restricted instance for a CNF with at most three
/// literals per clause; unit clauses are rewritten first (module docs).
///
/// # Panics
/// Panics if some clause has more than three literals.
pub fn reduce_3sat_rmw(cnf: &Cnf) -> Rmw3SatReduction {
    // Unit clauses become two-literal pairs over fresh variables (module
    // docs); every other clause is kept as it is.
    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(cnf.num_clauses());
    let mut m = cnf.num_vars() as usize;
    for clause in cnf.clauses() {
        assert!(
            clause.len() <= 3,
            "3SAT reduction requires clauses of at most 3 literals"
        );
        if let &[l] = clause.as_slice() {
            let y = Var(m as u32);
            m += 1;
            clauses.extend([vec![l, y.pos()], vec![l, y.neg()]]);
        } else {
            clauses.push(clause.clone());
        }
    }
    let n = clauses.len();

    // Deduplicated occurrence lists per literal (lit -> clause indices).
    let mut occurrences: BTreeMap<Lit, Vec<usize>> = BTreeMap::new();
    for i in 0..m as u32 {
        occurrences.insert(Var(i).pos(), Vec::new());
        occurrences.insert(Var(i).neg(), Vec::new());
    }
    for (j, clause) in clauses.iter().enumerate() {
        for &lit in clause {
            occurrences.get_mut(&lit).expect("declared var").push(j);
        }
    }

    // Value allocator.
    let mut next = 1u64;
    let mut fresh = || {
        let v = Value(next);
        next += 1;
        v
    };
    let b: Vec<Value> = (0..=m).map(|_| fresh()).collect(); // B_1..B_{m+1}
    let t: Vec<Value> = (0..n).map(|_| fresh()).collect();
    let c: Vec<Value> = (0..n).map(|_| fresh()).collect();
    let rewind_token = fresh();
    let final_value = fresh();

    let mut histories: Vec<ProcessHistory> = Vec::new();

    // Spine start: d_I → B_1.
    histories.push(ProcessHistory::from_ops([Op::rw(Value::INITIAL, b[0])]));

    // Variable gadgets.
    let mut positive_first = Vec::with_capacity(cnf.num_vars() as usize);
    for i in 0..m {
        for positive in [true, false] {
            if positive && i < cnf.num_vars() as usize {
                positive_first.push(OpRef::new(histories.len() as u16, 0));
            }
            let lit = Var(i as u32).lit(positive);
            let occ = &occurrences[&lit];
            if occ.is_empty() {
                histories.push(ProcessHistory::from_ops([Op::rw(b[i], b[i + 1])]));
                continue;
            }
            // Chain B_i → X_1 → … → B_{i+1}; second RMW does clause work.
            let mut prev = b[i];
            for (k, &j) in occ.iter().enumerate() {
                let next_val = if k + 1 == occ.len() {
                    b[i + 1]
                } else {
                    fresh()
                };
                histories.push(ProcessHistory::from_ops([
                    Op::rw(prev, next_val),
                    Op::rw(t[j], c[j]),
                ]));
                prev = next_val;
            }
        }
    }

    // Pass A token spine: B_{m+1} → t_1, then c_j → t_{j+1}, ending in R.
    if n == 0 {
        histories.push(ProcessHistory::from_ops([Op::rw(b[m], rewind_token)]));
    } else {
        histories.push(ProcessHistory::from_ops([Op::rw(b[m], t[0])]));
        for j in 0..n {
            let target = if j + 1 == n { rewind_token } else { t[j + 1] };
            histories.push(ProcessHistory::from_ops([Op::rw(c[j], target)]));
        }
    }

    // Rewind: R → B_1 (second pass for the false families).
    let rewind = OpRef::new(histories.len() as u16, 0);
    histories.push(ProcessHistory::from_ops([Op::rw(rewind_token, b[0])]));

    // Pass B: serve the remaining r_j = |c_j| - 1 literal consumers per
    // clause, then end in d_F.
    let pass_b: Vec<usize> = (0..n).filter(|&j| clauses[j].len() > 1).collect();
    if pass_b.is_empty() {
        histories.push(ProcessHistory::from_ops([Op::rw(b[m], final_value)]));
    } else {
        histories.push(ProcessHistory::from_ops([Op::rw(b[m], t[pass_b[0]])]));
        for (a, &j) in pass_b.iter().enumerate() {
            let r_j = clauses[j].len() - 1;
            // Internal producers: r_j - 1 extra t_j instances.
            for _ in 0..r_j.saturating_sub(1) {
                histories.push(ProcessHistory::from_ops([Op::rw(c[j], t[j])]));
            }
            // Out edge to the next pass-B clause, or to the final value.
            let target = if a + 1 == pass_b.len() {
                final_value
            } else {
                t[pass_b[a + 1]]
            };
            histories.push(ProcessHistory::from_ops([Op::rw(c[j], target)]));
        }
    }

    let mut trace = Trace::from_histories(histories);
    trace.set_final(0u32, final_value);
    Rmw3SatReduction {
        trace,
        num_vars: cnf.num_vars(),
        positive_first,
        rewind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_coherence::backtrack::solve_backtracking_ops_with_stats;
    use vermem_coherence::SearchConfig;
    use vermem_trace::classify::{InstanceProfile, OpMix};
    use vermem_trace::{Addr, AddrOps};

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&x| Lit::from_dimacs(x)));
        }
        f
    }

    fn coherent(trace: &Trace) -> bool {
        let ops = AddrOps::of(trace, Addr::ZERO);
        solve_backtracking_ops_with_stats(&ops, &SearchConfig::default())
            .0
            .is_coherent()
    }

    #[test]
    fn meets_figure_5_2_restrictions() {
        let f = cnf(&[&[1, 2, 3], &[-1, -2], &[2, -3], &[3]]);
        let red = reduce_3sat_rmw(&f);
        let profile = InstanceProfile::of_ops(&AddrOps::of(&red.trace, Addr::ZERO));
        assert_eq!(profile.mix, OpMix::RmwOnly, "only RMW operations allowed");
        assert!(
            profile.max_ops_per_proc <= 2,
            "≤2 RMWs per process required"
        );
        assert!(
            profile.max_writes_per_value <= 3,
            "≤3 writes per value required"
        );
    }

    #[test]
    fn satisfiable_instances_are_coherent() {
        for f in [
            cnf(&[&[1]]),
            cnf(&[&[1, 2], &[-1, 2]]),
            cnf(&[&[1, 2, 3], &[-1, -2, -3]]),
            cnf(&[]),
        ] {
            assert!(vermem_sat::solve_cdcl(&f).is_sat());
            let red = reduce_3sat_rmw(&f);
            assert!(
                coherent(&red.trace),
                "SAT formula must reduce to coherent instance"
            );
        }
    }

    #[test]
    fn unsatisfiable_instances_are_incoherent() {
        for f in [
            cnf(&[&[1], &[-1]]),
            cnf(&[&[]]),
            cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]),
        ] {
            assert!(!vermem_sat::solve_cdcl(&f).is_sat());
            let red = reduce_3sat_rmw(&f);
            assert!(
                !coherent(&red.trace),
                "UNSAT formula must reduce to incoherent instance"
            );
        }
    }

    #[test]
    fn equisatisfiable_on_random_3sat() {
        for seed in 0..25u64 {
            let cfg = vermem_sat::random::RandomSatConfig {
                num_vars: 3,
                num_clauses: 3 + (seed % 4) as usize,
                k: 3,
                seed: 500 + seed,
            };
            let f = vermem_sat::random::gen_random_ksat(&cfg);
            let sat = vermem_sat::solve_cdcl(&f).is_sat();
            let red = reduce_3sat_rmw(&f);
            assert_eq!(
                coherent(&red.trace),
                sat,
                "seed {seed}: equisatisfiability violated"
            );
        }
    }

    #[test]
    fn mixed_clause_sizes() {
        let f = cnf(&[&[1], &[-1, 2], &[1, -2, 3], &[-3, -2]]);
        assert!(vermem_sat::solve_cdcl(&f).is_sat());
        let red = reduce_3sat_rmw(&f);
        assert!(coherent(&red.trace));
    }
}
