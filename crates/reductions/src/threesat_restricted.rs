//! The Figure 5.1 reduction: 3SAT → VMC with **at most three simple
//! operations per process** and **every value written at most twice**.
//!
//! The published figure is partially corrupted in the source text, so this
//! is a reconstruction that provably meets the same two restrictions and is
//! equisatisfiable (validated differentially in the tests). Structure:
//!
//! * `h₁`/`h₂` are split into ⌈m/3⌉ histories of ≤3 writes each, writing
//!   `d_u` / `d_ū` respectively — their interleaving fixes the assignment.
//! * One history per **literal occurrence** (`u` as the k-th literal of
//!   clause `c_j`): `[R(d_u), R(d_ū), W(d_{j,k})]` — schedulable before the
//!   rewrite phase iff the literal is true.
//! * Per clause `j`, a **funnel** converts any position seed into a single
//!   canonical value `out_j` without exceeding two writes per value:
//!   `[R(d_{j,1}), W(m_j)]`, `[R(d_{j,2}), W(m_j)]`, `[R(m_j), W(out_j)]`,
//!   `[R(d_{j,3}), W(out_j)]`.
//! * A **chain** `[R(chain_{j-1}), R(out_j), W(chain_j)]` forces `chain_n`
//!   to be producible only when *every* clause has been satisfied.
//! * Per variable, a rewrite history `[R(chain_n), W(d_u), W(d_ū)]` then
//!   unblocks the false-literal histories.
//!
//! Write counts: `d_u`/`d_ū` twice (`h₁`/`h₂` + rewrite); `d_{j,k}` once;
//! `m_j` ≤ twice; `out_j` ≤ twice; `chain_j` once. Every history has ≤ 3
//! operations. Both Figure 5.3 NP-complete rows are therefore witnessed by
//! a single construction, as the paper notes.

use vermem_sat::{Cnf, Lit, Var};
use vermem_trace::{Op, ProcessHistory, Trace, Value};

/// The constructed restricted instance.
pub struct Restricted3SatReduction {
    /// The single-address VMC instance.
    pub trace: Trace,
    /// Number of SAT variables.
    pub num_vars: u32,
}

struct ValueSpace {
    m: u64,
    n: u64,
}

impl ValueSpace {
    fn d_pos(&self, i: u32) -> Value {
        Value(1 + 2 * u64::from(i))
    }
    fn d_neg(&self, i: u32) -> Value {
        Value(2 + 2 * u64::from(i))
    }
    /// Position value `d_{j,k}` for clause j (0-based), position k (0..3).
    fn d_clause_pos(&self, j: usize, k: usize) -> Value {
        Value(1 + 2 * self.m + (j as u64) * 3 + k as u64)
    }
    fn d_merge(&self, j: usize) -> Value {
        Value(1 + 2 * self.m + 3 * self.n + j as u64)
    }
    fn d_out(&self, j: usize) -> Value {
        Value(1 + 2 * self.m + 4 * self.n + j as u64)
    }
    fn d_chain(&self, j: usize) -> Value {
        Value(1 + 2 * self.m + 5 * self.n + j as u64)
    }
}

/// Build the restricted instance for a CNF with at most three literals per
/// clause.
///
/// # Panics
/// Panics if some clause has more than three literals.
pub fn reduce_3sat_restricted(cnf: &Cnf) -> Restricted3SatReduction {
    for clause in cnf.clauses() {
        assert!(
            clause.len() <= 3,
            "3SAT reduction requires clauses of at most 3 literals"
        );
    }
    let m = cnf.num_vars();
    let n = cnf.num_clauses();
    let vs = ValueSpace {
        m: u64::from(m),
        n: n as u64,
    };
    let mut histories: Vec<ProcessHistory> = Vec::new();

    // h1 groups: ≤3 writes of d_u per history.
    for chunk in (0..m).collect::<Vec<_>>().chunks(3) {
        histories.push(chunk.iter().map(|&i| Op::w(vs.d_pos(i))).collect());
    }
    // h2 groups.
    for chunk in (0..m).collect::<Vec<_>>().chunks(3) {
        histories.push(chunk.iter().map(|&i| Op::w(vs.d_neg(i))).collect());
    }

    // Literal-occurrence histories.
    for (j, clause) in cnf.clauses().iter().enumerate() {
        for (k, &lit) in clause.iter().enumerate() {
            let i = lit.var().0;
            let (first, second) = if lit.is_pos() {
                (vs.d_pos(i), vs.d_neg(i))
            } else {
                (vs.d_neg(i), vs.d_pos(i))
            };
            histories.push(ProcessHistory::from_ops([
                Op::r(first),
                Op::r(second),
                Op::w(vs.d_clause_pos(j, k)),
            ]));
        }
    }

    // Clause funnels.
    for (j, clause) in cnf.clauses().iter().enumerate() {
        match clause.len() {
            0 => {
                // Empty clause: out_j has no producer; the chain history
                // below blocks forever, making the instance incoherent —
                // matching unsatisfiability.
            }
            1 => {
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_clause_pos(j, 0)),
                    Op::w(vs.d_out(j)),
                ]));
            }
            2 => {
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_clause_pos(j, 0)),
                    Op::w(vs.d_merge(j)),
                ]));
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_clause_pos(j, 1)),
                    Op::w(vs.d_merge(j)),
                ]));
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_merge(j)),
                    Op::w(vs.d_out(j)),
                ]));
            }
            _ => {
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_clause_pos(j, 0)),
                    Op::w(vs.d_merge(j)),
                ]));
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_clause_pos(j, 1)),
                    Op::w(vs.d_merge(j)),
                ]));
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_merge(j)),
                    Op::w(vs.d_out(j)),
                ]));
                histories.push(ProcessHistory::from_ops([
                    Op::r(vs.d_clause_pos(j, 2)),
                    Op::w(vs.d_out(j)),
                ]));
            }
        }
    }

    // The clause chain: chain_j requires chain_{j-1} and out_j.
    for j in 0..n {
        let mut h = ProcessHistory::new();
        if j > 0 {
            h.push(Op::r(vs.d_chain(j - 1)));
        }
        h.push(Op::r(vs.d_out(j)));
        h.push(Op::w(vs.d_chain(j)));
        histories.push(h);
    }

    // Per-variable rewrite histories, gated on chain_n (or ungated if there
    // are no clauses).
    for i in 0..m {
        let mut h = ProcessHistory::new();
        if n > 0 {
            h.push(Op::r(vs.d_chain(n - 1)));
        }
        h.push(Op::w(vs.d_pos(i)));
        h.push(Op::w(vs.d_neg(i)));
        histories.push(h);
    }

    Restricted3SatReduction {
        trace: Trace::from_histories(histories),
        num_vars: m,
    }
}

/// Check whether a literal occurs in a clause (used by tests).
pub fn clause_contains(clause: &[Lit], var: Var, positive: bool) -> bool {
    clause.contains(&var.lit(positive))
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
    fn meets_figure_5_1_restrictions() {
        let f = cnf(&[&[1, 2, 3], &[-1, -2], &[2, -3], &[3]]);
        let red = reduce_3sat_restricted(&f);
        let profile = InstanceProfile::of_ops(&AddrOps::of(&red.trace, Addr::ZERO));
        assert!(profile.max_ops_per_proc <= 3, "≤3 ops per process required");
        assert!(
            profile.max_writes_per_value <= 2,
            "≤2 writes per value required"
        );
        assert_eq!(profile.mix, OpMix::SimpleOnly);
    }

    #[test]
    fn satisfiable_instances_are_coherent() {
        for f in [
            cnf(&[&[1]]),
            cnf(&[&[1, 2], &[-1, 2]]),
            cnf(&[&[1, 2, 3], &[-1, -2, -3], &[1, -2, 3], &[-1, 2, -3]]),
        ] {
            assert!(vermem_sat::solve_cdcl(&f).is_sat());
            let red = reduce_3sat_restricted(&f);
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
            let red = reduce_3sat_restricted(&f);
            assert!(
                !coherent(&red.trace),
                "UNSAT formula must reduce to incoherent instance"
            );
        }
    }

    #[test]
    fn equisatisfiable_on_random_3sat() {
        // Instance sizes are kept small: the reduced instances land in the
        // NP-complete cell of Figure 5.3 and the exact solver's worst case
        // is exponential (see the fig5_reductions bench for the blow-up).
        for seed in 0..20u64 {
            let cfg = vermem_sat::random::RandomSatConfig {
                num_vars: 2,
                num_clauses: 3 + (seed % 3) as usize,
                k: 2,
                seed,
            };
            let f = vermem_sat::random::gen_random_ksat(&cfg);
            let sat = vermem_sat::solve_cdcl(&f).is_sat();
            let red = reduce_3sat_restricted(&f);
            assert_eq!(
                coherent(&red.trace),
                sat,
                "seed {seed}: equisatisfiability violated"
            );
        }
    }

    #[test]
    fn short_clauses_supported() {
        let f = cnf(&[&[1], &[-1, 2], &[1, -2, 3]]);
        let red = reduce_3sat_restricted(&f);
        assert!(coherent(&red.trace));
        let profile = InstanceProfile::of_ops(&AddrOps::of(&red.trace, Addr::ZERO));
        assert!(profile.max_writes_per_value <= 2);
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn rejects_wide_clauses() {
        let f = cnf(&[&[1, 2, 3, 4]]);
        reduce_3sat_restricted(&f);
    }
}
