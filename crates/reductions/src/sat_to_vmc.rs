//! The Figure 4.1 reduction: SAT → VMC (Theorem 4.2).
//!
//! Given a SAT instance `Q` with variables `U` and clauses `C`, build a
//! single-address VMC instance `V` that is coherent iff `Q` is satisfiable:
//!
//! * two data values `d_u`, `d_ū` encode each variable's truth as the order
//!   in which they are first written (equation 4.1);
//! * `h₁` writes every `d_u`, `h₂` every `d_ū`; their interleaving fixes a
//!   truth assignment;
//! * one history per literal reads the two values in the order that makes
//!   the literal *true*, then writes `d_c` for each clause the literal
//!   appears in;
//! * `h₃` reads every `d_c` (so it is schedulable only when every clause is
//!   satisfied), then rewrites all `d_u`/`d_ū` so the remaining (false-
//!   literal) histories can complete.
//!
//! For `m` variables and `n` clauses the instance has `2m + 3` process
//! histories and `O(mn)` operations.

use vermem_sat::{Cnf, Model, Var};
use vermem_trace::{Op, OpRef, ProcessHistory, Schedule, Trace, Value};

/// The constructed VMC instance together with the bookkeeping needed to
/// map schedules back to truth assignments.
pub struct VmcReduction {
    /// The single-address VMC instance (address 0).
    pub trace: Trace,
    /// Number of SAT variables `m`.
    pub num_vars: u32,
    /// `h₁`'s write of `d_u` for each variable (program order ref).
    pub h1_write: Vec<OpRef>,
    /// `h₂`'s write of `d_ū` for each variable.
    pub h2_write: Vec<OpRef>,
}

/// `d_u` for variable `i` (1-based value namespace; 0 is `d_I`).
pub fn d_pos(i: u32) -> Value {
    Value(1 + 2 * u64::from(i))
}

/// `d_ū` for variable `i`.
pub fn d_neg(i: u32) -> Value {
    Value(2 + 2 * u64::from(i))
}

/// `d_c` for clause `j`, clear of the variable value namespace.
pub fn d_clause(num_vars: u32, j: usize) -> Value {
    Value(1 + 2 * u64::from(num_vars) + j as u64)
}

/// Build the Figure 4.1 instance for `cnf`.
///
/// Clauses are used as given except that duplicate literals are collapsed;
/// an empty clause yields an unsatisfiable instance (its `d_c` is never
/// written), matching SAT semantics.
pub fn reduce_sat_to_vmc(cnf: &Cnf) -> VmcReduction {
    let m = cnf.num_vars();
    let mut histories: Vec<ProcessHistory> = Vec::with_capacity(2 * m as usize + 3);

    // h1: W(d_u) for every variable, in order.
    let h1: ProcessHistory = (0..m).map(|i| Op::w(d_pos(i))).collect();
    // h2: W(d_ū) for every variable.
    let h2: ProcessHistory = (0..m).map(|i| Op::w(d_neg(i))).collect();
    histories.push(h1);
    histories.push(h2);

    // Literal histories: for literal `u` read d_u then d_ū (that order holds
    // iff the literal is true), then write d_c for each clause it appears
    // in. Complemented literals read in the opposite order.
    for i in 0..m {
        for positive in [true, false] {
            let (first, second) = if positive {
                (d_pos(i), d_neg(i))
            } else {
                (d_neg(i), d_pos(i))
            };
            let mut h = ProcessHistory::new();
            h.push(Op::r(first));
            h.push(Op::r(second));
            for (j, clause) in cnf.clauses().iter().enumerate() {
                let lit = Var(i).lit(positive);
                if clause.contains(&lit) {
                    h.push(Op::w(d_clause(m, j)));
                }
            }
            histories.push(h);
        }
    }

    // h3: read every clause value, then rewrite all variable values.
    let mut h3 = ProcessHistory::new();
    for j in 0..cnf.num_clauses() {
        h3.push(Op::r(d_clause(m, j)));
    }
    for i in 0..m {
        h3.push(Op::w(d_pos(i)));
    }
    for i in 0..m {
        h3.push(Op::w(d_neg(i)));
    }
    histories.push(h3);

    let trace = Trace::from_histories(histories);
    let h1_write = (0..m).map(|i| OpRef::new(0u16, i)).collect();
    let h2_write = (0..m).map(|i| OpRef::new(1u16, i)).collect();
    VmcReduction {
        trace,
        num_vars: m,
        h1_write,
        h2_write,
    }
}

impl VmcReduction {
    /// Extract the truth assignment encoded by a coherent schedule
    /// (equation 4.1): `T(u) = true` iff `h₁`'s `W(d_u)` precedes `h₂`'s
    /// `W(d_ū)`.
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

/// The worked example of Figure 4.2: the instance for `Q = u` (one
/// variable, one unit clause containing the positive literal).
pub fn example_fig_4_2() -> VmcReduction {
    let mut cnf = Cnf::new();
    let u = cnf.new_var();
    cnf.add_clause([u.pos()]);
    reduce_sat_to_vmc(&cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_coherence::backtrack::solve_backtracking_ops_with_stats;
    use vermem_coherence::{solve_sat_ops, SearchConfig, Verdict};
    use vermem_sat::random::{gen_forced_sat, RandomSatConfig};
    use vermem_sat::{solve_cdcl, Lit};
    use vermem_trace::{Addr, AddrOps};

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&x| Lit::from_dimacs(x)));
        }
        f
    }

    fn vmc_coherent(trace: &Trace) -> Verdict {
        let ops = AddrOps::of(trace, Addr::ZERO);
        solve_backtracking_ops_with_stats(&ops, &SearchConfig::default()).0
    }

    #[test]
    fn figure_4_2_shape() {
        let red = example_fig_4_2();
        let t = &red.trace;
        // H = {h1, h2, hu, hū, h3}: 2m+3 = 5 histories.
        assert_eq!(t.num_procs(), 5);
        // h1 = [W(d_u)], h2 = [W(d_ū)].
        assert_eq!(t.histories()[0].ops(), &[Op::w(d_pos(0))]);
        assert_eq!(t.histories()[1].ops(), &[Op::w(d_neg(0))]);
        // h_u = [R(d_u), R(d_ū), W(d_c)].
        assert_eq!(
            t.histories()[2].ops(),
            &[Op::r(d_pos(0)), Op::r(d_neg(0)), Op::w(d_clause(1, 0))]
        );
        // h_ū = [R(d_ū), R(d_u)].
        assert_eq!(t.histories()[3].ops(), &[Op::r(d_neg(0)), Op::r(d_pos(0))]);
        // h3 = [R(d_c), W(d_u), W(d_ū)].
        assert_eq!(
            t.histories()[4].ops(),
            &[Op::r(d_clause(1, 0)), Op::w(d_pos(0)), Op::w(d_neg(0))]
        );
    }

    #[test]
    fn figure_4_2_is_coherent_and_orders_du_first() {
        let red = example_fig_4_2();
        let verdict = vmc_coherent(&red.trace);
        let schedule = verdict.schedule().expect("Q = u is satisfiable");
        // The paper: a coherent schedule exists iff W(d_u) precedes W(d_ū).
        let model = red.extract_assignment(schedule);
        assert_eq!(model.value(vermem_sat::Var(0)), Some(true));
    }

    #[test]
    fn instance_size_matches_paper() {
        // 2m+3 histories, O(mn) operations.
        let f = cnf(&[&[1, 2, 3], &[-1, -2], &[2, -3]]);
        let red = reduce_sat_to_vmc(&f);
        assert_eq!(red.trace.num_procs(), 2 * 3 + 3);
        let m = 3u64;
        let n = 3u64;
        assert!((red.trace.num_ops() as u64) <= 4 * m + 3 * n + 3 * m * n + 3);
    }

    #[test]
    fn unsatisfiable_formulas_reduce_to_incoherent_instances() {
        for f in [
            cnf(&[&[1], &[-1]]),
            cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]),
            cnf(&[&[]]),
        ] {
            assert!(!solve_cdcl(&f).is_sat(), "formula should be UNSAT");
            let red = reduce_sat_to_vmc(&f);
            assert!(
                vmc_coherent(&red.trace).is_incoherent(),
                "reduction of UNSAT formula must be incoherent"
            );
        }
    }

    #[test]
    fn satisfiable_formulas_reduce_to_coherent_instances() {
        let forced =
            (3..=5u32).map(|m| gen_forced_sat(&RandomSatConfig::three_sat(m, 3.0, m.into())));
        for f in [
            cnf(&[&[1]]),
            cnf(&[&[1, 2], &[-1, 2], &[1, -2]]),
            cnf(&[&[1, 2, 3], &[-1, -2, -3], &[1, -2, 3]]),
        ]
        .into_iter()
        .chain(forced)
        {
            assert!(solve_cdcl(&f).is_sat(), "formula should be SAT");
            let red = reduce_sat_to_vmc(&f);
            assert!(vmc_coherent(&red.trace).is_coherent());
            assert!(solve_sat_ops(&AddrOps::of(&red.trace, Addr::ZERO)).is_coherent());
        }
    }

    #[test]
    fn extracted_assignments_satisfy_the_formula() {
        for seed in 0..30u64 {
            let cfg = vermem_sat::random::RandomSatConfig {
                num_vars: 4,
                num_clauses: 8,
                k: 3,
                seed,
            };
            let f = vermem_sat::random::gen_random_ksat(&cfg);
            let red = reduce_sat_to_vmc(&f);
            if let Verdict::Coherent(s) = vmc_coherent(&red.trace) {
                let model = red.extract_assignment(&s);
                assert_eq!(
                    f.eval(&model),
                    Some(true),
                    "extracted assignment must satisfy (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn equisatisfiable_on_random_instances() {
        for seed in 0..40u64 {
            let cfg = vermem_sat::random::RandomSatConfig {
                num_vars: 3 + (seed % 3) as u32,
                num_clauses: 4 + (seed % 5) as usize,
                k: 2 + (seed % 2) as usize,
                seed,
            };
            let f = vermem_sat::random::gen_random_ksat(&cfg);
            let sat = solve_cdcl(&f).is_sat();
            let red = reduce_sat_to_vmc(&f);
            let coherent = vmc_coherent(&red.trace).is_coherent();
            assert_eq!(
                sat, coherent,
                "seed {seed}: SAT={sat} but coherent={coherent}"
            );
        }
    }
}
