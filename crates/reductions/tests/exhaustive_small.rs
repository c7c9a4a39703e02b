//! Every small formula through the VMC reductions.
//!
//! For 2 and 3 variables, every CNF formula of one to three distinct
//! clauses, each clause of one to three literals over distinct variables
//! (92 and 2,951 formulas), goes through Figures 4.1, 5.1 and 5.2. The
//! exact search decides each instance; its verdict must equal CDCL's on
//! the formula, and the assignment extracted from every coherent witness
//! must satisfy the formula.

use vermem_coherence::backtrack::solve_backtracking_ops_with_stats;
use vermem_coherence::{SearchConfig, Verdict};
use vermem_reductions::{reduce_3sat_restricted, reduce_3sat_rmw, reduce_sat_to_vmc};
use vermem_sat::{solve_cdcl, Cnf, Lit, Model, Var};
use vermem_trace::{Addr, AddrOps, Schedule, Trace};

/// Every clause over `vars` variables: one to three literals on distinct
/// variables, in a fixed order.
fn all_clauses(vars: u32) -> Vec<Vec<Lit>> {
    let mut out = Vec::new();
    for mask in 1u32..1 << vars {
        let picked: Vec<u32> = (0..vars).filter(|v| mask >> v & 1 == 1).collect();
        if picked.len() > 3 {
            continue;
        }
        for signs in 0u32..1 << picked.len() {
            let clause = picked
                .iter()
                .enumerate()
                .map(|(k, &v)| Var(v).lit(signs >> k & 1 == 0))
                .collect();
            out.push(clause);
        }
    }
    out
}

/// Every formula of one to three distinct clauses over `vars` variables.
fn all_formulas(vars: u32) -> Vec<Cnf> {
    let clauses = all_clauses(vars);
    let k = clauses.len();
    let mut picks: Vec<Vec<usize>> = (0..k).map(|a| vec![a]).collect();
    picks.extend((0..k).flat_map(|a| (a + 1..k).map(move |b| vec![a, b])));
    picks.extend(
        (0..k).flat_map(|a| (a + 1..k).flat_map(move |b| (b + 1..k).map(move |c| vec![a, b, c]))),
    );
    picks
        .into_iter()
        .map(|pick| {
            let mut cnf = Cnf::new();
            cnf.new_vars(vars as usize);
            for j in pick {
                cnf.add_clause(clauses[j].iter().copied());
            }
            cnf
        })
        .collect()
}

/// The exact search's verdict on `trace` at address 0: its witness, or
/// `None` when incoherent.
fn decide(trace: &Trace) -> Option<Schedule> {
    let ops = AddrOps::of(trace, Addr::ZERO);
    match solve_backtracking_ops_with_stats(&ops, &SearchConfig::default()).0 {
        Verdict::Coherent(schedule) => Some(schedule),
        Verdict::Incoherent(_) => None,
        Verdict::Unknown => panic!("the search has no budget, so it never answers Unknown"),
    }
}

/// Run every formula over `vars` variables through `reduce_and_decide`,
/// which returns the assignment extracted from the instance's witness or
/// `None` when the instance is incoherent: that must match CDCL, and an
/// assignment must satisfy the formula.
fn check(figure: &str, vars: u32, reduce_and_decide: impl Fn(&Cnf) -> Option<Model>) {
    let formulas = all_formulas(vars);
    let mut wrong = Vec::new();
    for cnf in &formulas {
        let sat = solve_cdcl(cnf).is_sat();
        match reduce_and_decide(cnf) {
            Some(model) if !sat || cnf.eval(&model) != Some(true) => {
                wrong.push(format!("{:?} coherent, sat: {sat}", cnf.clauses()))
            }
            None if sat => wrong.push(format!("{:?} refuted but satisfiable", cnf.clauses())),
            _ => {}
        }
    }
    assert!(
        wrong.is_empty(),
        "Figure {figure}, {vars} variables: {} of {} formulas wrong, first: {}",
        wrong.len(),
        formulas.len(),
        wrong[0]
    );
}

#[test]
fn formula_counts() {
    assert_eq!(all_formulas(2).len(), 92);
    assert_eq!(all_formulas(3).len(), 2951);
}

#[test]
fn figure_4_1_on_every_small_formula() {
    for vars in [2, 3] {
        check("4.1", vars, |cnf| {
            let red = reduce_sat_to_vmc(cnf);
            decide(&red.trace).map(|s| red.extract_assignment(&s))
        });
    }
}

#[test]
fn figure_5_1_on_every_small_formula() {
    for vars in [2, 3] {
        check("5.1", vars, |cnf| {
            let red = reduce_3sat_restricted(cnf);
            decide(&red.trace).map(|s| red.extract_assignment(&s))
        });
    }
}

#[test]
fn figure_5_2_on_every_small_formula() {
    for vars in [2, 3] {
        check("5.2", vars, |cnf| {
            let red = reduce_3sat_rmw(cnf);
            decide(&red.trace).map(|s| red.extract_assignment(&s))
        });
    }
}
