//! Every small formula through every reduction.
//!
//! For 2 and 3 variables, every CNF formula of one to three distinct
//! clauses, each clause of one to three literals over distinct variables
//! (92 and 2,951 formulas), goes through Figures 4.1, 5.1, 5.2, 6.1 and
//! 6.2. A decider of the target problem decides each instance: the exact
//! VMC search for 4.1, 5.1 and 5.2, the LRC check for 6.1 and the
//! compiled SC model for 6.2. Its verdict must equal CDCL's on the
//! formula, the assignment extracted from every positive witness must
//! satisfy the formula, and the instance's operation count must equal the
//! figure's size formula. The Figure 5.3 classifier must place every
//! Figure 5.1 and 5.2 instance inside its figure's restrictions.
//!
//! Certified SAT is a second decider for Figures 4.1 and 5.2: its verdict
//! on each instance must equal the kernel's. Its refutations carry
//! checked clausal proofs, which cost seconds each on Figure 5.2's
//! unsatisfiable instances in a debug build, so the default run covers
//! Figure 4.1 over two variables and an ignored test (run in release)
//! covers both figures over two and three variables.

use vermem_coherence::backtrack::solve_backtracking_ops_with_stats;
use vermem_coherence::{solve_sat_ops, ExecutionVerdict, SearchConfig, Verdict};
use vermem_consistency::lrc::verify_lrc_fully_synchronized;
use vermem_consistency::{verify_axiom, AxiomConfig, ConsistencyVerdict, ModelId};
use vermem_reductions::lrc::LOCK;
use vermem_reductions::{
    reduce_3sat_restricted, reduce_3sat_rmw, reduce_sat_to_lrc, reduce_sat_to_vmc,
    reduce_sat_to_vscc,
};
use vermem_sat::{solve_cdcl, Cnf, Lit, Model, Var};
use vermem_trace::classify::{InstanceProfile, OpMix};
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

/// The Figure 5.3 classifier's profile of `trace` at address 0, checked
/// against a figure's restrictions: only `mix` operations, at most
/// `ops_per_proc` per process and each value written at most
/// `writes_per_value` times.
fn assert_restricted(
    figure: &str,
    cnf: &Cnf,
    trace: &Trace,
    (mix, ops_per_proc, writes_per_value): (OpMix, usize, usize),
) {
    let profile = InstanceProfile::of_ops(&AddrOps::of(trace, Addr::ZERO));
    assert!(
        profile.mix == mix
            && profile.max_ops_per_proc <= ops_per_proc
            && profile.max_writes_per_value <= writes_per_value,
        "Figure {figure} leaves its restrictions on {:?}: {profile:?}",
        cnf.clauses()
    );
}

/// `m`, `n` and the total literal count `L` of `cnf`.
fn shape(cnf: &Cnf) -> (usize, usize, usize) {
    let literals = cnf.clauses().iter().map(Vec::len).sum();
    (cnf.num_vars() as usize, cnf.num_clauses(), literals)
}

/// Run every formula over `vars` variables through `reduce_and_decide`,
/// which returns the instance's operation count and the assignment
/// extracted from its witness, or `None` when the instance has none: the
/// count must equal `size` of the formula, the verdict must match CDCL,
/// and an assignment must satisfy the formula.
fn check(
    figure: &str,
    vars: u32,
    size: impl Fn(&Cnf) -> usize,
    reduce_and_decide: impl Fn(&Cnf) -> (usize, Option<Model>),
) {
    let formulas = all_formulas(vars);
    let mut wrong = Vec::new();
    for cnf in &formulas {
        let sat = solve_cdcl(cnf).is_sat();
        let (ops, model) = reduce_and_decide(cnf);
        if ops != size(cnf) {
            wrong.push(format!(
                "{:?} has {ops} ops, not {}",
                cnf.clauses(),
                size(cnf)
            ));
        }
        match model {
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

/// Figure 4.1's size: `h₁` and `h₂` write one value per variable (2m),
/// each of the 2m literal histories reads two values and writes one per
/// clause it is in (4m + L), and `h₃` reads each clause value and
/// rewrites every variable value (n + 2m).
fn figure_4_1_size(cnf: &Cnf) -> usize {
    let (m, n, l) = shape(cnf);
    8 * m + n + l
}

#[test]
fn formula_counts() {
    assert_eq!(all_formulas(2).len(), 92);
    assert_eq!(all_formulas(3).len(), 2951);
}

#[test]
fn figure_4_1_on_every_small_formula() {
    for vars in [2, 3] {
        check("4.1", vars, figure_4_1_size, |cnf| {
            let red = reduce_sat_to_vmc(cnf);
            let model = decide(&red.trace).map(|s| red.extract_assignment(&s));
            (red.trace.num_ops(), model)
        });
    }
}

/// Figure 5.1's size: `h₁` and `h₂` (2m writes), three operations per
/// literal occurrence (3L), the clause funnels (2, 6 or 8 operations for
/// a clause of 1, 2 or 3 literals), the chain (2 operations, then 3 per
/// further clause) and one read and two writes per variable's rewrite
/// (3m).
fn figure_5_1_size(cnf: &Cnf) -> usize {
    let (m, n, l) = shape(cnf);
    let funnels: usize = cnf.clauses().iter().map(|c| [0, 2, 6, 8][c.len()]).sum();
    5 * m + 3 * l + funnels + 3 * n - 1
}

#[test]
fn figure_5_1_on_every_small_formula() {
    for vars in [2, 3] {
        check("5.1", vars, figure_5_1_size, |cnf| {
            let red = reduce_3sat_restricted(cnf);
            assert_restricted("5.1", cnf, &red.trace, (OpMix::SimpleOnly, 3, 2));
            let model = decide(&red.trace).map(|s| red.extract_assignment(&s));
            (red.trace.num_ops(), model)
        });
    }
}

/// Figure 5.2's size. Each of the `u` unit clauses becomes two
/// two-literal clauses over a fresh variable, so `L' = L + 3u` literal
/// occurrences remain, every clause has two or more literals, and a
/// literal without occurrences is one of the `z` original literals the
/// formula never uses. The instance is the spine start, two RMWs per
/// occurrence and one per unused literal (2L' + z), pass A's spine
/// (n' + 1), the rewind, and pass B (L' − n' + 1): 3L' + z + 4.
fn figure_5_2_size(cnf: &Cnf) -> usize {
    let (m, _, l) = shape(cnf);
    let units = cnf.clauses().iter().filter(|c| c.len() == 1).count();
    let unused = (0..m as u32)
        .flat_map(|v| [Var(v).pos(), Var(v).neg()])
        .filter(|lit| !cnf.clauses().iter().any(|c| c.contains(lit)))
        .count();
    3 * (l + 3 * units) + unused + 4
}

#[test]
fn figure_5_2_on_every_small_formula() {
    for vars in [2, 3] {
        check("5.2", vars, figure_5_2_size, |cnf| {
            let red = reduce_3sat_rmw(cnf);
            assert_restricted("5.2", cnf, &red.trace, (OpMix::RmwOnly, 2, 3));
            let model = decide(&red.trace).map(|s| red.extract_assignment(&s));
            (red.trace.num_ops(), model)
        });
    }
}

/// Figure 6.1 wraps each of Figure 4.1's operations in an acquire and a
/// release of one lock; the count is of memory and synchronization
/// operations together. The LRC check decides the instance, and the
/// assignment comes from its schedule at Figure 4.1's one address.
#[test]
fn figure_6_1_on_every_small_formula() {
    for vars in [2, 3] {
        check(
            "6.1",
            vars,
            |cnf| 3 * figure_4_1_size(cnf),
            |cnf| {
                let red = reduce_sat_to_lrc(cnf);
                let ops = red
                    .sync_trace
                    .histories()
                    .iter()
                    .map(|h| h.ops().len())
                    .sum();
                let verdict = verify_lrc_fully_synchronized(&red.sync_trace, LOCK)
                    .expect("the construction is fully synchronized");
                let model = match verdict {
                    ExecutionVerdict::Coherent(schedules) => {
                        Some(red.vmc.extract_assignment(&schedules[&Addr::ZERO]))
                    }
                    ExecutionVerdict::Incoherent(_) => None,
                    ExecutionVerdict::Unknown { .. } => panic!("the LRC check has no budget"),
                };
                (ops, model)
            },
        );
    }
}

/// Figure 6.2's size: `h₁` and `h₂` each write every variable twice and
/// read the gate (2m + 1 each), the literal histories as in Figure 4.1
/// (4m + L), and `h₃` reads every clause address and writes the gate
/// (n + 1). The compiled SC model decides the instance.
#[test]
fn figure_6_2_on_every_small_formula() {
    let size = |cnf: &Cnf| {
        let (m, n, l) = shape(cnf);
        8 * m + l + n + 3
    };
    for vars in [2, 3] {
        check("6.2", vars, size, |cnf| {
            let red = reduce_sat_to_vscc(cnf);
            let model = match verify_axiom(&red.trace, ModelId::Sc, &AxiomConfig::default()).verdict
            {
                ConsistencyVerdict::Consistent(s) => Some(red.extract_assignment(&s)),
                ConsistencyVerdict::Violating(_) => None,
                ConsistencyVerdict::Unknown { .. } => panic!("the SC search has no budget"),
            };
            (red.trace.num_ops(), model)
        });
    }
}

/// Certified SAT ([`solve_sat_ops`]: a checked witness, or a refutation
/// whose clausal proof the RUP checker accepts) as a second decider: on
/// every formula over `vars` variables, its verdict on the instance
/// `reduce` builds must equal the kernel's.
fn check_second_decider(figure: &str, vars: u32, reduce: impl Fn(&Cnf) -> Trace) {
    let formulas = all_formulas(vars);
    let mut wrong = Vec::new();
    for cnf in &formulas {
        let trace = reduce(cnf);
        let kernel = decide(&trace).is_some();
        let sat = solve_sat_ops(&AddrOps::of(&trace, Addr::ZERO)).is_coherent();
        if kernel != sat {
            wrong.push(format!(
                "{:?}: kernel coherent {kernel}, SAT coherent {sat}",
                cnf.clauses()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "Figure {figure}, {vars} variables: the deciders disagree on {} of {} formulas, first: {}",
        wrong.len(),
        formulas.len(),
        wrong[0]
    );
}

#[test]
fn certified_sat_agrees_with_the_kernel_on_figure_4_1_over_two_variables() {
    check_second_decider("4.1", 2, |cnf| reduce_sat_to_vmc(cnf).trace);
}

/// The second decider on every formula of two and three variables for
/// Figures 4.1 and 5.2. The refutations' proof checks dominate: about
/// 80 s in a release build, and minutes in a debug one (Figure 4.1 at
/// three variables alone takes about two), so the test is ignored by
/// default and `scripts/verify.sh` runs it in release:
/// `cargo test --release -p vermem-reductions --test exhaustive_small --
/// --ignored`. Figure 5.1 is left out: its instances are the largest
/// encodings, about 110 s more in release.
#[test]
#[ignore = "minutes in a debug build; scripts/verify.sh runs it in release"]
fn certified_sat_agrees_with_the_kernel_on_figures_4_1_and_5_2() {
    for vars in [2, 3] {
        check_second_decider("4.1", vars, |cnf| reduce_sat_to_vmc(cnf).trace);
        check_second_decider("5.2", vars, |cnf| reduce_3sat_rmw(cnf).trace);
    }
}
