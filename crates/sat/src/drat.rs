//! Clausal proof logging and checking (DRAT-style, RUP lemmas).
//!
//! A CDCL "unsatisfiable" answer is a claim; a **clausal proof** makes it
//! independently checkable. The solver (with proof logging enabled) emits
//! every learnt clause in derivation order, ending with the empty clause.
//! [`check_unsat_proof`] then validates each lemma by **reverse unit
//! propagation** (RUP): asserting the negation of the lemma and unit-
//! propagating over the original formula plus previously-checked lemmas
//! must yield a conflict. First-UIP learnt clauses (including locally
//! minimized ones) are always RUP, so every proof this solver emits checks.
//!
//! The checker shares no code with the solver's propagation engine — it is
//! a deliberately simple propagator that rescans every clause until a scan
//! assigns nothing — so a bug would have to exist twice, independently, to
//! slip through. That simplicity has a price: each lemma costs one scan of
//! every clause and earlier lemma per propagation round, so checking a
//! proof costs lemmas × rounds × literals (see [`check_unsat_proof`]).

use crate::cnf::Cnf;
use crate::lit::{LBool, Lit};

/// A clausal proof: learnt clauses in derivation order. An empty clause
/// (empty `Vec`) terminates a refutation.
pub type Proof = Vec<Vec<Lit>>;

/// Outcome of proof checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofCheck {
    /// Every lemma is RUP and the proof derives the empty clause.
    Valid,
    /// Lemma `index` is not RUP with respect to the formula and the
    /// preceding lemmas.
    LemmaNotRup {
        /// Index of the failing lemma within the proof.
        index: usize,
    },
    /// The proof never derives the empty clause, so it refutes nothing.
    NoEmptyClause,
}

/// Check a refutation proof for `cnf`. Each lemma's RUP check rescans the
/// formula and every earlier lemma once per propagation round, until a
/// round assigns nothing or finds a conflict: O(rounds × L) for a lemma,
/// where L is the total literal count of the formula and the earlier
/// lemmas, and a round may assign as little as one variable, so rounds
/// can reach the variable count. A refutation costs the sum over its
/// lemmas.
pub fn check_unsat_proof(cnf: &Cnf, proof: &Proof) -> ProofCheck {
    let mut clauses: Vec<Vec<Lit>> = cnf.clauses().to_vec();
    let mut derived_empty = clauses.iter().any(Vec::is_empty);
    let num_vars = cnf.num_vars().max(
        proof
            .iter()
            .flatten()
            .map(|l| l.var().0 + 1)
            .max()
            .unwrap_or(0),
    ) as usize;

    for (index, lemma) in proof.iter().enumerate() {
        if derived_empty {
            break; // already refuted; trailing lemmas are irrelevant
        }
        if !is_rup(&clauses, num_vars, lemma) {
            return ProofCheck::LemmaNotRup { index };
        }
        if lemma.is_empty() {
            derived_empty = true;
        }
        clauses.push(lemma.clone());
    }
    if derived_empty {
        ProofCheck::Valid
    } else {
        ProofCheck::NoEmptyClause
    }
}

/// Reverse unit propagation: does asserting ¬lemma propagate to a conflict?
fn is_rup(clauses: &[Vec<Lit>], num_vars: usize, lemma: &[Lit]) -> bool {
    let mut assign = vec![LBool::Undef; num_vars];
    let mut queue: Vec<Lit> = Vec::new();
    for &l in lemma {
        // Assert the negation of each lemma literal.
        let nl = !l;
        match assign[nl.var().index()].of_lit(nl) {
            LBool::False => return true, // ¬lemma is itself contradictory
            LBool::True => {}
            LBool::Undef => {
                assign[nl.var().index()] = LBool::from_bool(nl.is_pos());
                queue.push(nl);
            }
        }
    }

    // Naive propagation to fixpoint: scan all clauses repeatedly. Simple
    // and obviously correct — the point of an independent checker.
    loop {
        let mut progressed = false;
        for clause in clauses {
            let mut unassigned: Option<Lit> = None;
            let mut count = 0;
            let mut satisfied = false;
            for &lit in clause {
                match assign[lit.var().index()].of_lit(lit) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => {
                        unassigned = Some(lit);
                        count += 1;
                    }
                }
            }
            if satisfied {
                continue;
            }
            match (count, unassigned) {
                (0, _) => return true, // conflict reached
                (1, Some(lit)) => {
                    assign[lit.var().index()] = LBool::from_bool(lit.is_pos());
                    progressed = true;
                }
                _ => {}
            }
        }
        if !progressed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::SatResult;
    use crate::solver::CdclSolver;

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&x| Lit::from_dimacs(x)));
        }
        f
    }

    fn prove_unsat(f: &Cnf) -> Proof {
        let mut s = CdclSolver::new(f);
        s.enable_proof_logging();
        assert_eq!(s.solve(), SatResult::Unsat);
        s.take_proof().expect("logging enabled")
    }

    #[test]
    fn trivial_refutation_checks() {
        let f = cnf(&[&[1], &[-1]]);
        let proof = prove_unsat(&f);
        assert_eq!(check_unsat_proof(&f, &proof), ProofCheck::Valid);
    }

    #[test]
    fn binary_square_refutation_checks() {
        let f = cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        let proof = prove_unsat(&f);
        assert_eq!(check_unsat_proof(&f, &proof), ProofCheck::Valid);
    }

    #[test]
    fn pigeonhole_refutations_check() {
        for holes in [2i64, 3] {
            let v = |i: i64, j: i64| holes * (i - 1) + j;
            let mut clauses: Vec<Vec<i64>> = Vec::new();
            for i in 1..=holes + 1 {
                clauses.push((1..=holes).map(|j| v(i, j)).collect());
            }
            for j in 1..=holes {
                for i1 in 1..=holes + 1 {
                    for i2 in (i1 + 1)..=holes + 1 {
                        clauses.push(vec![-v(i1, j), -v(i2, j)]);
                    }
                }
            }
            let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
            let f = cnf(&refs);
            let proof = prove_unsat(&f);
            assert_eq!(
                check_unsat_proof(&f, &proof),
                ProofCheck::Valid,
                "holes={holes}"
            );
        }
    }

    #[test]
    fn random_unsat_instances_produce_valid_proofs() {
        use crate::random::{gen_random_ksat, RandomSatConfig};
        let mut checked = 0;
        for seed in 0..40 {
            let f = gen_random_ksat(&RandomSatConfig::three_sat(18, 5.2, 40_000 + seed));
            let mut s = CdclSolver::new(&f);
            s.enable_proof_logging();
            if s.solve() == SatResult::Unsat {
                let proof = s.take_proof().expect("logging enabled");
                assert_eq!(
                    check_unsat_proof(&f, &proof),
                    ProofCheck::Valid,
                    "seed {seed}"
                );
                checked += 1;
            }
        }
        assert!(
            checked > 5,
            "expected several UNSAT instances, got {checked}"
        );
    }

    #[test]
    fn bogus_proofs_are_rejected() {
        let f = cnf(&[&[1, 2], &[-1, 2]]);
        // Claiming the empty clause directly is not RUP here (f is SAT).
        let bogus: Proof = vec![vec![]];
        assert_eq!(
            check_unsat_proof(&f, &bogus),
            ProofCheck::LemmaNotRup { index: 0 }
        );
        // A proof without the empty clause refutes nothing.
        let partial: Proof = vec![vec![Lit::from_dimacs(2)]];
        assert_eq!(check_unsat_proof(&f, &partial), ProofCheck::NoEmptyClause);
    }

    #[test]
    fn sat_answers_log_no_refutation() {
        let f = cnf(&[&[1, 2]]);
        let mut s = CdclSolver::new(&f);
        s.enable_proof_logging();
        assert!(matches!(s.solve(), SatResult::Sat(_)));
        let proof = s.take_proof().expect("logging enabled");
        assert!(!proof.iter().any(Vec::is_empty), "no empty clause on SAT");
    }
}
