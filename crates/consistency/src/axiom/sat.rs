//! The SAT compiler: lowering a [`ModelSpec`] to CNF.
//!
//! Every declared model gets a differential oracle for free: the encoding
//! quantifies over the same witness space as the operational compiler —
//! a reads-from selector per read and a total coherence order per address
//! — and asserts the spec's axioms over *closure variables*, one block of
//! `C(i,j)` reachability variables per distinct closure relation set.
//! Base edges imply their closure variable (guarded by the selector/order
//! variables that make the edge exist), transitivity closes the block, and
//! each axiom then reads off reachability:
//!
//! * [`AxiomKind::Acyclic`]: `¬(C(i,j) ∧ C(j,i))` for every pair;
//! * [`AxiomKind::IrreflexiveSeq`]: for every guarded head edge `(a, b)`,
//!   `guards → ¬C(b, a)`.
//!
//! Closure variables are only lower-bounded (edges force them true), which
//! is sound and complete here: a real cycle forces a contradiction, and an
//! acyclic witness lets the solver assign the exact closure. Both answers
//! are certified: decoded models are validated against
//! [`check_witness_ev`] — the reference evaluator — before a `Consistent`
//! verdict is issued, and every `Unsat` carries a CDCL refutation proof
//! checked by RUP ([`vermem_sat::solve_certified`]) before a violation is
//! issued. An encoding bug can therefore produce a crash or a disagreement
//! in the differential suites, never a bogus witness, and a solver bug
//! never a bogus refutation.

use super::witness::{check_witness_ev, push_rel, witness_schedule, Events, RfCand, Witness};
use super::{AxiomKind, ModelSpec, Rel};
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use vermem_sat::{solve_certified, Cnf, Model, SatResult, Var};

/// A coherence-order decision: constant for program-ordered same-process
/// write pairs (forced by the per-location coherence axiom every spec
/// carries), a variable otherwise.
#[derive(Clone, Copy)]
enum Pair {
    Const(bool),
    Var(Var),
}

/// A literal-or-constant, for clauses mixing variables with forced edges.
#[derive(Clone, Copy)]
enum Term {
    Const(bool),
    Lit(vermem_sat::Lit),
}

/// Add the clause `¬t₁ ∨ … ∨ ¬tₖ ∨ tₖ₊₁ ∨ …` from `(term, negated)`
/// pairs, constant-folding: a true literal satisfies the clause (skip),
/// a false one drops out.
fn clause(cnf: &mut Cnf, terms: &[(Term, bool)]) {
    let mut lits = Vec::with_capacity(terms.len());
    for &(t, neg) in terms {
        match t {
            Term::Const(v) => {
                if v != neg {
                    return; // literal true: clause already satisfied
                }
            }
            Term::Lit(l) => lits.push(if neg { !l } else { l }),
        }
    }
    cnf.add_clause(lits);
}

/// A compiled spec encoding: CNF plus the variable maps needed to decode
/// a model back into a [`Witness`].
struct SpecEncoding {
    cnf: Cnf,
    ev: Events,
    /// Reads-from selector per event, parallel to `ev.candidates`.
    sel: Vec<Vec<Var>>,
    /// Triangular per slot: `mo[slot][i][j - i - 1]` ⇔ the slot's `i`-th
    /// write precedes its `j`-th (positions in `ev.writes_by_slot`).
    mo: Vec<Vec<Vec<Pair>>>,
    /// Unsatisfiable without solving: a read no write can satisfy, or a
    /// final value on a write-free address that differs from the initial
    /// value.
    trivially_unsat: bool,
}

impl SpecEncoding {
    /// Term for "slot's `i`-th write precedes its `j`-th" (positions).
    fn mo_term(&self, slot: usize, i: usize, j: usize) -> Term {
        let (a, b, flip) = if i < j { (i, j, false) } else { (j, i, true) };
        match self.mo[slot][a][b - a - 1] {
            Pair::Const(c) => Term::Const(c ^ flip),
            Pair::Var(v) => Term::Lit(if flip { v.neg() } else { v.pos() }),
        }
    }

    fn before(&self, model: &Model, slot: usize, i: usize, j: usize) -> bool {
        match self.mo_term(slot, i, j) {
            Term::Const(c) => c,
            Term::Lit(l) => model.lit_value(l).expect("model complete"),
        }
    }

    /// Decode a model into the witness it describes.
    fn decode(&self, model: &Model) -> Witness {
        let mut w = Witness::empty(self.ev.len(), self.ev.writes_by_slot.len());
        for (e, sels) in self.sel.iter().enumerate() {
            if let Some(ci) = sels
                .iter()
                .position(|&v| model.value(v).expect("model complete"))
            {
                w.rf[e] = Some(self.ev.candidates[e][ci]);
            }
        }
        for (slot, writes) in self.ev.writes_by_slot.iter().enumerate() {
            let k = writes.len();
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by_key(|&i| {
                (0..k)
                    .filter(|&j| j != i && self.before(model, slot, j, i))
                    .count()
            });
            w.mo[slot] = order.into_iter().map(|i| writes[i]).collect();
        }
        w
    }
}

/// Enumerate `rel`'s potential edges with the guard terms under which each
/// edge exists. Static relations (`po`, `po|loc`, `ppo`, `dob`) come from
/// [`push_rel`] over the empty witness — the same generator the reference
/// evaluator uses — with no guards; `rf`/`mo`/`fr` edges are guarded by
/// the selector and order variables that realize them.
fn for_each_edge(
    rel: Rel,
    spec: &ModelSpec,
    enc: &SpecEncoding,
    f: &mut impl FnMut(&[Term], u32, u32),
) {
    let ev = &enc.ev;
    let sel = &enc.sel;
    let same_proc = |a: u32, b: u32| ev.proc_of[a as usize] == ev.proc_of[b as usize];
    match rel {
        Rel::Po | Rel::PoLoc | Rel::Ppo | Rel::Dob => {
            let empty = Witness::empty(ev.len(), ev.writes_by_slot.len());
            let mut edges = Vec::new();
            push_rel(rel, spec, ev, &empty, &mut edges);
            for (a, b) in edges {
                f(&[], a, b);
            }
        }
        Rel::Rf | Rel::Rfe => {
            for (e, cands) in ev.candidates.iter().enumerate() {
                for (ci, cand) in cands.iter().enumerate() {
                    if let RfCand::From(src) = *cand {
                        if rel == Rel::Rf || !same_proc(src, e as u32) {
                            f(&[Term::Lit(sel[e][ci].pos())], src, e as u32);
                        }
                    }
                }
            }
        }
        Rel::Mo | Rel::Moe => {
            for (slot, writes) in ev.writes_by_slot.iter().enumerate() {
                for i in 0..writes.len() {
                    for j in 0..writes.len() {
                        if i != j && (rel == Rel::Mo || !same_proc(writes[i], writes[j])) {
                            f(&[enc.mo_term(slot, i, j)], writes[i], writes[j]);
                        }
                    }
                }
            }
        }
        Rel::Fr | Rel::Fre => {
            for (e, cands) in ev.candidates.iter().enumerate() {
                let e = e as u32;
                let slot = ev.slot_of[e as usize] as usize;
                let writes = &ev.writes_by_slot[slot];
                for (ci, cand) in cands.iter().enumerate() {
                    let sel_t = Term::Lit(sel[e as usize][ci].pos());
                    for (xi, &x) in writes.iter().enumerate() {
                        if x == e || (rel == Rel::Fre && same_proc(e, x)) {
                            continue;
                        }
                        match *cand {
                            // Reads-from-initial precedes every write.
                            RfCand::Init => f(&[sel_t], e, x),
                            RfCand::From(src) => {
                                if x == src {
                                    continue;
                                }
                                let si = writes
                                    .iter()
                                    .position(|&y| y == src)
                                    .expect("candidate writer is a write");
                                f(&[sel_t, enc.mo_term(slot, si, xi)], e, x);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The closure relation set an axiom transitively closes.
fn closure_rels(kind: AxiomKind) -> &'static [Rel] {
    match kind {
        AxiomKind::Acyclic(rels) => rels,
        AxiomKind::IrreflexiveSeq { closure, .. } => closure,
    }
}

/// Build the CNF encoding of "the trace of `ev` has a witness valid under
/// `spec`".
fn encode_spec(ev: Events, spec: &ModelSpec) -> SpecEncoding {
    let n = ev.len();
    let mut cnf = Cnf::new();

    let mut trivially_unsat = ev.some_read_unsatisfiable();
    for &(slot, v) in &ev.finals {
        if ev.writes_by_slot[slot as usize].is_empty() && ev.initial[slot as usize] != v {
            trivially_unsat = true;
        }
    }

    // Reads-from selectors: exactly one candidate per read.
    let sel: Vec<Vec<Var>> = ev
        .candidates
        .iter()
        .map(|cands| cnf.new_vars(cands.len()))
        .collect();
    for (e, &(_, op)) in ev.ops.iter().enumerate() {
        if !op.is_reading() {
            continue;
        }
        cnf.add_clause(sel[e].iter().map(|v| v.pos()));
        for i in 0..sel[e].len() {
            for j in i + 1..sel[e].len() {
                cnf.add_clause([sel[e][i].neg(), sel[e][j].neg()]);
            }
        }
    }

    // Coherence-order pairs: same-process pairs are constants — event ids
    // within a process ascend in program order, and reversing them would
    // close a `po|loc ; mo` cycle through the per-location coherence
    // axiom every spec carries (asserted by the registry test).
    let mo: Vec<Vec<Vec<Pair>>> = ev
        .writes_by_slot
        .iter()
        .map(|writes| {
            (0..writes.len())
                .map(|i| {
                    (i + 1..writes.len())
                        .map(|j| {
                            if ev.proc_of[writes[i] as usize] == ev.proc_of[writes[j] as usize] {
                                Pair::Const(true)
                            } else {
                                Pair::Var(cnf.new_var())
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut enc = SpecEncoding {
        cnf,
        ev,
        sel,
        mo,
        trivially_unsat,
    };

    // Coherence order is transitive (totality and antisymmetry are
    // structural: one term per pair).
    for slot in 0..enc.ev.writes_by_slot.len() {
        let k = enc.ev.writes_by_slot[slot].len();
        for a in 0..k {
            for b in 0..k {
                for c in 0..k {
                    if a != b && b != c && a != c {
                        let terms = [
                            (enc.mo_term(slot, a, b), true),
                            (enc.mo_term(slot, b, c), true),
                            (enc.mo_term(slot, a, c), false),
                        ];
                        clause(&mut enc.cnf, &terms);
                    }
                }
            }
        }
    }

    // Final values: every write of the wrong value must have a coherence
    // successor (so some right-value write, if any, ends up last).
    for fi in 0..enc.ev.finals.len() {
        let (slot, v) = enc.ev.finals[fi];
        let writes = enc.ev.writes_by_slot[slot as usize].clone();
        for (i, &x) in writes.iter().enumerate() {
            if enc.ev.ops[x as usize].1.written_value() == Some(v) {
                continue;
            }
            let terms: Vec<(Term, bool)> = (0..writes.len())
                .filter(|&j| j != i)
                .map(|j| (enc.mo_term(slot as usize, i, j), false))
                .collect();
            clause(&mut enc.cnf, &terms);
        }
    }

    // Axioms, over closure-variable blocks shared between axioms with the
    // same closure relation set (RA's causality and write-coherence both
    // close po ∪ rf, say).
    let idx = |a: u32, b: u32| a as usize * n + b as usize;
    let mut blocks: Vec<(&'static [Rel], Vec<Var>)> = Vec::new();
    for ax in spec.axioms {
        let rels = closure_rels(ax.kind);
        let block = match blocks.iter().position(|(r, _)| *r == rels) {
            Some(i) => i,
            None => {
                let vars = enc.cnf.new_vars(n * n);
                // Base edges imply their closure variable...
                for &rel in rels {
                    let mut cnf_ref = std::mem::take(&mut enc.cnf);
                    for_each_edge(rel, spec, &enc, &mut |guards, a, b| {
                        let mut terms: Vec<(Term, bool)> =
                            guards.iter().map(|&g| (g, true)).collect();
                        terms.push((Term::Lit(vars[idx(a, b)].pos()), false));
                        clause(&mut cnf_ref, &terms);
                    });
                    enc.cnf = cnf_ref;
                }
                // ...and transitivity closes the block.
                for a in 0..n as u32 {
                    for b in 0..n as u32 {
                        for c in 0..n as u32 {
                            if a != b && b != c && a != c {
                                enc.cnf.add_impl(
                                    [vars[idx(a, b)].pos(), vars[idx(b, c)].pos()],
                                    vars[idx(a, c)].pos(),
                                );
                            }
                        }
                    }
                }
                blocks.push((rels, vars));
                blocks.len() - 1
            }
        };
        let vars = &blocks[block].1;
        match ax.kind {
            AxiomKind::Acyclic(_) => {
                for a in 0..n as u32 {
                    for b in a + 1..n as u32 {
                        enc.cnf
                            .add_clause([vars[idx(a, b)].neg(), vars[idx(b, a)].neg()]);
                    }
                }
            }
            AxiomKind::IrreflexiveSeq { head, .. } => {
                for &rel in head {
                    let mut cnf_ref = std::mem::take(&mut enc.cnf);
                    for_each_edge(rel, spec, &enc, &mut |guards, a, b| {
                        let mut terms: Vec<(Term, bool)> =
                            guards.iter().map(|&g| (g, true)).collect();
                        terms.push((Term::Lit(vars[idx(b, a)].pos()), true));
                        clause(&mut cnf_ref, &terms);
                    });
                    enc.cnf = cnf_ref;
                }
            }
        }
    }

    enc
}

/// Decide adherence of the trace of `ev` to `spec` via the SAT encoding.
/// The caller has run the per-address precheck; decoded witnesses are
/// validated by the reference evaluator before a `Consistent` verdict is
/// issued, and refutations by the RUP proof checker before a violation
/// is.
///
/// # Panics
///
/// If the decoded witness fails the evaluator (an encoding bug) or the
/// refutation proof fails the checker (a solver bug).
pub(crate) fn solve(ev: Events, spec: &ModelSpec) -> ConsistencyVerdict {
    let enc = encode_spec(ev, spec);
    if enc.trivially_unsat {
        return ConsistencyVerdict::Violating(ConsistencyViolation {
            class: ViolationClass::NoConsistentSchedule,
        });
    }
    match solve_certified(&enc.cnf).0 {
        SatResult::Sat(m) => {
            let w = enc.decode(&m);
            assert!(
                check_witness_ev(spec, &enc.ev, &w).is_ok(),
                "spec encoding produced an invalid witness — encoding bug ({})",
                spec.name
            );
            ConsistencyVerdict::Consistent(witness_schedule(spec, &enc.ev, &w))
        }
        SatResult::Unsat => ConsistencyVerdict::Violating(ConsistencyViolation {
            class: ViolationClass::NoConsistentSchedule,
        }),
    }
}

#[cfg(test)]
mod tests {
    use crate::axiom::{solve_spec_sat, spec, ModelId};
    use crate::oracle::serializes;
    use vermem_trace::{Op, TraceBuilder};

    /// Message passing: the compiled encoding agrees with the serialization
    /// oracle on all four base models.
    #[test]
    fn agrees_with_serialization_oracle_on_mp() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        for id in ModelId::SERIALIZING {
            assert_eq!(
                solve_spec_sat(&t, spec(id)).is_consistent(),
                serializes(&t, id),
                "{}",
                id.name()
            );
        }
    }

    /// A final value no write can land last for is unsatisfiable.
    #[test]
    fn finals_constrain_the_coherence_order() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        let consistent = solve_spec_sat(&t, spec(ModelId::Ra)).is_consistent();
        assert!(consistent, "w2 before w1 satisfies the final");
        let t2 = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(0u32, 2u64)])
            .proc([Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        // Reading 2 after writing 1 forces mo = [w1, w2] under
        // per-location coherence, so the final value 1 is unreachable.
        assert!(!solve_spec_sat(&t2, spec(ModelId::Ra)).is_consistent());
    }
}
