//! VMC → SAT: decide coherence by encoding the existence of a coherent
//! schedule as a CNF formula and running the CDCL solver.
//!
//! This is the reduction in the *opposite* direction from the paper's
//! constructions (which prove hardness by SAT → VMC); together they close
//! the loop: NP-complete VMC instances are solved, in practice, through the
//! very problem they were proven equivalent to.
//!
//! ## Encoding
//!
//! For the `n` operations at the queried address:
//!
//! * **Order variables** `o(i,j)` for operations of *different* processes
//!   assert "i is scheduled before j"; same-process pairs are compile-time
//!   constants from program order. Totality is structural (`o(j,i) = ¬o(i,j)`);
//!   transitivity is enforced by O(n³) clauses.
//! * **Read mapping selectors**: each read `r` of value `v` chooses either a
//!   write `w` with `written(w) = v` — requiring `o(w,r)` and, for every
//!   other write `w'`, `o(w',w) ∨ o(r,w')` (nothing writes between `w` and
//!   `r`) — or, when `v = d_I`, the initial value, requiring `o(r,w')` for
//!   every write `w'`.
//! * **Final value selectors**: if `d_F` is configured, some write of `d_F`
//!   must follow every other write.
//!
//! A model yields a total order; we sort, build the schedule, and validate
//! it with the Theorem 4.2 certificate checker before returning. An
//! unsatisfiable encoding is certified too: the solver's clausal proof is
//! checked by the independent RUP checker before the incoherence verdict
//! is returned.

use crate::backtrack::precheck_ops;
use crate::verdict::{Verdict, Violation, ViolationKind};
use vermem_sat::{CdclSolver, Cnf, Lit, Model, SatResult};
use vermem_trace::{check_coherent_schedule_ops, Addr, AddrOps, Op, OpRef, Schedule, Trace};

/// A compiled VMC-to-CNF encoding, retaining enough structure to decode a
/// model back into a schedule.
pub struct VmcEncoding {
    cnf: Cnf,
    ops: Vec<(OpRef, Op)>,
    /// Triangular order-variable table: `order[i][j - i - 1]` for i < j, or
    /// `None` when program order decides the pair.
    order: Vec<Vec<Option<vermem_sat::Var>>>,
    trivially_unsat: bool,
}

#[derive(Clone, Copy)]
enum OrdTerm {
    Const(bool),
    Lit(Lit),
}

impl VmcEncoding {
    /// The generated CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Number of encoded operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    fn ord(&self, i: usize, j: usize) -> OrdTerm {
        debug_assert_ne!(i, j);
        let (a, b, flip) = if i < j { (i, j, false) } else { (j, i, true) };
        let term = match self.order[a][b - a - 1] {
            Some(v) => OrdTerm::Lit(v.pos()),
            None => {
                // Same process: program order decides.
                let (ri, rj) = (self.ops[a].0, self.ops[b].0);
                debug_assert_eq!(ri.proc, rj.proc);
                OrdTerm::Const(ri.index < rj.index)
            }
        };
        match (term, flip) {
            (t, false) => t,
            (OrdTerm::Const(c), true) => OrdTerm::Const(!c),
            (OrdTerm::Lit(l), true) => OrdTerm::Lit(!l),
        }
    }

    /// Evaluate "i before j" under a model.
    fn before(&self, model: &Model, i: usize, j: usize) -> bool {
        match self.ord(i, j) {
            OrdTerm::Const(c) => c,
            OrdTerm::Lit(l) => model.lit_value(l).expect("model covers all vars"),
        }
    }

    /// Decode a model into the schedule it represents.
    pub fn decode(&self, model: &Model) -> Schedule {
        let n = self.ops.len();
        // Position of op i = number of ops before it (total order).
        let mut order: Vec<usize> = (0..n).collect();
        let mut pos = vec![0usize; n];
        for (i, p) in pos.iter_mut().enumerate() {
            for j in 0..n {
                if i != j && self.before(model, j, i) {
                    *p += 1;
                }
            }
        }
        order.sort_by_key(|&i| pos[i]);
        Schedule::from_refs(order.into_iter().map(|i| self.ops[i].0))
    }
}

/// Build the CNF encoding of a VMC instance.
pub fn encode_vmc(instance: &AddrOps) -> VmcEncoding {
    let ops: Vec<(OpRef, Op)> = instance.iter().collect();
    let n = ops.len();
    let mut cnf = Cnf::new();

    // Allocate order variables for cross-process pairs.
    let mut order: Vec<Vec<Option<vermem_sat::Var>>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = Vec::with_capacity(n - i - 1);
        for j in i + 1..n {
            if ops[i].0.proc == ops[j].0.proc {
                row.push(None);
            } else {
                row.push(Some(cnf.new_var()));
            }
        }
        order.push(row);
    }

    let mut enc = VmcEncoding {
        cnf,
        ops,
        order,
        trivially_unsat: false,
    };

    // Clause helper with constant folding: add (¬a ∨ ¬b ∨ c).
    fn add_impl2(cnf: &mut Cnf, a: OrdTerm, b: OrdTerm, c: OrdTerm) {
        let mut lits = Vec::with_capacity(3);
        for (t, negate) in [(a, true), (b, true), (c, false)] {
            match (t, negate) {
                (OrdTerm::Const(v), neg) => {
                    if v != neg {
                        return; // term is true: clause satisfied
                    }
                    // term false: drop it
                }
                (OrdTerm::Lit(l), true) => lits.push(!l),
                (OrdTerm::Lit(l), false) => lits.push(l),
            }
        }
        cnf.add_clause(lits);
    }

    // Transitivity: ord(a,b) ∧ ord(b,c) → ord(a,c).
    for a in 0..n {
        for b in 0..n {
            if b == a {
                continue;
            }
            for c in 0..n {
                if c == a || c == b {
                    continue;
                }
                // Skip triples fully inside one process (always consistent).
                if enc.ops[a].0.proc == enc.ops[b].0.proc && enc.ops[b].0.proc == enc.ops[c].0.proc
                {
                    continue;
                }
                let (tab, tbc, tac) = (enc.ord(a, b), enc.ord(b, c), enc.ord(a, c));
                add_impl2(&mut enc.cnf, tab, tbc, tac);
            }
        }
    }

    let writes: Vec<usize> = (0..n).filter(|&i| enc.ops[i].1.is_writing()).collect();
    let initial = instance.initial();

    // Read mapping constraints.
    for r in 0..n {
        let Some(v) = enc.ops[r].1.read_value() else {
            continue;
        };
        let mut selectors: Vec<Lit> = Vec::new();

        if v == initial {
            // Selector: r reads the initial value ⇒ r precedes every write.
            let s = enc.cnf.new_var().pos();
            for &w in &writes {
                if w == r {
                    continue;
                }
                match enc.ord(r, w) {
                    OrdTerm::Const(true) => {}
                    OrdTerm::Const(false) => {
                        // r after some write in program order: selector dead.
                        enc.cnf.add_clause([!s]);
                        break;
                    }
                    OrdTerm::Lit(l) => enc.cnf.add_clause([!s, l]),
                }
            }
            selectors.push(s);
        }

        for &w in &writes {
            if w == r || enc.ops[w].1.written_value() != Some(v) {
                continue;
            }
            let s = enc.cnf.new_var().pos();
            let mut dead = false;
            // w before r.
            match enc.ord(w, r) {
                OrdTerm::Const(true) => {}
                OrdTerm::Const(false) => dead = true,
                OrdTerm::Lit(l) => enc.cnf.add_clause([!s, l]),
            }
            // No other write strictly between w and r.
            if !dead {
                for &x in &writes {
                    if x == w || x == r {
                        continue;
                    }
                    // ord(x,w) ∨ ord(r,x): either x before w, or x after r.
                    let mut lits = vec![!s];
                    let mut sat = false;
                    for t in [enc.ord(x, w), enc.ord(r, x)] {
                        match t {
                            OrdTerm::Const(true) => {
                                sat = true;
                                break;
                            }
                            OrdTerm::Const(false) => {}
                            OrdTerm::Lit(l) => lits.push(l),
                        }
                    }
                    if sat {
                        continue;
                    }
                    if lits.len() == 1 {
                        dead = true;
                        break;
                    }
                    enc.cnf.add_clause(lits);
                }
            }
            if dead {
                enc.cnf.add_clause([!s]);
            }
            selectors.push(s);
        }

        if selectors.is_empty() {
            enc.trivially_unsat = true;
        } else {
            enc.cnf.add_clause(selectors);
        }
    }

    // Final value: some write of d_F follows every other write.
    if let Some(f) = instance.final_value() {
        if writes.is_empty() {
            if f != initial {
                enc.trivially_unsat = true;
            }
        } else {
            let mut selectors = Vec::new();
            for &w in &writes {
                if enc.ops[w].1.written_value() != Some(f) {
                    continue;
                }
                let t = enc.cnf.new_var().pos();
                let mut dead = false;
                for &x in &writes {
                    if x == w {
                        continue;
                    }
                    match enc.ord(x, w) {
                        OrdTerm::Const(true) => {}
                        OrdTerm::Const(false) => {
                            dead = true;
                            break;
                        }
                        OrdTerm::Lit(l) => enc.cnf.add_clause([!t, l]),
                    }
                }
                if dead {
                    enc.cnf.add_clause([!t]);
                }
                selectors.push(t);
            }
            if selectors.is_empty() {
                enc.trivially_unsat = true;
            } else {
                enc.cnf.add_clause(selectors);
            }
        }
    }

    enc
}

/// Decide coherence of a VMC instance via the SAT encoding, with both
/// answers machine-checked: a coherent verdict's witness is decoded from
/// the model and validated by the Theorem 4.2 checker, and when the CDCL
/// solver reports the encoding unsatisfiable, its clausal proof is checked
/// by the independent RUP checker ([`vermem_sat::check_unsat_proof`])
/// before the incoherence verdict is returned.
///
/// # Panics
/// Panics on an invalid witness (an encoding bug) or an invalid refutation
/// proof (a solver bug).
pub fn solve_sat_ops(instance: &AddrOps) -> Verdict {
    if let Some(v) = precheck_ops(instance) {
        return Verdict::Incoherent(v);
    }
    let exhausted = Verdict::Incoherent(Violation {
        addr: instance.addr(),
        kind: ViolationKind::SearchExhausted,
    });
    let enc = encode_vmc(instance);
    if enc.trivially_unsat {
        return exhausted;
    }
    let mut solver = CdclSolver::new(enc.cnf());
    solver.enable_proof_logging();
    match solver.solve() {
        SatResult::Sat(model) => {
            let schedule = enc.decode(&model);
            assert!(
                check_coherent_schedule_ops(instance, &schedule).is_ok(),
                "SAT encoding produced an invalid witness — encoding bug"
            );
            Verdict::Coherent(schedule)
        }
        SatResult::Unsat => {
            let proof = solver.take_proof().expect("logging enabled");
            assert_eq!(
                vermem_sat::check_unsat_proof(enc.cnf(), &proof),
                vermem_sat::ProofCheck::Valid,
                "CDCL produced an invalid refutation proof — solver bug"
            );
            exhausted
        }
    }
}

/// [`solve_sat_ops`] on the operations of `trace` at `addr`. This wrapper
/// stays only because the `vmcbench` harness links it; every other caller
/// passes an [`AddrOps`] to [`solve_sat_ops`].
pub fn solve_sat_certified(trace: &Trace, addr: Addr) -> Verdict {
    solve_sat_ops(&AddrOps::of(trace, addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{solve_backtracking_ops_with_stats, SearchConfig};
    use vermem_trace::{Op, TraceBuilder, Value};

    fn sat(trace: &Trace) -> Verdict {
        solve_sat_ops(&AddrOps::of(trace, Addr::ZERO))
    }

    #[test]
    fn trivial_cases() {
        assert!(sat(&Trace::new()).is_coherent());
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::r(1u64)]).build();
        assert!(sat(&t).is_coherent());
    }

    #[test]
    fn incoherent_cross_reads() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        assert!(sat(&t).is_incoherent());
    }

    #[test]
    fn initial_value_reads() {
        let t = TraceBuilder::new()
            .proc([Op::r(0u64), Op::w(1u64)])
            .proc([Op::r(0u64), Op::r(1u64)])
            .build();
        assert!(sat(&t).is_coherent());
    }

    #[test]
    fn initial_read_after_program_order_write_incoherent() {
        // P0: W(1) then R(0) where 0 = d_I and never rewritten: impossible.
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::r(0u64)]).build();
        assert!(sat(&t).is_incoherent());
    }

    #[test]
    fn final_value_forces_write_order() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = sat(&t);
        let s = v.schedule().expect("coherent");
        // Last op must be the write of 1.
        let last = *s.refs().last().unwrap();
        assert_eq!(t.op(last).unwrap().written_value(), Some(Value(1)));
    }

    #[test]
    fn rmw_atomicity_in_encoding() {
        // Two RMWs both reading 0 and writing different values: only one can
        // read the initial 0, so incoherent... unless one writes 0 again.
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(0u64, 2u64)])
            .build();
        assert!(sat(&t).is_incoherent());

        let t2 = TraceBuilder::new()
            .proc([Op::rw(0u64, 0u64)])
            .proc([Op::rw(0u64, 2u64)])
            .build();
        assert!(sat(&t2).is_coherent());
    }

    #[test]
    fn certified_solver_agrees_and_proofs_check() {
        use vermem_util::rng::StdRng;
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(77_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..3u64);
                        if rng.gen_bool(0.5) {
                            Op::r(v)
                        } else {
                            Op::w(v)
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            // solve_sat_ops panics on an invalid proof, so simply
            // running it on incoherent instances is the assertion.
            let ops = AddrOps::of(&t, Addr::ZERO);
            let certified = solve_sat_ops(&ops);
            let (exact, _) = solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
            assert_eq!(certified.is_coherent(), exact.is_coherent(), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_backtracking_on_random_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..80u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let procs = rng.gen_range(1..=4);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..4u64);
                        match rng.gen_range(0..3) {
                            0 => Op::r(v),
                            1 => Op::w(v),
                            _ => Op::rw(v, rng.gen_range(0..4u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let ops = AddrOps::of(&t, Addr::ZERO);
            let (exact, _) = solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
            let via_sat = solve_sat_ops(&ops);
            assert_eq!(
                exact.is_coherent(),
                via_sat.is_coherent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }

    #[test]
    fn generated_coherent_traces_verify_via_sat() {
        for seed in 0..10 {
            let (t, _) = vermem_trace::gen::gen_hard_coherent(3, 5, 2, seed);
            assert!(sat(&t).is_coherent(), "seed {seed}");
        }
    }

    #[test]
    fn encoding_size_is_polynomial() {
        let (t, _) = vermem_trace::gen::gen_hard_coherent(4, 5, 2, 1);
        let enc = encode_vmc(&AddrOps::of(&t, Addr::ZERO));
        let n = enc.num_ops() as u64;
        // Order vars ≤ n(n-1)/2, clauses O(n^3).
        assert!(u64::from(enc.cnf().num_vars()) <= n * n);
        assert!((enc.cnf().num_clauses() as u64) <= 2 * n * n * n + n * n);
    }
}
