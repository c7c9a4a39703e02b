//! The hand-written serialization SAT encoding: the **test oracle** for
//! the four serialization models. No production path calls it — every
//! deciding entry point runs [`crate::verify_axiom`] — but the
//! differential suites compare both compilers against it, because it is
//! not derived from [`crate::ModelSpec`].
//!
//! Generalizes the VMC→SAT encoding of `vermem-coherence` to the whole
//! trace and to relaxed consistency models: program-order pairs that the
//! model *enforces* become compile-time constants, pairs it relaxes become
//! free order variables (the store buffer may commit them either way), and
//! read/value constraints apply per address. With [`ModelId::Sc`] this
//! decides VSC (Definition 6.1); with weaker models it decides adherence to
//! TSO, PSO or bare coherence over a single global serialization. The
//! enforcement table (the private `enforces`) is written out by hand here
//! and never read from a spec's `ppo_cross`: that is what keeps the oracle
//! independent.

use crate::axiom::{check_model_schedule, precheck_sc, ModelId};
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use vermem_sat::{CdclSolver, Cnf, Lit, Model, SatResult, Var};
use vermem_trace::{Op, OpRef, Schedule, Trace};

/// Is the program-order pair `x` (earlier) → `y` (later) enforced in every
/// valid schedule of serialization model `id`? Same-address order is
/// always enforced (coherence's per-location serialization); atomic RMWs
/// order with everything, as on SPARC/x86.
///
/// # Panics
///
/// If `id` is not one of [`ModelId::SERIALIZING`].
fn enforces(id: ModelId, x: Op, y: Op) -> bool {
    if x.addr() == y.addr() {
        return true;
    }
    match id {
        ModelId::Sc => true,
        // Relax only pure-write → pure-read; RMWs order both ways.
        ModelId::Tso => !(matches!(x, Op::Write { .. }) && matches!(y, Op::Read { .. })),
        // W→R and W→W relaxed; an RMW on either side orders.
        ModelId::Pso => !matches!(x, Op::Write { .. }) || y.is_rmw(),
        ModelId::CoherenceOnly => false,
        ModelId::Ra | ModelId::ArmDob => {
            panic!("{} is not a single-serialization model", id.name())
        }
    }
}

#[derive(Clone, Copy)]
enum Pair {
    Const(bool),
    Var(Var),
}

/// A compiled consistency encoding.
pub struct VscEncoding {
    cnf: Cnf,
    ops: Vec<(OpRef, Op)>,
    order: Vec<Vec<Pair>>, // triangular: order[i][j-i-1] for i<j
    trivially_unsat: bool,
    model: ModelId,
}

impl VscEncoding {
    /// The generated CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// The model this encoding targets.
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// Literal or constant for "i scheduled before j".
    fn ord_term(&self, i: usize, j: usize) -> Term {
        let (a, b, flip) = if i < j { (i, j, false) } else { (j, i, true) };
        match self.order[a][b - a - 1] {
            Pair::Const(c) => Term::Const(c ^ flip),
            Pair::Var(v) => Term::Lit(if flip { v.neg() } else { v.pos() }),
        }
    }

    fn before(&self, model: &Model, i: usize, j: usize) -> bool {
        match self.ord_term(i, j) {
            Term::Const(c) => c,
            Term::Lit(l) => model.lit_value(l).expect("model complete"),
        }
    }

    /// Decode a model into its schedule.
    pub fn decode(&self, model: &Model) -> Schedule {
        let n = self.ops.len();
        let mut pos = vec![0usize; n];
        for (i, p) in pos.iter_mut().enumerate() {
            for j in 0..n {
                if i != j && self.before(model, j, i) {
                    *p += 1;
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| pos[i]);
        Schedule::from_refs(order.into_iter().map(|i| self.ops[i].0))
    }
}

#[derive(Clone, Copy)]
enum Term {
    Const(bool),
    Lit(Lit),
}

/// Build the CNF encoding of "`trace` has a schedule valid under `model`".
///
/// # Panics
///
/// If `model` is not one of [`ModelId::SERIALIZING`].
pub fn encode_model(trace: &Trace, model: ModelId) -> VscEncoding {
    let ops: Vec<(OpRef, Op)> = trace.iter_ops().collect();
    let n = ops.len();
    let mut cnf = Cnf::new();

    let mut order: Vec<Vec<Pair>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = Vec::with_capacity(n - i - 1);
        for j in i + 1..n {
            let (ri, rj) = (ops[i].0, ops[j].0);
            if ri.proc == rj.proc {
                // iter_ops yields program order within a process: ri earlier.
                debug_assert!(ri.index < rj.index);
                if enforces(model, ops[i].1, ops[j].1) {
                    row.push(Pair::Const(true));
                } else {
                    row.push(Pair::Var(cnf.new_var()));
                }
            } else {
                row.push(Pair::Var(cnf.new_var()));
            }
        }
        order.push(row);
    }

    let mut enc = VscEncoding {
        cnf,
        ops,
        order,
        trivially_unsat: false,
        model,
    };

    fn add_impl2(cnf: &mut Cnf, a: Term, b: Term, c: Term) {
        let mut lits = Vec::with_capacity(3);
        for (t, negate) in [(a, true), (b, true), (c, false)] {
            match (t, negate) {
                (Term::Const(v), neg) => {
                    if v != neg {
                        return;
                    }
                }
                (Term::Lit(l), true) => lits.push(!l),
                (Term::Lit(l), false) => lits.push(l),
            }
        }
        cnf.add_clause(lits);
    }

    // Transitivity.
    for a in 0..n {
        for b in 0..n {
            if b == a {
                continue;
            }
            for c in 0..n {
                if c == a || c == b {
                    continue;
                }
                let (tab, tbc, tac) = (enc.ord_term(a, b), enc.ord_term(b, c), enc.ord_term(a, c));
                add_impl2(&mut enc.cnf, tab, tbc, tac);
            }
        }
    }

    // Per-address read constraints.
    for r in 0..n {
        let Some(v) = enc.ops[r].1.read_value() else {
            continue;
        };
        let addr = enc.ops[r].1.addr();
        let writes: Vec<usize> = (0..n)
            .filter(|&i| enc.ops[i].1.addr() == addr && enc.ops[i].1.is_writing())
            .collect();
        let initial = trace.initial(addr);
        let mut selectors: Vec<Lit> = Vec::new();

        if v == initial {
            let s = enc.cnf.new_var().pos();
            let mut dead = false;
            for &w in &writes {
                if w == r {
                    continue;
                }
                match enc.ord_term(r, w) {
                    Term::Const(true) => {}
                    Term::Const(false) => {
                        dead = true;
                        break;
                    }
                    Term::Lit(l) => enc.cnf.add_clause([!s, l]),
                }
            }
            if dead {
                enc.cnf.add_clause([!s]);
            }
            selectors.push(s);
        }

        for &w in &writes {
            if w == r || enc.ops[w].1.written_value() != Some(v) {
                continue;
            }
            let s = enc.cnf.new_var().pos();
            let mut dead = false;
            match enc.ord_term(w, r) {
                Term::Const(true) => {}
                Term::Const(false) => dead = true,
                Term::Lit(l) => enc.cnf.add_clause([!s, l]),
            }
            if !dead {
                for &x in &writes {
                    if x == w || x == r {
                        continue;
                    }
                    let mut lits = vec![!s];
                    let mut sat = false;
                    for t in [enc.ord_term(x, w), enc.ord_term(r, x)] {
                        match t {
                            Term::Const(true) => {
                                sat = true;
                                break;
                            }
                            Term::Const(false) => {}
                            Term::Lit(l) => lits.push(l),
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

    // Final values per address.
    for (&addr, &f) in trace.final_values() {
        let writes: Vec<usize> = (0..n)
            .filter(|&i| enc.ops[i].1.addr() == addr && enc.ops[i].1.is_writing())
            .collect();
        if writes.is_empty() {
            if f != trace.initial(addr) {
                enc.trivially_unsat = true;
            }
            continue;
        }
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
                match enc.ord_term(x, w) {
                    Term::Const(true) => {}
                    Term::Const(false) => {
                        dead = true;
                        break;
                    }
                    Term::Lit(l) => enc.cnf.add_clause([!t, l]),
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

    enc
}

/// Decide adherence of `trace` to serialization model `model` via the
/// hand-written SAT encoding (the test oracle; see the module docs).
///
/// # Panics
///
/// If `model` is not one of [`ModelId::SERIALIZING`].
pub fn solve_model_sat(trace: &Trace, model: ModelId) -> ConsistencyVerdict {
    if let Some(v) = precheck_sc(trace) {
        return ConsistencyVerdict::Violating(v);
    }
    let enc = encode_model(trace, model);
    if enc.trivially_unsat {
        return ConsistencyVerdict::Violating(ConsistencyViolation {
            class: ViolationClass::NoConsistentSchedule,
        });
    }
    let mut solver = CdclSolver::new(enc.cnf());
    match solver.solve() {
        SatResult::Sat(m) => {
            let schedule = enc.decode(&m);
            assert!(
                check_model_schedule(trace, model, &schedule).is_ok(),
                "consistency encoding produced an invalid witness — encoding bug"
            );
            ConsistencyVerdict::Consistent(schedule)
        }
        SatResult::Unsat => ConsistencyVerdict::Violating(ConsistencyViolation {
            class: ViolationClass::NoConsistentSchedule,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::{verify_axiom, AxiomConfig};
    use vermem_trace::{Op, TraceBuilder};

    fn sb_trace() -> Trace {
        TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build()
    }

    #[test]
    fn store_buffering_tso_yes_sc_no() {
        let t = sb_trace();
        assert!(solve_model_sat(&t, ModelId::Sc).is_violating());
        assert!(solve_model_sat(&t, ModelId::Tso).is_consistent());
        assert!(solve_model_sat(&t, ModelId::Pso).is_consistent());
        assert!(solve_model_sat(&t, ModelId::CoherenceOnly).is_consistent());
    }

    #[test]
    fn store_buffering_with_rmw_fence_forbidden_under_tso() {
        // Replacing the writes by RMWs restores ordering under TSO.
        let t = TraceBuilder::new()
            .proc([Op::rmw(0u32, 0u64, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::rmw(1u32, 0u64, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(solve_model_sat(&t, ModelId::Tso).is_violating());
        assert!(solve_model_sat(&t, ModelId::CoherenceOnly).is_consistent());
    }

    #[test]
    fn message_passing_by_model() {
        // MP violation: R(y,1) then R(x,0).
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        assert!(solve_model_sat(&t, ModelId::Sc).is_violating());
        assert!(solve_model_sat(&t, ModelId::Tso).is_violating()); // W→W and R→R kept
        assert!(solve_model_sat(&t, ModelId::Pso).is_consistent()); // W→W relaxed
        assert!(solve_model_sat(&t, ModelId::CoherenceOnly).is_consistent());
    }

    #[test]
    fn coherence_still_required_by_weakest_model() {
        // CoRR: same-address reads must not see values regress.
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(0u32, 2u64)])
            .proc([Op::read(0u32, 2u64), Op::read(0u32, 1u64)])
            .build();
        for m in ModelId::SERIALIZING {
            assert!(solve_model_sat(&t, m).is_violating(), "{}", m.name());
        }
    }

    #[test]
    fn sat_sc_agrees_with_compiled_engine_on_random_traces() {
        use vermem_util::rng::StdRng;
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(60_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let a = rng.gen_range(0..2u32);
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..3) {
                            0 => Op::read(a, v),
                            1 => Op::write(a, v),
                            _ => Op::rmw(a, v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let bt = verify_axiom(&t, ModelId::Sc, &AxiomConfig::default()).verdict;
            let sat = solve_model_sat(&t, ModelId::Sc);
            assert_eq!(
                bt.is_consistent(),
                sat.is_consistent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a single-serialization model")]
    fn oracle_rejects_non_serializing_models() {
        let _ = solve_model_sat(&sb_trace(), ModelId::Ra);
    }

    #[test]
    fn model_hierarchy_is_monotone_on_random_traces() {
        // Anything SC-consistent is TSO-consistent is PSO-consistent is
        // coherence-consistent.
        use vermem_util::rng::StdRng;
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(70_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=3);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let a = rng.gen_range(0..2u32);
                        let v = rng.gen_range(0..2u64);
                        if rng.gen_bool(0.5) {
                            Op::read(a, v)
                        } else {
                            Op::write(a, v)
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let sc = solve_model_sat(&t, ModelId::Sc).is_consistent();
            let tso = solve_model_sat(&t, ModelId::Tso).is_consistent();
            let pso = solve_model_sat(&t, ModelId::Pso).is_consistent();
            let coh = solve_model_sat(&t, ModelId::CoherenceOnly).is_consistent();
            assert!(!sc || tso, "seed {seed}");
            assert!(!tso || pso, "seed {seed}");
            assert!(!pso || coh, "seed {seed}");
        }
    }
}
