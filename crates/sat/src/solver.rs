//! Conflict-driven clause learning (CDCL) SAT solver.
//!
//! A from-scratch MiniSat-style solver: two-watched-literal propagation,
//! first-UIP conflict analysis with local clause minimization, VSIDS
//! decision heuristic with phase saving, Luby restarts, and activity-based
//! learnt-clause database reduction.

use crate::cnf::{Cnf, Model, SatResult};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};

const NO_REASON: u32 = u32::MAX;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

/// Runtime counters, exposed for benchmarking and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt.
    pub learned: u64,
    /// Learnt clauses deleted by database reduction.
    pub removed: u64,
}

impl SolverStats {
    /// Render as a `sat` section of the unified run report (the one
    /// shared pretty-printer in [`vermem_util::obs::report`]).
    pub fn to_report(&self) -> vermem_util::obs::report::RunReportSection {
        vermem_util::obs::report::RunReportSection::new("sat")
            .with("decisions", self.decisions)
            .with("propagations", self.propagations)
            .with("conflicts", self.conflicts)
            .with("restarts", self.restarts)
            .with("learned", self.learned)
            .with("removed", self.removed)
    }
}

/// A CDCL SAT solver instance. Clauses are added up front (or between
/// `solve` calls at decision level zero); `solve` is incremental in the
/// sense that learnt clauses persist across calls.
pub struct CdclSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // indexed by literal; clause refs watching ¬lit
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    cla_inc: f64,
    seen: Vec<bool>,
    ok: bool,
    num_vars: u32,
    num_learnt: usize,
    proof: Option<Vec<Vec<Lit>>>,
    stats: SolverStats,
}

impl CdclSolver {
    /// Create a solver for the given formula.
    pub fn new(cnf: &Cnf) -> Self {
        let n = cnf.num_vars() as usize;
        let mut s = CdclSolver {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![LBool::Undef; n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            heap: VarHeap::new(),
            phase: vec![false; n],
            cla_inc: 1.0,
            seen: vec![false; n],
            ok: true,
            num_vars: cnf.num_vars(),
            num_learnt: 0,
            proof: None,
            stats: SolverStats::default(),
        };
        s.heap.grow_to(n);
        for v in 0..n {
            s.heap.insert(Var(v as u32), &s.activity);
        }
        for clause in cnf.clauses() {
            s.add_clause(clause.iter().copied());
            if !s.ok {
                break;
            }
        }
        s
    }

    /// Current statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Record every learnt clause so an UNSAT answer can be independently
    /// validated with [`crate::drat::check_unsat_proof`]. Enable before
    /// calling [`CdclSolver::solve`].
    pub fn enable_proof_logging(&mut self) {
        self.proof.get_or_insert_with(Vec::new);
    }

    /// Take the recorded proof (learnt clauses in derivation order; ends
    /// with the empty clause on UNSAT). `None` if logging was not enabled.
    pub fn take_proof(&mut self) -> Option<Vec<Vec<Lit>>> {
        self.proof.take()
    }

    fn log_lemma(&mut self, lemma: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.push(lemma.to_vec());
        }
    }

    #[inline]
    fn value(&self, lit: Lit) -> LBool {
        self.assign[lit.var().index()].of_lit(lit)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add an original clause at decision level zero. Performs the standard
    /// normalizations: drop duplicate literals, drop satisfied clauses, drop
    /// tautologies, strip level-zero-false literals.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        clause.sort_unstable();
        clause.dedup();
        // Tautology: x and ¬x adjacent after sorting by packed index.
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            return;
        }
        let mut out = Vec::with_capacity(clause.len());
        for lit in clause {
            debug_assert!(lit.var().0 < self.num_vars, "literal beyond declared vars");
            match self.value(lit) {
                LBool::True => return, // already satisfied at level 0
                LBool::False => {}     // drop falsified literal
                LBool::Undef => out.push(lit),
            }
        }
        match out.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(out[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.attach(out, false);
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        let w0 = !lits[0];
        let w1 = !lits[1];
        if learnt {
            self.num_learnt += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            deleted: false,
        });
        self.watches[w0.index()].push(cref);
        self.watches[w1.index()].push(cref);
        cref
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.value(lit), LBool::Undef);
        let v = lit.var().index();
        self.assign[v] = LBool::from_bool(lit.is_pos());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the conflicting clause ref, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut kept = Vec::with_capacity(ws.len());
            let mut conflict = None;

            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                i += 1;
                let clause = &mut self.clauses[cref as usize];
                if clause.deleted {
                    continue;
                }
                // Normalize: the falsified watched literal (¬p) at slot 1.
                if clause.lits[0] == !p {
                    clause.lits.swap(0, 1);
                }
                debug_assert_eq!(clause.lits[1], !p);
                let first = clause.lits[0];
                if self.assign[first.var().index()].of_lit(first) == LBool::True {
                    kept.push(cref);
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let mut moved = false;
                for k in 2..clause.lits.len() {
                    let lk = clause.lits[k];
                    if self.assign[lk.var().index()].of_lit(lk) != LBool::False {
                        clause.lits.swap(1, k);
                        let new_watch = !clause.lits[1];
                        self.watches[new_watch.index()].push(cref);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting under the current assignment.
                kept.push(cref);
                if self.assign[first.var().index()].of_lit(first) == LBool::False {
                    conflict = Some(cref);
                    kept.extend_from_slice(&ws[i..]);
                    break;
                }
                self.enqueue(first, cref);
            }

            ws.clear();
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = kept;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.heap.rebuild(&self.activity);
        }
        self.heap.increased(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            let inc = self.cla_inc;
            for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                c.activity *= 1e-20;
            }
            self.cla_inc = inc * 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_index(0)]; // slot for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            let lits: Vec<Lit> = self.clauses[confl as usize].lits.clone();
            // For reason clauses the implied literal sits at slot 0 and is
            // skipped; the initial conflict clause is processed in full.
            let start = if p.is_some() { 1 } else { 0 };
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next seen literal from the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON);
        }

        // Local minimization: a non-asserting literal is redundant if its
        // reason clause's other literals are all seen or at level zero.
        let mut keep = vec![true; learnt.len()];
        for (i, &lit) in learnt.iter().enumerate().skip(1) {
            let r = self.reason[lit.var().index()];
            if r == NO_REASON {
                continue;
            }
            let redundant = self.clauses[r as usize]
                .lits
                .iter()
                .filter(|&&q| q != !lit)
                .all(|&q| self.seen[q.var().index()] || self.level[q.var().index()] == 0);
            if redundant {
                keep[i] = false;
            }
        }
        let mut minimized = Vec::with_capacity(learnt.len());
        for (i, &lit) in learnt.iter().enumerate() {
            if keep[i] {
                minimized.push(lit);
            }
        }

        // Clear seen marks.
        for &lit in &learnt {
            self.seen[lit.var().index()] = false;
        }
        // The asserting literal's var was already cleared in the loop, and
        // literals popped from `learnt` by minimization were cleared above
        // since we iterate the unminimized clause.

        // Compute backtrack level: second-highest level in the clause, and
        // place a literal of that level at slot 1 (watching invariant).
        let bt_level = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        (minimized, bt_level)
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.phase[v.index()] = lit.is_pos();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = NO_REASON;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assign[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        let mut learnts: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&c| {
                let cl = &self.clauses[c as usize];
                cl.learnt && !cl.deleted && cl.lits.len() > 2
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<bool> = learnts
            .iter()
            .map(|&c| {
                let lit0 = self.clauses[c as usize].lits[0];
                self.reason[lit0.var().index()] == c
                    && self.assign[lit0.var().index()] != LBool::Undef
            })
            .collect();
        let target = learnts.len() / 2;
        let mut removed = 0;
        for (i, &cref) in learnts.iter().enumerate() {
            if removed >= target {
                break;
            }
            if locked[i] {
                continue;
            }
            self.detach(cref);
            removed += 1;
        }
        self.stats.removed += removed as u64;
    }

    fn detach(&mut self, cref: u32) {
        let (w0, w1) = {
            let c = &self.clauses[cref as usize];
            (!c.lits[0], !c.lits[1])
        };
        self.watches[w0.index()].retain(|&c| c != cref);
        self.watches[w1.index()].retain(|&c| c != cref);
        let c = &mut self.clauses[cref as usize];
        if c.learnt {
            self.num_learnt -= 1;
        }
        c.deleted = true;
        c.lits = Vec::new();
        c.lits.shrink_to_fit();
    }

    /// Luby restart sequence: 1,1,2,1,1,2,4,... (MiniSat's formulation).
    fn luby(mut x: u64) -> u64 {
        let (mut size, mut seq) = (1u64, 0u64);
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1 << seq
    }

    /// Solve to completion.
    ///
    /// With observability enabled, the call is wrapped in a `sat.solve`
    /// span and the *delta* of [`SolverStats`] accumulated by this call
    /// is batch-flushed into the metrics registry (the solver is
    /// incremental, so flushing deltas keeps repeated `solve` calls
    /// additive in the registry).
    pub fn solve(&mut self) -> SatResult {
        let mut span = vermem_util::span!("sat.solve");
        let before = self.stats;
        let result = self
            .solve_limited(u64::MAX)
            .expect("unlimited solve always completes");
        if span.is_recording() {
            use vermem_util::obs;
            let d = SolverStats {
                decisions: self.stats.decisions - before.decisions,
                propagations: self.stats.propagations - before.propagations,
                conflicts: self.stats.conflicts - before.conflicts,
                restarts: self.stats.restarts - before.restarts,
                learned: self.stats.learned - before.learned,
                removed: self.stats.removed - before.removed,
            };
            span.arg("decisions", d.decisions);
            span.arg("conflicts", d.conflicts);
            obs::counter_add("sat.decisions", d.decisions);
            obs::counter_add("sat.propagations", d.propagations);
            obs::counter_add("sat.conflicts", d.conflicts);
            obs::counter_add("sat.restarts", d.restarts);
            obs::counter_add("sat.learned", d.learned);
            obs::counter_add("sat.removed", d.removed);
        }
        result
    }

    /// Solve with a conflict budget; returns `None` if the budget is
    /// exhausted before an answer is reached.
    pub fn solve_limited(&mut self, max_conflicts: u64) -> Option<SatResult> {
        if !self.ok {
            // The input already conflicts at level zero: the empty clause
            // follows from the formula by unit propagation alone.
            self.log_lemma(&[]);
            return Some(SatResult::Unsat);
        }
        if self.propagate().is_some() {
            self.ok = false;
            self.log_lemma(&[]);
            return Some(SatResult::Unsat);
        }

        let mut restart_round: u64 = 0;
        let mut conflicts_this_round: u64 = 0;
        let mut restart_limit = 100 * Self::luby(0);
        let mut max_learnts = (self.clauses.len() as f64 * 0.4).max(1000.0);
        let mut total_conflicts: u64 = 0;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                total_conflicts += 1;
                conflicts_this_round += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.log_lemma(&[]);
                    return Some(SatResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.log_lemma(&learnt);
                self.cancel_until(bt);
                self.stats.learned += 1;
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let lit0 = learnt[0];
                    let cref = self.attach(learnt, true);
                    self.bump_clause(cref);
                    self.enqueue(lit0, cref);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;

                if total_conflicts >= max_conflicts {
                    self.cancel_until(0);
                    return None;
                }
                if conflicts_this_round >= restart_limit {
                    restart_round += 1;
                    conflicts_this_round = 0;
                    restart_limit = 100 * Self::luby(restart_round);
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                if self.num_learnt as f64 > max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                    max_learnts *= 1.1;
                }
            } else {
                match self.pick_branch_var() {
                    None => {
                        let model = Model::from_values(
                            (0..self.num_vars as usize)
                                .map(|v| match self.assign[v] {
                                    LBool::True => true,
                                    LBool::False => false,
                                    LBool::Undef => self.phase[v],
                                })
                                .collect(),
                        );
                        self.cancel_until(0);
                        return Some(SatResult::Sat(model));
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(v.lit(self.phase[v.index()]), NO_REASON);
                    }
                }
            }
        }
    }
}

/// Solve a CNF formula with the CDCL solver.
pub fn solve_cdcl(cnf: &Cnf) -> SatResult {
    CdclSolver::new(cnf).solve()
}

/// Solve `cnf` with the CDCL solver and certify an `Unsat` answer: the
/// solver logs its learnt clauses, and the refutation is checked by the
/// independent RUP checker ([`crate::drat::check_unsat_proof`]) before it
/// is returned. Returns the result and the solver's statistics. A `Sat`
/// model is the caller's to check against what the formula encodes.
///
/// # Panics
///
/// If the refutation proof fails the checker (a solver bug).
pub fn solve_certified(cnf: &Cnf) -> (SatResult, SolverStats) {
    let mut solver = CdclSolver::new(cnf);
    solver.enable_proof_logging();
    let result = solver.solve();
    if matches!(result, SatResult::Unsat) {
        let proof = solver.take_proof().expect("logging enabled");
        assert_eq!(
            crate::drat::check_unsat_proof(cnf, &proof),
            crate::drat::ProofCheck::Valid,
            "CDCL produced an invalid refutation proof — solver bug"
        );
    }
    (result, solver.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(code: i64) -> Lit {
        Lit::from_dimacs(code)
    }

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&x| lit(x)));
        }
        f
    }

    fn assert_sat(f: &Cnf) {
        match solve_cdcl(f) {
            SatResult::Sat(m) => assert_eq!(f.eval(&m), Some(true), "model must satisfy"),
            SatResult::Unsat => panic!("expected SAT"),
        }
    }

    fn assert_unsat(f: &Cnf) {
        assert_eq!(solve_cdcl(f), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        assert_sat(&Cnf::new());
    }

    #[test]
    fn single_unit_clause() {
        assert_sat(&cnf(&[&[1]]));
    }

    #[test]
    fn contradictory_units_unsat() {
        assert_unsat(&cnf(&[&[1], &[-1]]));
    }

    #[test]
    fn empty_clause_unsat() {
        let mut f = Cnf::new();
        f.add_clause([]);
        assert_unsat(&f);
    }

    #[test]
    fn simple_implication_chain() {
        // x1, x1→x2, x2→x3, check x3 forced true.
        let f = cnf(&[&[1], &[-1, 2], &[-2, 3]]);
        match solve_cdcl(&f) {
            SatResult::Sat(m) => {
                assert_eq!(m.value(Var(2)), Some(true));
            }
            SatResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn all_binary_clauses_unsat() {
        // (a∨b)(a∨¬b)(¬a∨b)(¬a∨¬b) is unsat.
        assert_unsat(&cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. i∈{1..3}, j∈{1,2}.
        // var(i,j) = 2(i-1)+j
        let v = |i: i64, j: i64| 2 * (i - 1) + j;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 1..=3 {
            clauses.push(vec![v(i, 1), v(i, 2)]);
        }
        for j in 1..=2 {
            for i1 in 1..=3 {
                for i2 in (i1 + 1)..=3 {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        assert_unsat(&cnf(&refs));
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let holes = 3i64;
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
        assert_unsat(&cnf(&refs));
    }

    #[test]
    fn tautological_clause_ignored() {
        let f = cnf(&[&[1, -1], &[2]]);
        assert_sat(&f);
    }

    #[test]
    fn duplicate_literals_deduped() {
        assert_sat(&cnf(&[&[1, 1, 1], &[-1, -1, 2]]));
    }

    #[test]
    fn conflict_budget_returns_none_or_answer() {
        // A formula needing some search; budget of 0 conflicts may bail.
        let f = cnf(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[-1, 2, 3]]);
        let mut s = CdclSolver::new(&f);
        match s.solve_limited(u64::MAX) {
            Some(SatResult::Sat(m)) => assert_eq!(f.eval(&m), Some(true)),
            Some(SatResult::Unsat) => panic!("formula is satisfiable"),
            None => unreachable!(),
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(CdclSolver::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn stats_populated() {
        let f = cnf(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2, 3]]);
        let mut s = CdclSolver::new(&f);
        let r = s.solve();
        assert!(r.is_sat());
        assert!(s.stats().propagations > 0);
    }
}
