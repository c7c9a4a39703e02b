//! Exact VMC decision: the single-address search as a
//! [`TransitionSystem`] on the exact-search kernel ([`crate::kernel`]).
//!
//! Worst-case exponential — necessarily so, since VMC is NP-complete
//! (Theorem 4.2) — but with two powerful admissible prunings:
//!
//! 1. **Greedy read absorption** ([`TransitionSystem::absorb`]). A pending
//!    read whose value matches the current memory value can always be
//!    scheduled immediately: doing so changes no state and only releases
//!    program-order successors, so any coherent schedule can be rewritten
//!    into one that schedules it now.
//! 2. **Memoization** (the kernel's memo). After greedy absorption, the
//!    search state is exactly `(frontier, current value)`, packed by a
//!    [`crate::kernel::KeyPacker`]: each process's frontier in the bits
//!    its history length needs, then the value in a word of its own;
//!    re-entering a visited state cannot succeed. For `k`
//!    processes this also bounds the state space polynomially —
//!    O(n^k · n) states — so this same procedure *is* the polynomial
//!    algorithm for the "constant processes" row of Figure 5.3 (cf.
//!    Gibbons & Korach's O(k·n^k) bound).
//!
//! Dead-end detection: a pending read needing value `v ≠ current` with no
//! remaining writes of `v` can never be served; the state is refuted
//! immediately (uncounted). Writes that some blocked read is waiting for
//! are explored first.
//!
//! The inference prunings of [`PruneConfig`] ride on the kernel's hooks:
//! position windows reject branches in [`TransitionSystem::admit`], the
//! nogood probe runs in [`TransitionSystem::refute`] (after the dead-end
//! check) and nogoods are learned in [`TransitionSystem::exhausted`];
//! symmetry breaking drops interchangeable moves as
//! [`TransitionSystem::enabled_moves`] enumerates them.

use crate::closure::{self, ClosureOutcome, Tier};
use crate::kernel::{self, KernelConfig, KernelOutcome, TransitionSystem};
use crate::verdict::{Verdict, Violation, ViolationKind};
use crate::windows::WindowTable;
use std::cell::Cell;
use vermem_trace::{AddrOps, Op, OpRef, Schedule, Value};
use vermem_util::hash::{FxHashMap, FxHashSet};
use vermem_util::obs;

pub use crate::kernel::SearchStats;

/// Which inference-driven prunings the exact search applies. All three
/// are *admissible*: they shrink the explored tree but provably never
/// change the verdict (soundness arguments in DESIGN.md §4b), so each is
/// independently switchable for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneConfig {
    /// Feasibility-interval propagation ([`crate::windows`]): a polynomial
    /// pre-pass that can fast-reject (emptied serving window / must-precede
    /// cycle / RMW pigeonhole), fast-accept (acyclic forced serving order
    /// that simulates coherent), and otherwise leaves per-op position
    /// windows that prune DFS branches scheduling an op outside them.
    pub windows: bool,
    /// Value-symmetry breaking: branch-time canonicalization of moves whose
    /// remaining program-order suffixes are identical (interchangeable
    /// processes) — only the lowest-numbered process branches.
    pub symmetry: bool,
    /// Conflict-driven nogood learning: refuted `(frontier, value)` states
    /// are recorded under a process-identity-erased canonical key, so the
    /// refutation also prunes every permuted twin state (a strict
    /// generalization of the exact-state memo table).
    pub nogoods: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig::all()
    }
}

impl PruneConfig {
    /// All three techniques enabled (the default).
    pub fn all() -> Self {
        PruneConfig {
            windows: true,
            symmetry: true,
            nogoods: true,
        }
    }

    /// Every technique disabled.
    pub fn none() -> Self {
        PruneConfig {
            windows: false,
            symmetry: false,
            nogoods: false,
        }
    }

    /// Parse a CLI spec: `all`, `none`, or a comma-separated subset of
    /// `windows`, `symmetry`, `nogoods` (e.g. `windows,nogoods`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "all" => return Ok(Self::all()),
            "none" => return Ok(Self::none()),
            _ => {}
        }
        let mut cfg = Self::none();
        for part in spec.split(',') {
            match part.trim() {
                "windows" => cfg.windows = true,
                "symmetry" => cfg.symmetry = true,
                "nogoods" => cfg.nogoods = true,
                other => {
                    return Err(format!(
                        "unknown prune technique '{other}' (expected all, none, \
                         or a comma-separated subset of windows/symmetry/nogoods)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Canonical spec string (`all`, `none`, or the comma-joined subset).
    pub fn spec(&self) -> String {
        match (self.windows, self.symmetry, self.nogoods) {
            (true, true, true) => "all".into(),
            (false, false, false) => "none".into(),
            _ => {
                let mut parts = Vec::new();
                if self.windows {
                    parts.push("windows");
                }
                if self.symmetry {
                    parts.push("symmetry");
                }
                if self.nogoods {
                    parts.push("nogoods");
                }
                parts.join(",")
            }
        }
    }
}

/// Budget and pruning knobs for the exact search. Flipping a
/// [`PruneConfig`] technique changes performance only, never answers.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchConfig {
    /// Maximum distinct states to visit before giving up with
    /// [`Verdict::Unknown`]. `None` = unlimited.
    pub max_states: Option<u64>,
    /// Inference-driven pruning techniques. Defaults to all on.
    pub prune: PruneConfig,
}

/// Static prechecks shared by all solvers: values read but never written,
/// and unproducible final values. Returns a violation if one is certain.
/// Reports the first violation in [`AddrOps::iter`] order, which is the
/// filtered-`iter_ops` order of the trace.
pub fn precheck_ops(ops: &AddrOps) -> Option<Violation> {
    let initial = ops.initial();
    for (r, op) in ops.iter() {
        if let Some(v) = op.read_value() {
            if v != initial && ops.writes_of(v) == 0 {
                return Some(Violation {
                    addr: ops.addr(),
                    kind: ViolationKind::NoWriterForValue { read: r, value: v },
                });
            }
        }
    }
    if let Some(f) = ops.final_value() {
        let producible = if ops.write_counts().is_empty() {
            f == initial
        } else {
            ops.writes_of(f) > 0
        };
        if !producible {
            return Some(Violation {
                addr: ops.addr(),
                kind: ViolationKind::FinalValueUnwritable { value: f },
            });
        }
    }
    None
}

/// Decide coherence of one address's VMC instance by exhaustive memoized
/// search, returning search statistics with the verdict. A witness
/// references the original trace and passes
/// [`vermem_trace::check_coherent_schedule_ops`] on `ops`.
pub fn solve_backtracking_ops_with_stats(
    ops: &AddrOps,
    cfg: &SearchConfig,
) -> (Verdict, SearchStats) {
    let (verdict, stats, _) = solve_tiered_ops(ops, cfg);
    if let Verdict::Coherent(witness) = &verdict {
        debug_assert!(
            vermem_trace::check_coherent_schedule_ops(ops, witness).is_ok(),
            "solver produced invalid witness"
        );
    }
    (verdict, stats)
}

/// As [`solve_backtracking_ops_with_stats`], also naming the tier that
/// decided. With `prune.windows` on, the precheck and feasibility-interval
/// pre-pass are the closure frontline ([`closure::analyze_ops`]): it can
/// decide the instance outright ([`Tier::Frontline`]), and otherwise hands
/// its window table to the search ([`Tier::Exact`]).
pub(crate) fn solve_tiered_ops(ops: &AddrOps, cfg: &SearchConfig) -> (Verdict, SearchStats, Tier) {
    if !cfg.prune.windows {
        if let Some(v) = precheck_ops(ops) {
            return (Verdict::Incoherent(v), SearchStats::default(), Tier::Exact);
        }
        let (verdict, stats) = solve_escalated_ops_with_stats(ops, cfg, None);
        return (verdict, stats, Tier::Exact);
    }
    match closure::analyze_ops(ops) {
        (ClosureOutcome::Coherent(s), stats) => (Verdict::Coherent(s), stats, Tier::Frontline),
        (ClosureOutcome::Violation(v), stats) => (Verdict::Incoherent(v), stats, Tier::Frontline),
        (ClosureOutcome::Escalate(table), _) => {
            let (verdict, stats) = solve_escalated_ops_with_stats(ops, cfg, Some(table));
            (verdict, stats, Tier::Exact)
        }
    }
}

/// Exact-tier **escalation** entry point: run the memoized search with the
/// [`WindowTable`] the closure frontline ([`crate::closure`]) already
/// computed, instead of re-running the fixpoint analysis.
///
/// Contract: the caller must have run [`precheck_ops`] (the frontline
/// does), and `window` must be the table from that same analysis when
/// `cfg.prune.windows` is on (`None` disables window pruning in the search,
/// matching `prune.windows = false`). Under that contract the result —
/// verdict, witness, and [`SearchStats`] — is bit-identical to
/// [`solve_backtracking_ops_with_stats`], which delegates here after the
/// frontline.
pub fn solve_escalated_ops_with_stats(
    ops: &AddrOps,
    cfg: &SearchConfig,
    window_table: Option<WindowTable>,
) -> (Verdict, SearchStats) {
    let mut sys = VmcSystem::new(ops, &cfg.prune, window_table);
    let kernel_cfg = KernelConfig {
        max_states: cfg.max_states,
        ..KernelConfig::default()
    };
    let (outcome, mut stats) = kernel::run_search(&mut sys, &kernel_cfg, None);
    stats.symmetry_prunes = sys.symmetry_prunes.get();

    // The kernel flushed the counters every system shares; these fields
    // only VMC sets.
    if obs::enabled() {
        obs::counter_add("search.symmetry.prunes", stats.symmetry_prunes);
        obs::counter_add("search.nogood.hits", stats.nogood_hits);
        obs::counter_add("search.nogood.learned", stats.nogoods_learned);
    }

    let verdict = match outcome {
        KernelOutcome::Accepted(refs) => Verdict::Coherent(Schedule::from_refs(refs)),
        KernelOutcome::Refuted => Verdict::Incoherent(Violation {
            addr: ops.addr(),
            kind: ViolationKind::SearchExhausted,
        }),
        KernelOutcome::BudgetExhausted | KernelOutcome::Cancelled => Verdict::Unknown,
    };
    (verdict, stats)
}

/// Hash-cons program-order suffixes from the back: `out[p][j]` is the
/// class id of the op sequence `per_proc[p][j..]`, with `0` reserved for
/// the empty suffix. Equal ids ⇔ identical remaining op sequences.
fn suffix_classes(per_proc: &[Vec<(OpRef, Op)>]) -> Vec<Vec<u32>> {
    let mut intern: FxHashMap<(Op, u32), u32> = FxHashMap::default();
    let mut next = 1u32;
    per_proc
        .iter()
        .map(|h| {
            let mut cls = vec![0u32; h.len() + 1];
            for j in (0..h.len()).rev() {
                let key = (h[j].1, cls[j + 1]);
                let id = match intern.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = next;
                        next += 1;
                        intern.insert(key, id);
                        id
                    }
                };
                cls[j] = id;
            }
            cls
        })
        .collect()
}

/// One VMC move: schedule the next op of process `proc`. `prev` is the
/// memory value before the move, restored by undo.
#[derive(Clone, Copy, Debug)]
struct VmcMove {
    proc: usize,
    prev: Value,
}

/// The single-address VMC machine: per-process frontiers over the
/// address's operations, the current memory value, and how many writes of
/// each value are still unscheduled.
struct VmcSystem<'a> {
    per_proc: &'a [Vec<(OpRef, Op)>],
    total: usize,
    final_value: Option<Value>,
    frontier: Vec<u32>,
    current: Value,
    remaining_writes: FxHashMap<Value, u32>,
    /// Memo key layout: per-process frontiers, then the current value.
    key: kernel::KeyPacker,
    /// Surviving feasibility windows from [`crate::windows::analyze`]
    /// (`None` when the technique is off or the pre-pass was skipped).
    window: Option<WindowTable>,
    symmetry: bool,
    /// Program-order suffix classes (see [`suffix_classes`]); empty when
    /// neither symmetry breaking nor nogood learning is on.
    suffix_class: Vec<Vec<u32>>,
    /// True iff nogood learning is on *and* at least two processes have
    /// identical full histories (otherwise the canonical key is a
    /// bijection of the memo key and the table would only duplicate it).
    has_twins: bool,
    /// Learned nogoods: canonical keys of refuted `(frontier, value)`
    /// states. The key erases process identity — the sorted multiset of
    /// per-process `(full-history class, frontier position)` pairs with
    /// the current value appended — so one refutation prunes every state
    /// reachable by permuting identical-history processes.
    nogoods: FxHashSet<Box<[u64]>>,
    /// Key-construction scratch (probe allocates nothing).
    nogood_scratch: Vec<u64>,
    /// Moves dropped by symmetry breaking, tallied during enumeration
    /// (which only borrows the machine) and added to the stats at the end.
    symmetry_prunes: Cell<u64>,
}

impl<'a> VmcSystem<'a> {
    fn new(ops: &'a AddrOps, prune: &PruneConfig, window: Option<WindowTable>) -> Self {
        let per_proc = ops.per_proc();
        // Hash-consed program-order suffix classes (computed only when a
        // technique that consumes them is on).
        let suffix_class = if prune.symmetry || prune.nogoods {
            suffix_classes(per_proc)
        } else {
            Vec::new()
        };
        // Nogood learning only pays (and is only distinct from the memo
        // table) when at least two processes have identical full histories.
        let has_twins = prune.nogoods && {
            let mut roots: Vec<u32> = suffix_class.iter().map(|c| c[0]).collect();
            roots.sort_unstable();
            roots.windows(2).any(|w| w[0] == w[1])
        };
        VmcSystem {
            per_proc,
            total: ops.num_ops(),
            final_value: ops.final_value(),
            frontier: vec![0; per_proc.len()],
            current: ops.initial(),
            remaining_writes: ops
                .write_counts()
                .iter()
                .map(|(&v, &c)| (v, c as u32))
                .collect(),
            key: kernel::KeyPacker::new(
                per_proc
                    .iter()
                    .map(|ops| ops.len() as u64)
                    .chain([u64::MAX]),
            ),
            window,
            symmetry: prune.symmetry,
            suffix_class,
            has_twins,
            nogoods: FxHashSet::default(),
            nogood_scratch: Vec::new(),
            symmetry_prunes: Cell::new(0),
        }
    }

    /// The next unscheduled op of process `p`, if any.
    fn next_op(&self, p: usize) -> Option<Op> {
        self.per_proc[p]
            .get(self.frontier[p] as usize)
            .map(|&(_, op)| op)
    }

    /// A value other than the current one with no write left to supply it.
    fn starved(&self, v: Value) -> bool {
        v != self.current && self.remaining_writes.get(&v).copied().unwrap_or(0) == 0
    }

    /// Canonical nogood key of the current state, built in the scratch
    /// buffer taken from `self`; the caller hands the buffer back.
    fn nogood_key(&mut self) -> Vec<u64> {
        let mut key = std::mem::take(&mut self.nogood_scratch);
        build_nogood_key(&mut key, &self.suffix_class, &self.frontier, self.current);
        key
    }
}

// The kernel's recursive DFS calls these once per state or branch; left
// to the inliner's defaults, several of them stay out of line there.
impl TransitionSystem for VmcSystem<'_> {
    type Move = VmcMove;

    #[inline]
    fn total_commits(&self) -> usize {
        self.total
    }

    #[inline]
    fn accepting(&self) -> bool {
        self.final_value.is_none_or(|f| f == self.current)
    }

    #[inline]
    fn absorb(&mut self, commits: &mut Vec<OpRef>) {
        loop {
            let mut progressed = false;
            for p in 0..self.frontier.len() {
                while let Some(&(r, Op::Read { value, .. })) =
                    self.per_proc[p].get(self.frontier[p] as usize)
                {
                    if value != self.current {
                        break;
                    }
                    commits.push(r);
                    self.frontier[p] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    #[inline]
    fn retract_read(&mut self, r: OpRef) {
        self.frontier[r.proc.0 as usize] -= 1;
    }

    #[inline]
    fn infeasible(&self) -> bool {
        false
    }

    #[inline]
    fn state_key(&self, key: &mut Vec<u64>) {
        self.key.pack(
            self.frontier
                .iter()
                .map(|&f| u64::from(f))
                .chain([self.current.0]),
            key,
        );
    }

    /// Writes and current-value RMWs (pending matching reads were
    /// absorbed), writes whose value some blocked read is waiting for
    /// first, each group in process order.
    ///
    /// Value-symmetry breaking: moves whose processes have identical
    /// remaining suffixes are interchangeable — a coherent completion
    /// taking one exists iff one taking the other does (role-swap of the
    /// identical suffixes) — so only the first (lowest process id)
    /// branches. Equal suffixes mean equal ops, hence equal hotness, so
    /// the first of each class in exploration order is the lowest id.
    #[inline]
    fn enabled_moves(&self, moves: &mut Vec<VmcMove>) {
        let mut demanded: FxHashSet<Value> = FxHashSet::default();
        for p in 0..self.frontier.len() {
            if let Some(need) = self.next_op(p).and_then(|op| op.read_value()) {
                if need != self.current {
                    demanded.insert(need);
                }
            }
        }
        let class = |p: usize| self.suffix_class[p][self.frontier[p] as usize];
        for hot in [true, false] {
            for p in 0..self.frontier.len() {
                let Some(op) = self.next_op(p) else { continue };
                let enabled = match op {
                    Op::Write { .. } => true,
                    Op::Rmw { read, .. } => read == self.current,
                    Op::Read { .. } => false,
                };
                if !enabled || op.written_value().is_some_and(|v| demanded.contains(&v)) != hot {
                    continue;
                }
                if self.symmetry && moves.iter().any(|mv| class(mv.proc) == class(p)) {
                    self.symmetry_prunes.set(self.symmetry_prunes.get() + 1);
                    continue;
                }
                moves.push(VmcMove {
                    proc: p,
                    prev: self.current,
                });
            }
        }
    }

    #[inline]
    fn refute(&mut self, stats: &mut SearchStats) -> bool {
        // Dead ends (uncounted): a blocked read, or the final value, needs
        // a value no remaining write can supply.
        let blocked = (0..self.frontier.len()).any(|p| {
            self.next_op(p)
                .and_then(|op| op.read_value())
                .is_some_and(|v| self.starved(v))
        });
        if blocked || self.final_value.is_some_and(|f| self.starved(f)) {
            return true;
        }

        // Nogood probe: the canonical key erases process identity, so a
        // hit means some permuted twin of this state was already refuted —
        // and the instance is invariant under permutations of
        // identical-history processes, so this state is refuted too.
        // Probed after the memo insert so `memo_misses == states` holds.
        if self.has_twins {
            let key = self.nogood_key();
            let hit = self.nogoods.contains(key.as_slice());
            self.nogood_scratch = key;
            if hit {
                stats.nogood_hits += 1;
                return true;
            }
        }
        false
    }

    /// Window prune: the op would occupy schedule position `depth`; if its
    /// propagated feasibility window excludes that position, no coherent
    /// schedule places it there.
    #[inline]
    fn admit(&self, mv: VmcMove, depth: usize) -> bool {
        self.window
            .as_ref()
            .is_none_or(|w| w.allows(mv.proc, self.frontier[mv.proc], depth))
    }

    #[inline]
    fn apply(&mut self, mv: VmcMove) -> Option<OpRef> {
        let (r, op) = self.per_proc[mv.proc][self.frontier[mv.proc] as usize];
        self.frontier[mv.proc] += 1;
        if let Some(written) = op.written_value() {
            *self.remaining_writes.get_mut(&written).expect("counted") -= 1;
            self.current = written;
        }
        Some(r)
    }

    #[inline]
    fn undo(&mut self, mv: VmcMove) {
        self.frontier[mv.proc] -= 1;
        let (_, op) = self.per_proc[mv.proc][self.frontier[mv.proc] as usize];
        if let Some(written) = op.written_value() {
            *self.remaining_writes.get_mut(&written).expect("counted") += 1;
        }
        self.current = mv.prev;
    }

    /// Every move failed without a budget hit: learn this state's
    /// canonical projection as a nogood.
    #[inline]
    fn exhausted(&mut self, stats: &mut SearchStats) {
        if self.has_twins {
            let key = self.nogood_key();
            if self.nogoods.insert(key.clone().into_boxed_slice()) {
                stats.nogoods_learned += 1;
            }
            self.nogood_scratch = key;
        }
    }
}

/// Canonical nogood key of a post-absorption search state: the sorted
/// multiset of per-process `(full-history class << 32) | frontier` words,
/// with the current value appended. Sorting erases process identity, which
/// is exactly the invariance the instance has under permutations of
/// identical-history processes.
fn build_nogood_key(key: &mut Vec<u64>, suffix_class: &[Vec<u32>], frontier: &[u32], value: Value) {
    key.clear();
    for (p, &f) in frontier.iter().enumerate() {
        key.push((u64::from(suffix_class[p][0]) << 32) | u64::from(f));
    }
    key.sort_unstable();
    key.push(value.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{check_coherent_schedule, Addr, Op, Trace, TraceBuilder};

    fn solve(trace: &Trace) -> Verdict {
        let ops = AddrOps::of(trace, Addr::ZERO);
        solve_backtracking_ops_with_stats(&ops, &SearchConfig::default()).0
    }

    #[test]
    fn empty_trace_is_coherent() {
        let t = Trace::new();
        assert!(solve(&t).is_coherent());
    }

    #[test]
    fn single_write_read_pair() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn unwritten_read_value_detected_by_precheck() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(9u64)])
            .build();
        match solve(&t) {
            Verdict::Incoherent(v) => {
                assert!(matches!(v.kind, ViolationKind::NoWriterForValue { .. }))
            }
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn read_of_initial_value_ok() {
        let t = TraceBuilder::new()
            .proc([Op::r(5u64), Op::w(1u64)])
            .initial(0u32, 5u64)
            .build();
        assert!(solve(&t).is_coherent());
    }

    #[test]
    fn order_sensitive_instance() {
        // P0: W(1) R(2); P1: W(2) R(1) — coherent: W(1) R? no...
        // W(1), W(2): after both, current=last. Schedule: W(1),W(2),R(2)..R(1)
        // fails (R(1) after W(2) sees 2). Try W(2),W(1): R(1) ok then R(2)?
        // sees 1 — fails. Interleave: W(1); W(2); no. W(1), R? P0's R(2)
        // blocked. Actually: P1:W(2), P0:W(1), P1:R(1), then P0:R(2)? current
        // is 1 — fails. P0:W(1), P1:W(2), P0:R(2), P1:R(1)? R(1) sees 2 —
        // fails. Incoherent.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        match solve(&t) {
            Verdict::Incoherent(v) => {
                assert_eq!(v.kind, ViolationKind::SearchExhausted)
            }
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn rewrite_makes_it_coherent() {
        // Same as above but values rewritten once more: coherent.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64), Op::w(2u64)])
            .build();
        // W(1) [P0], ... hmm trust the solver + checker.
        let v = solve(&t);
        if let Some(s) = v.schedule() {
            check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        } else {
            // Verify by brute force that it is indeed incoherent.
            assert!(brute_force(&t).is_none());
        }
    }

    #[test]
    fn final_value_constraint_respected() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("coherent with W(2) before W(1)");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn final_value_unwritable_detected() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .final_value(0u32, 9u64)
            .build();
        match solve(&t) {
            Verdict::Incoherent(v) => {
                assert_eq!(
                    v.kind,
                    ViolationKind::FinalValueUnwritable { value: Value(9) }
                )
            }
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn rmw_chain_ordering() {
        // Three RMWs forming a forced chain 0->1->2->3.
        let t = TraceBuilder::new()
            .proc([Op::rw(1u64, 2u64)])
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(2u64, 3u64)])
            .build();
        let v = solve(&t);
        let s = v.schedule().expect("chain exists");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        // Order must be P1, P0, P2.
        let procs: Vec<u16> = s.refs().iter().map(|r| r.proc.0).collect();
        assert_eq!(procs, vec![1, 0, 2]);
    }

    #[test]
    fn budget_produces_unknown_on_hard_instance() {
        let (t, _) = vermem_trace::gen::gen_hard_coherent(6, 8, 2, 3);
        let cfg = SearchConfig {
            max_states: Some(1),
            ..Default::default()
        };
        let (v, _) = solve_backtracking_ops_with_stats(&AddrOps::of(&t, Addr::ZERO), &cfg);
        // With a 1-state budget the solver can only answer if the instance
        // is trivially easy; accept Coherent-or-Unknown but never wrong.
        if let Verdict::Coherent(s) = &v {
            check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        }
    }

    #[test]
    fn generated_coherent_traces_verify() {
        for seed in 0..20 {
            let (t, _) = vermem_trace::gen::gen_hard_coherent(4, 6, 2, seed);
            let v = solve(&t);
            let s = v
                .schedule()
                .unwrap_or_else(|| panic!("generated trace must be coherent (seed {seed})"));
            check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
        }
    }

    #[test]
    fn ablation_configurations_agree() {
        use vermem_util::rng::StdRng;
        let configs = [
            SearchConfig::default(),
            SearchConfig {
                prune: PruneConfig::none(),
                ..Default::default()
            },
            SearchConfig {
                prune: PruneConfig::parse("windows").unwrap(),
                ..Default::default()
            },
            SearchConfig {
                prune: PruneConfig::parse("symmetry").unwrap(),
                ..Default::default()
            },
            SearchConfig {
                prune: PruneConfig::parse("nogoods").unwrap(),
                ..Default::default()
            },
        ];
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(123_000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..3) {
                            0 => Op::r(v),
                            1 => Op::w(v),
                            _ => Op::rw(v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let ops = AddrOps::of(&t, Addr::ZERO);
            let reference = solve_backtracking_ops_with_stats(&ops, &configs[0])
                .0
                .is_coherent();
            for (i, cfg) in configs.iter().enumerate().skip(1) {
                let (got, _) = solve_backtracking_ops_with_stats(&ops, cfg);
                assert_eq!(
                    got.is_coherent(),
                    reference,
                    "config {i} diverges on seed {seed}: {t:?}"
                );
                if let Some(s) = got.schedule() {
                    vermem_trace::check_coherent_schedule_ops(&ops, s).unwrap();
                }
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=3);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..3) {
                            0 => Op::r(v),
                            1 => Op::w(v),
                            _ => Op::rw(v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let expected = brute_force(&t).is_some();
            let got = solve(&t).is_coherent();
            assert_eq!(got, expected, "divergence on seed {seed}: {t:?}");
        }
    }

    /// Brute-force all interleavings (tiny instances only).
    fn brute_force(trace: &Trace) -> Option<Schedule> {
        fn rec(trace: &Trace, frontier: &mut Vec<u32>, acc: &mut Vec<OpRef>, total: usize) -> bool {
            if acc.len() == total {
                let s = Schedule::from_refs(acc.iter().copied());
                return check_coherent_schedule(trace, Addr::ZERO, &s).is_ok();
            }
            for p in 0..frontier.len() {
                let h = &trace.histories()[p];
                if (frontier[p] as usize) < h.len() {
                    acc.push(OpRef::new(p as u16, frontier[p]));
                    frontier[p] += 1;
                    if rec(trace, frontier, acc, total) {
                        return true;
                    }
                    frontier[p] -= 1;
                    acc.pop();
                }
            }
            false
        }
        let mut frontier = vec![0u32; trace.num_procs()];
        let mut acc = Vec::new();
        let total = trace.num_ops();
        if rec(trace, &mut frontier, &mut acc, total) {
            Some(Schedule::from_refs(acc))
        } else {
            None
        }
    }
}
