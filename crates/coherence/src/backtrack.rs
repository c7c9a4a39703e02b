//! Exact VMC decision by memoized backtracking search.
//!
//! Worst-case exponential — necessarily so, since VMC is NP-complete
//! (Theorem 4.2) — but with two powerful admissible prunings:
//!
//! 1. **Greedy read absorption.** A pending read whose value matches the
//!    current memory value can always be scheduled immediately: doing so
//!    changes no state and only releases program-order successors, so any
//!    coherent schedule can be rewritten into one that schedules it now.
//! 2. **Memoization.** After greedy absorption, the search state is exactly
//!    `(frontier, current value)`; re-entering a visited state cannot
//!    succeed. For `k` processes this also bounds the state space
//!    polynomially — O(n^k · n) states — so this same procedure *is* the
//!    polynomial algorithm for the "constant processes" row of Figure 5.3
//!    (cf. Gibbons & Korach's O(k·n^k) bound).
//!
//! Dead-end detection: a pending read needing value `v ≠ current` with no
//! remaining writes of `v` can never be served; prune immediately.
//!
//! ## Memoization hot path
//!
//! The visited-state set is the single hottest structure of the search: it
//! is probed once per explored state. Two choices keep it cheap:
//!
//! * **Fx hashing** ([`vermem_util::hash`]) instead of SipHash — one
//!   rotate/xor/multiply per word instead of a keyed cryptographic-ish
//!   permutation.
//! * **Packed frontier keys** — with ≤ 8 processes and ≤ 255 operations
//!   per process (every Figure 4/5 reduction and most practical traces),
//!   the whole frontier packs into one `u64` (one byte per process), so a
//!   visited probe allocates nothing. Larger instances fall back to an
//!   *interned* frontier: each distinct frontier is boxed once, given a
//!   dense `u32` id, and re-probes hash only `(id, value)`.

use crate::verdict::{Verdict, Violation, ViolationKind};
use crate::windows::{self, WindowOutcome, WindowTable};
use vermem_trace::{Addr, AddrOps, Op, OpRef, Schedule, Trace, Value};
use vermem_util::hash::{FxHashMap, FxHashSet};
use vermem_util::intern::SliceInterner;
use vermem_util::obs;

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

    /// Every technique disabled — the PR-2 baseline search.
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

/// Budget and ablation knobs for the exact search. The optimization
/// switches exist for the ablation benchmarks (`bench/benches/ablation.rs`)
/// and default to the fast configuration; flipping any of them changes
/// performance only, never answers.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Maximum distinct states to visit before giving up with
    /// [`Verdict::Unknown`]. `None` = unlimited.
    pub max_states: Option<u64>,
    /// Memoize visited `(frontier, value)` states (pruning 1 in the module
    /// docs; also what makes the constant-k case polynomial).
    pub memoize: bool,
    /// Greedily absorb pending reads that match the current value
    /// (pruning 2 in the module docs).
    pub greedy_absorption: bool,
    /// Try writes whose value a blocked read demands first.
    pub hot_move_ordering: bool,
    /// Inference-driven pruning techniques (PR 4). Defaults to all on.
    pub prune: PruneConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_states: None,
            memoize: true,
            greedy_absorption: true,
            hot_move_ordering: true,
            prune: PruneConfig::all(),
        }
    }
}

/// Counters from a search run.
///
/// Plain always-on fields (not gated by observability): they are part of
/// the determinism contract — identical whether `vermem_util::obs` is
/// enabled or not, and summed field-wise by the parallel reducer
/// ([`SearchStats::absorb`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct (post-absorption) states visited.
    pub states: u64,
    /// Branching decisions explored.
    pub branches: u64,
    /// Memo-table probes that found the state already visited (the
    /// search subtree was pruned).
    pub memo_hits: u64,
    /// Memo-table probes that recorded a fresh state. `memo_misses`
    /// equals `states` when memoization is on; both stay 0 when it is
    /// off.
    pub memo_misses: u64,
    /// Branches skipped (or whole instances fast-rejected) by
    /// feasibility-interval propagation ([`PruneConfig::windows`]).
    pub window_prunes: u64,
    /// Branches skipped by value-symmetry canonicalization
    /// ([`PruneConfig::symmetry`]).
    pub symmetry_prunes: u64,
    /// States refuted by a learned nogood that was *not* an exact memo
    /// repeat ([`PruneConfig::nogoods`]).
    pub nogood_hits: u64,
    /// Nogoods recorded from refuted subtrees.
    pub nogoods_learned: u64,
}

impl SearchStats {
    /// Field-wise summation — the reduction used by the parallel
    /// engine when combining per-address runs.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.states += other.states;
        self.branches += other.branches;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.window_prunes += other.window_prunes;
        self.symmetry_prunes += other.symmetry_prunes;
        self.nogood_hits += other.nogood_hits;
        self.nogoods_learned += other.nogoods_learned;
    }

    /// Render as a `search` section of the unified run report (the one
    /// shared pretty-printer in [`vermem_util::obs::report`]).
    pub fn to_report(&self) -> vermem_util::obs::report::RunReportSection {
        vermem_util::obs::report::RunReportSection::new("search")
            .with("states", self.states)
            .with("branches", self.branches)
            .with("memo_hits", self.memo_hits)
            .with("memo_misses", self.memo_misses)
            .with("window_prunes", self.window_prunes)
            .with("symmetry_prunes", self.symmetry_prunes)
            .with("nogood_hits", self.nogood_hits)
            .with("nogoods_learned", self.nogoods_learned)
    }
}

/// Static prechecks shared by all solvers: values read but never written,
/// and unproducible final values. Returns a violation if one is certain.
///
/// Standalone signature kept for existing callers; it indexes the address
/// itself. Solvers that already hold an [`AddrOps`] (the dispatcher, the
/// parallel engine) call [`precheck_ops`] and skip the re-scan.
pub fn precheck(trace: &Trace, addr: Addr) -> Option<Violation> {
    precheck_ops(&AddrOps::of(trace, addr))
}

/// As [`precheck`], on a pre-built per-address index entry (no trace scan).
/// Reports the same first violation as `precheck`: [`AddrOps::iter`] yields
/// operations in exactly the filtered-`iter_ops` order.
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

/// Decide coherence of the operations of `trace` at `addr` by exhaustive
/// memoized search. The returned witness schedule references `trace`
/// directly and always passes [`vermem_trace::check_coherent_schedule`].
pub fn solve_backtracking(trace: &Trace, addr: Addr, cfg: &SearchConfig) -> Verdict {
    solve_backtracking_with_stats(trace, addr, cfg).0
}

/// As [`solve_backtracking`], also returning search statistics.
pub fn solve_backtracking_with_stats(
    trace: &Trace,
    addr: Addr,
    cfg: &SearchConfig,
) -> (Verdict, SearchStats) {
    let (verdict, stats) = solve_backtracking_ops_with_stats(&AddrOps::of(trace, addr), cfg);
    if let Verdict::Coherent(witness) = &verdict {
        debug_assert!(
            vermem_trace::check_coherent_schedule(trace, addr, witness).is_ok(),
            "solver produced invalid witness"
        );
    }
    (verdict, stats)
}

/// As [`solve_backtracking`], on a pre-built per-address index entry.
pub fn solve_backtracking_ops(ops: &AddrOps, cfg: &SearchConfig) -> Verdict {
    solve_backtracking_ops_with_stats(ops, cfg).0
}

/// As [`solve_backtracking_with_stats`], on a pre-built per-address index
/// entry — the zero-rescan entry point used by the dispatcher and the
/// parallel engine.
pub fn solve_backtracking_ops_with_stats(
    ops: &AddrOps,
    cfg: &SearchConfig,
) -> (Verdict, SearchStats) {
    let mut stats = SearchStats::default();
    if let Some(v) = precheck_ops(ops) {
        return (Verdict::Incoherent(v), stats);
    }

    // Feasibility-interval propagation (PR 4, technique 1): a polynomial
    // pre-pass that can decide the instance outright, and otherwise leaves
    // per-op position windows for DFS branch pruning.
    let mut window_table: Option<WindowTable> = None;
    if cfg.prune.windows {
        match windows::analyze(ops) {
            WindowOutcome::Infeasible => {
                // Equivalent to exhausting the search without a witness:
                // report the same violation kind for first-violation parity
                // with the unpruned engine.
                stats.window_prunes = 1;
                if obs::enabled() {
                    obs::counter_add("search.window.prunes", stats.window_prunes);
                    obs::counter_add("search.window.fast_reject", 1);
                }
                return (
                    Verdict::Incoherent(Violation {
                        addr: ops.addr(),
                        kind: ViolationKind::SearchExhausted,
                    }),
                    stats,
                );
            }
            WindowOutcome::Schedule(s) => {
                if obs::enabled() {
                    obs::counter_add("search.window.fast_accept", 1);
                }
                return (Verdict::Coherent(Schedule::from_refs(s)), stats);
            }
            WindowOutcome::Table(t) => window_table = Some(t),
        }
    }
    solve_escalated_ops_with_stats(ops, cfg, window_table)
}

/// Exact-tier **escalation** entry point: run the memoized DFS with the
/// [`WindowTable`] the closure frontline ([`crate::closure`]) already
/// computed, instead of re-running the fixpoint analysis.
///
/// Contract: the caller must have run [`precheck_ops`] (the frontline
/// does), and `window` must be the table from that same analysis when
/// `cfg.prune.windows` is on (`None` disables window pruning in the DFS,
/// matching `prune.windows = false`). Under that contract the result —
/// verdict, witness, and [`SearchStats`] — is bit-identical to
/// [`solve_backtracking_ops_with_stats`], which itself now delegates here
/// after its inline pre-passes.
pub fn solve_escalated_ops_with_stats(
    ops: &AddrOps,
    cfg: &SearchConfig,
    window_table: Option<WindowTable>,
) -> (Verdict, SearchStats) {
    let mut stats = SearchStats::default();
    let per_proc = ops.per_proc();
    let total = ops.num_ops();
    let initial = ops.initial();
    let final_value = ops.final_value();

    let mut remaining_writes: FxHashMap<Value, u32> = ops
        .write_counts()
        .iter()
        .map(|(&v, &c)| (v, c as u32))
        .collect();

    // Hash-consed program-order suffix classes (computed only when a
    // technique that consumes them is on): two `(proc, index)` positions
    // share a class iff the op sequences from there to the end of their
    // histories are identical. Class at index 0 is the *full-history*
    // class used by nogood canonicalization.
    let suffix_class = if cfg.prune.symmetry || cfg.prune.nogoods {
        suffix_classes(per_proc)
    } else {
        Vec::new()
    };
    // Nogood learning only pays (and is only distinct from the memo table)
    // when at least two processes have identical full histories.
    let has_twins = cfg.prune.nogoods && {
        let mut roots: Vec<u32> = suffix_class.iter().map(|c| c[0]).collect();
        roots.sort_unstable();
        roots.windows(2).any(|w| w[0] == w[1])
    };

    let mut search = Search {
        per_proc,
        total,
        final_value,
        visited: Visited::for_instance(per_proc),
        schedule: Vec::with_capacity(total),
        cfg: *cfg,
        stats: &mut stats,
        budget_hit: false,
        window: window_table,
        suffix_class,
        has_twins,
        nogoods: FxHashSet::default(),
        nogood_scratch: Vec::new(),
        class_scratch: Vec::new(),
        // Decide once per solve: a local depth histogram only when
        // observability is recording, so the disabled hot path carries
        // no `Option` update at all (the `if let` never matches).
        depth_hist: if obs::enabled() {
            Some(obs::Histogram::new())
        } else {
            None
        },
    };
    let mut frontier = vec![0u32; per_proc.len()];
    let found = search.dfs(&mut frontier, initial, &mut remaining_writes);
    let budget_hit = search.budget_hit;
    let schedule = std::mem::take(&mut search.schedule);
    let memo_key_kind = match &search.visited {
        Visited::Packed(_) => "packed",
        Visited::Interned { .. } => "interned",
    };
    let depth_hist = search.depth_hist.take();
    drop(search);

    // Batch-flush the whole solve into the registry (one lock touch per
    // address, never per state). `SearchStats` itself stays obs-free.
    if obs::enabled() {
        obs::counter_add("search.states", stats.states);
        obs::counter_add("search.branches", stats.branches);
        obs::counter_add("search.memo.hits", stats.memo_hits);
        obs::counter_add("search.memo.misses", stats.memo_misses);
        obs::counter_add("search.window.prunes", stats.window_prunes);
        obs::counter_add("search.symmetry.prunes", stats.symmetry_prunes);
        obs::counter_add("search.nogood.hits", stats.nogood_hits);
        obs::counter_add("search.nogood.learned", stats.nogoods_learned);
        obs::counter_add(&format!("search.memo.keys.{memo_key_kind}"), 1);
        if let Some(h) = &depth_hist {
            obs::merge_histogram("search.depth", h);
        }
    }

    let verdict = if found {
        Verdict::Coherent(Schedule::from_refs(schedule))
    } else if budget_hit {
        Verdict::Unknown
    } else {
        Verdict::Incoherent(Violation {
            addr: ops.addr(),
            kind: ViolationKind::SearchExhausted,
        })
    };
    (verdict, stats)
}

/// The visited-state set, specialised to the instance shape (see the
/// module docs). Both representations memoize exactly the set of
/// `(frontier, value)` pairs; they differ only in key encoding, so the
/// search explores the identical state sequence under each (pinned at the
/// 8/9-process and 255/256-op boundaries by `tests/golden_stats.rs`).
enum Visited {
    /// ≤ 8 processes, ≤ 255 ops/process: the frontier packs into one `u64`
    /// (byte per process). Zero allocations per probe.
    Packed(FxHashSet<(u64, Value)>),
    /// General shape: intern each distinct frontier once, probe by dense id.
    /// Allocates only on first sight of a frontier (the shared
    /// [`vermem_util::intern`] machinery, also under the model-agnostic
    /// kernel of [`crate::kernel`]).
    Interned {
        /// Frontier → dense id.
        ids: SliceInterner<u32>,
        /// Visited `(frontier id, value)` pairs.
        seen: FxHashSet<(u32, Value)>,
    },
}

impl Visited {
    fn for_instance(per_proc: &[Vec<(OpRef, Op)>]) -> Visited {
        if crate::kernel::frontier_packs(per_proc.iter().map(Vec::len)) {
            Visited::Packed(FxHashSet::default())
        } else {
            Visited::Interned {
                ids: SliceInterner::new(),
                seen: FxHashSet::default(),
            }
        }
    }

    /// Record `(frontier, value)`; true if it was not already present.
    fn insert(&mut self, frontier: &[u32], value: Value) -> bool {
        match self {
            Visited::Packed(set) => {
                let mut key = 0u64;
                for (p, &f) in frontier.iter().enumerate() {
                    debug_assert!(f <= u8::MAX as u32 && p < 8, "packed key precondition");
                    key |= u64::from(f) << (8 * p);
                }
                set.insert((key, value))
            }
            Visited::Interned { ids, seen } => {
                let (id, _) = ids.intern(frontier);
                seen.insert((id, value))
            }
        }
    }
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

struct Search<'a> {
    per_proc: &'a [Vec<(OpRef, Op)>],
    total: usize,
    final_value: Option<Value>,
    visited: Visited,
    schedule: Vec<OpRef>,
    cfg: SearchConfig,
    stats: &'a mut SearchStats,
    budget_hit: bool,
    /// Surviving feasibility windows from [`crate::windows::analyze`]
    /// (`None` when the technique is off or the pre-pass was skipped).
    window: Option<WindowTable>,
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
    /// Branch-time symmetry dedup scratch.
    class_scratch: Vec<u32>,
    /// `Some` only while observability is enabled: per-state schedule
    /// depths, batch-merged into the registry at solve end.
    depth_hist: Option<obs::Histogram>,
}

impl Search<'_> {
    /// Returns true if a completing schedule was found (left in
    /// `self.schedule`).
    fn dfs(
        &mut self,
        frontier: &mut Vec<u32>,
        mut current: Value,
        remaining_writes: &mut FxHashMap<Value, u32>,
    ) -> bool {
        // Greedy absorption of matching pure reads.
        let absorbed_base = self.schedule.len();
        if self.cfg.greedy_absorption {
            loop {
                let mut progressed = false;
                #[allow(clippy::needless_range_loop)] // frontier is mutated by index
                for p in 0..frontier.len() {
                    while let Some(&(r, op)) = self.per_proc[p].get(frontier[p] as usize) {
                        match op {
                            Op::Read { value, .. } if value == current => {
                                self.schedule.push(r);
                                frontier[p] += 1;
                                progressed = true;
                            }
                            _ => break,
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        let undo = |s: &mut Self, frontier: &mut Vec<u32>| {
            while s.schedule.len() > absorbed_base {
                let r = s.schedule.pop().expect("non-empty");
                frontier[r.proc.0 as usize] -= 1;
            }
        };

        // Completion check.
        if self.schedule.len() == self.total {
            if self.final_value.is_none_or(|f| f == current) {
                return true;
            }
            undo(self, frontier);
            return false;
        }

        // Memoization and budget.
        if self.cfg.memoize {
            if !self.visited.insert(frontier, current) {
                self.stats.memo_hits += 1;
                undo(self, frontier);
                return false;
            }
            self.stats.memo_misses += 1;
        }
        self.stats.states += 1;
        if let Some(h) = &mut self.depth_hist {
            h.record(self.schedule.len() as u64);
        }
        if let Some(max) = self.cfg.max_states {
            if self.stats.states > max {
                self.budget_hit = true;
                undo(self, frontier);
                return false;
            }
        }

        // Dead-end checks on blocked reads and the final value.
        for (p, &f) in frontier.iter().enumerate() {
            if let Some(&(_, op)) = self.per_proc[p].get(f as usize) {
                if let Some(need) = op.read_value() {
                    if need != current && remaining_writes.get(&need).copied().unwrap_or(0) == 0 {
                        undo(self, frontier);
                        return false;
                    }
                }
            }
        }
        if let Some(fv) = self.final_value {
            if current != fv && remaining_writes.get(&fv).copied().unwrap_or(0) == 0 {
                undo(self, frontier);
                return false;
            }
        }

        // Nogood probe (PR 4, technique 3): the canonical key erases
        // process identity, so a hit means some permuted twin of this
        // state was already refuted — and the instance is invariant under
        // permutations of identical-history processes, so this state is
        // refuted too. Probed after the memo insert so the
        // `memo_misses == states` invariant is unchanged.
        if self.has_twins {
            let mut key = std::mem::take(&mut self.nogood_scratch);
            build_nogood_key(&mut key, &self.suffix_class, frontier, current);
            let hit = self.nogoods.contains(key.as_slice());
            self.nogood_scratch = key;
            if hit {
                self.stats.nogood_hits += 1;
                undo(self, frontier);
                return false;
            }
        }

        // Collect write-capable moves, preferring writes whose value some
        // blocked read is waiting for.
        let mut demanded: FxHashSet<Value> = FxHashSet::default();
        for (p, &f) in frontier.iter().enumerate() {
            if let Some(&(_, op)) = self.per_proc[p].get(f as usize) {
                if let Some(need) = op.read_value() {
                    if need != current {
                        demanded.insert(need);
                    }
                }
            }
        }
        let mut moves: Vec<(bool, usize, OpRef, Op)> = Vec::new();
        for (p, &f) in frontier.iter().enumerate() {
            if let Some(&(r, op)) = self.per_proc[p].get(f as usize) {
                let enabled = match op {
                    Op::Write { .. } => true,
                    Op::Rmw { read, .. } => read == current,
                    // Matching reads are moves only when absorption is off
                    // (ablation mode); with absorption they were consumed.
                    Op::Read { value, .. } => !self.cfg.greedy_absorption && value == current,
                };
                if enabled {
                    let hot = op.written_value().is_some_and(|v| demanded.contains(&v));
                    moves.push((hot, p, r, op));
                }
            }
        }
        // Value-symmetry breaking (PR 4, technique 2): moves whose
        // processes have identical remaining suffixes are interchangeable
        // — a coherent completion taking one exists iff one taking the
        // other does (role-swap of the identical suffixes) — so only the
        // first (lowest process id) branches. Done before the hot sort,
        // which is stable and cannot separate equal-suffix moves (equal
        // suffix ⇒ equal op ⇒ equal hotness).
        if self.cfg.prune.symmetry && moves.len() > 1 {
            let mut seen = std::mem::take(&mut self.class_scratch);
            seen.clear();
            let mut pruned = 0u64;
            moves.retain(|&(_, p, _, _)| {
                let sc = self.suffix_class[p][frontier[p] as usize];
                if seen.contains(&sc) {
                    pruned += 1;
                    false
                } else {
                    seen.push(sc);
                    true
                }
            });
            self.class_scratch = seen;
            self.stats.symmetry_prunes += pruned;
        }

        // Hot moves first.
        if self.cfg.hot_move_ordering {
            moves.sort_by_key(|&(hot, ..)| std::cmp::Reverse(hot));
        }

        for (_, p, r, op) in moves {
            // Window prune (PR 4, technique 1): the op would occupy
            // schedule position `len`; if its propagated feasibility
            // window excludes that position, no coherent schedule places
            // it there and the branch is dead.
            if let Some(w) = &self.window {
                if !w.allows(p, frontier[p], self.schedule.len()) {
                    self.stats.window_prunes += 1;
                    continue;
                }
            }
            self.stats.branches += 1;
            let saved = current;
            self.schedule.push(r);
            frontier[p] += 1;
            if let Some(written) = op.written_value() {
                *remaining_writes.get_mut(&written).expect("counted") -= 1;
                current = written;
            }

            if self.dfs(frontier, current, remaining_writes) {
                return true;
            }

            current = saved;
            if let Some(written) = op.written_value() {
                *remaining_writes.get_mut(&written).expect("counted") += 1;
            }
            frontier[p] -= 1;
            self.schedule.pop();
        }

        // Every move failed: this `(frontier, value)` state is refuted.
        // Learn its canonical projection as a nogood — unless a budget
        // exhaustion anywhere below makes "failed" mean "gave up".
        if self.has_twins && !self.budget_hit {
            let mut key = std::mem::take(&mut self.nogood_scratch);
            build_nogood_key(&mut key, &self.suffix_class, frontier, current);
            if self.nogoods.insert(key.clone().into_boxed_slice()) {
                self.stats.nogoods_learned += 1;
            }
            self.nogood_scratch = key;
        }

        undo(self, frontier);
        false
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
    use vermem_trace::{check_coherent_schedule, Op, TraceBuilder};

    fn solve(trace: &Trace) -> Verdict {
        solve_backtracking(trace, Addr::ZERO, &SearchConfig::default())
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
        let v = solve_backtracking(&t, Addr::ZERO, &cfg);
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
                memoize: false,
                ..Default::default()
            },
            SearchConfig {
                greedy_absorption: false,
                ..Default::default()
            },
            SearchConfig {
                hot_move_ordering: false,
                ..Default::default()
            },
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
            SearchConfig {
                memoize: false,
                greedy_absorption: false,
                hot_move_ordering: false,
                max_states: None,
                prune: PruneConfig::none(),
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
            let reference = solve_backtracking(&t, Addr::ZERO, &configs[0]).is_coherent();
            for (i, cfg) in configs.iter().enumerate().skip(1) {
                let got = solve_backtracking(&t, Addr::ZERO, cfg);
                assert_eq!(
                    got.is_coherent(),
                    reference,
                    "config {i} diverges on seed {seed}: {t:?}"
                );
                if let Some(s) = got.schedule() {
                    check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
                }
            }
        }
    }

    #[test]
    fn ops_entry_points_match_trace_entry_points() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64), Op::w(2u64)])
            .build();
        let ops = vermem_trace::AddrOps::of(&t, Addr::ZERO);
        let cfg = SearchConfig::default();
        assert_eq!(
            solve_backtracking_ops_with_stats(&ops, &cfg),
            solve_backtracking_with_stats(&t, Addr::ZERO, &cfg)
        );
        assert_eq!(precheck_ops(&ops), precheck(&t, Addr::ZERO));
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
