//! The model-agnostic exact-search kernel: the one memoized backtracking
//! engine under the single-address VMC search and every declared
//! consistency model's operational search.
//!
//! The paper's §6 lifts VMC hardness to the whole consistency family (VSC,
//! VSCC, TSO, ...), and the verifiers for those models are instances of a
//! single parameterized search (cf. Chini & Saivasan's consistency-algorithm
//! framework): explore the reachable states of an operational machine,
//! memoize states already refuted, accept when every operation has
//! committed. This module is that search, behind the [`TransitionSystem`]
//! trait: the dense serialization machine of [`crate::machine`] (the VMC
//! search at one address, and the SC, TSO and PSO lowerings of the
//! `ModelSpec` declarations in `vermem-consistency`) and that crate's
//! witness-construction graph machine run on the same memo, budget,
//! cancellation, statistics and observability stack.
//!
//! ## What the kernel owns vs. what the system owns
//!
//! The **kernel** owns the commit schedule, the visited-state memo, the
//! state budget, the [`CancelToken`] poll, [`SearchStats`] and the
//! batch-flushed observability counters. The **system** owns the machine
//! state (frontiers, store buffers, memory) and defines: which moves are
//! enabled (in preferred exploration order), how to apply/undo one move,
//! when a state is accepting, one sound refutation rule
//! ([`TransitionSystem::refute`]), and — critically — the *canonical state
//! key*. A spent budget or a fired token stops the whole search: every
//! open state then returns without trying another move, so a budget of
//! `n` visits at most `n + 1` states and a cancelled search stops within
//! one poll interval.
//!
//! The kernel's tables outlive a search: the memo, the key scratch and the
//! one flat move stack live in a per-thread arena between searches,
//! cleared with their storage kept, so a warm search allocates only its
//! commit order (see `Arena`).
//!
//! One refutation hook, consulted once per state and never counted: a
//! refuted state is a dead end the system proves, not a pruned branch.
//! The defaulted hooks cost nothing where unused:
//! [`TransitionSystem::absorb`] (zero-effect reads committed for free;
//! absorbs nothing by default), [`TransitionSystem::admit`] (per branch,
//! the one pruning [`SearchStats::window_prunes`] counts; admits every
//! move by default) and [`TransitionSystem::memoize`] (lets a tree-shaped
//! system skip the memo).
//!
//! ## Key-canonicalization contract
//!
//! [`TransitionSystem::state_key`] must emit an **injective** encoding of
//! the post-absorption search state into `u64` words: two states may
//! produce the same word sequence only if they are the same state
//! (variable-length parts must be length-prefixed). The serialization
//! machine builds its key with [`KeyPacker`], which gives
//! each field of the state exactly the bits its per-instance maximum
//! needs. The kernel never hashes a key down to fewer bits than the
//! system emitted — short keys (≤ 2 words) are stored verbatim in a
//! zero-allocation [`FxHashSet`] tier, and a longer key as its last word
//! beside the dense id of its prefix, which [`SliceInterner`] stores
//! exactly once — because a colliding "already visited" answer would be an
//! unsound refutation.

use std::any::Any;
use std::cell::RefCell;
use vermem_trace::OpRef;
use vermem_util::hash::FxHashSet;
use vermem_util::intern::SliceInterner;
use vermem_util::obs;
use vermem_util::pool::CancelToken;

/// Counters from a search run.
///
/// Plain always-on fields (not gated by observability): they are part of
/// the determinism contract — identical whether `vermem_util::obs` is
/// enabled or not, and summed field-wise by the parallel reducer
/// ([`SearchStats::absorb`]). `symmetry_prunes` is VMC's
/// ([`crate::SearchConfig::prune`]); other systems leave it at 0.
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
    /// equals `states` for memoizing systems; both stay 0 for systems
    /// that opt out ([`TransitionSystem::memoize`]).
    pub memo_misses: u64,
    /// Branches rejected by [`TransitionSystem::admit`] — for VMC, DFS
    /// branches outside their position window — plus a whole instance
    /// fast-rejected by the closure's window pre-pass
    /// ([`crate::SearchConfig::prune`]). A state
    /// [`TransitionSystem::refute`] refutes is not counted here.
    pub window_prunes: u64,
    /// Branches skipped by value-symmetry canonicalization
    /// ([`crate::SearchConfig::prune`]).
    pub symmetry_prunes: u64,
    /// Retired: always 0. The VMC search no longer learns nogoods; the
    /// field stays only for callers that still read it, and goes with
    /// them.
    pub nogood_hits: u64,
    /// Retired: always 0, like [`SearchStats::nogood_hits`].
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
    }
}

/// The budget of a kernel search.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelConfig {
    /// Maximum distinct states to visit before giving up with
    /// [`KernelOutcome::BudgetExhausted`]. `None` = unlimited. The search
    /// stops at the first state past the budget, so it visits at most
    /// `max_states + 1`. A model the consistency crate decides address by
    /// address (coherence-only) gets this budget per address, as
    /// [`crate::SearchConfig::max_states`]. The models it decides after an
    /// SC stage (TSO, PSO, RA, ARM-dob) spend one budget on both searches:
    /// the stage's states count against it, and the model's own machine
    /// gets what is left.
    pub max_states: Option<u64>,
}

impl KernelConfig {
    /// Config with a state budget.
    pub fn with_budget(max_states: u64) -> Self {
        KernelConfig {
            max_states: Some(max_states),
        }
    }
}

/// How a kernel search ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelOutcome {
    /// An accepting run exists; the commit order (a model witness
    /// schedule) is attached.
    Accepted(Vec<OpRef>),
    /// The full reachable state space was explored without acceptance:
    /// the trace is *not* reachable under the system's semantics.
    Refuted,
    /// The state budget ran out before an answer was known.
    BudgetExhausted,
    /// The [`CancelToken`] fired before an answer was known.
    Cancelled,
}

/// An operational consistency machine, explored by [`run_search`].
///
/// Implementations own the mutable machine state; the kernel drives it
/// strictly in apply/undo (LIFO) discipline, so implementations may store
/// undo information inside [`TransitionSystem::Move`] captured at
/// enumeration time. A system states its dead ends through one required,
/// uncounted hook, [`TransitionSystem::refute`]; the only pruning the
/// kernel counts is a branch [`TransitionSystem::admit`] rejects.
pub trait TransitionSystem {
    /// One branching move, cheap to copy. Enumeration-time state (e.g. the
    /// memory value a drain will overwrite) may be embedded for undo.
    /// `'static`, so its thread's search arena can keep the move stack.
    type Move: Copy + 'static;

    /// Number of commits a complete run performs (= total operations).
    fn total_commits(&self) -> usize;

    /// Called only when every operation has committed: is the machine
    /// quiescent and are the final-value constraints satisfied?
    fn accepting(&self) -> bool;

    /// Greedily commit every *zero-effect* enabled move — pending reads
    /// that match current memory and are not blocked — pushing committed
    /// refs onto `commits`. Must be verdict-preserving (the exchange
    /// argument: a zero-effect commit changes no machine state and only
    /// enables more moves) and must push only moves undoable by
    /// [`TransitionSystem::retract_read`]. Default: absorbs nothing.
    fn absorb(&mut self, _commits: &mut Vec<OpRef>) {}

    /// Undo one absorbed read (the kernel pops them in reverse order).
    /// Default: never called, because the default
    /// [`TransitionSystem::absorb`] absorbs nothing.
    fn retract_read(&mut self, _r: OpRef) {
        unreachable!("this system absorbs nothing")
    }

    /// Emit the canonical state key (see the module docs for the
    /// injectivity contract). `key` arrives empty.
    fn state_key(&self, key: &mut Vec<u64>);

    /// Should the kernel memoize visited states? Default `true`.
    ///
    /// Systems whose state is uniquely determined by the path of moves
    /// that reached it (tree-shaped state graphs — e.g. monotone
    /// witness-construction searches where every decision is recorded
    /// forever) may return `false`: no state is ever reachable twice, so
    /// the memo could never hit and probing it is pure overhead. With
    /// memoization off the kernel skips key construction entirely;
    /// [`SearchStats::memo_hits`] and [`SearchStats::memo_misses`] stay 0
    /// while [`SearchStats::states`] still counts every search node (so
    /// budgets keep their meaning).
    fn memoize(&self) -> bool {
        true
    }

    /// Append the enabled state-changing moves to `moves`, in preferred
    /// exploration order (first appended is explored first). `moves` is
    /// the kernel's one flat move stack: it arrives holding the open
    /// states' moves below this state's, which the system must neither
    /// read nor change.
    fn enabled_moves(&self, moves: &mut Vec<Self::Move>);

    /// Sound per-state refutation: `true` only if **no** completion can
    /// exist from this state (e.g. a frontier read demands a value no
    /// remaining write can supply, or a partial witness already violates
    /// an axiom). Consulted at every state after the memo, budget and
    /// cancellation checks and before [`TransitionSystem::enabled_moves`].
    /// Uncounted: a refuted state is still counted in
    /// [`SearchStats::states`], and no other counter moves.
    fn refute(&self) -> bool;

    /// Per-branch feasibility, consulted just before `mv` is explored from
    /// a state at commit depth `depth`: `false` only if no completion
    /// takes `mv` there. Each
    /// rejection is counted in [`SearchStats::window_prunes`]. Default:
    /// admits every move.
    fn admit(&self, _mv: Self::Move, _depth: usize) -> bool {
        true
    }

    /// Apply `mv`; returns the operation it commits, if any (store-buffer
    /// writes commit at drain, not at issue).
    fn apply(&mut self, mv: Self::Move) -> Option<OpRef>;

    /// Reverse [`TransitionSystem::apply`]`(mv)`. Called with the machine
    /// exactly in the post-apply state.
    fn undo(&mut self, mv: Self::Move);
}

/// A fixed-width bit-packed state-key layout, decided once per instance.
///
/// Each field is declared by its largest possible value and gets exactly
/// the bits that value needs (`0` needs none). Fields are laid out in
/// declaration order and never straddle a word: one that does not fit the
/// rest of the current word starts the next, and a 64-bit field takes a
/// word of its own. A packed key is therefore injective on the field
/// values — distinct field vectors within their maxima give distinct
/// words — and has the same length for every state of the instance, so
/// the memo's tier is fixed per instance too.
#[derive(Clone, Debug)]
pub struct KeyPacker {
    fields: Vec<KeyField>,
    words: usize,
}

/// Where one field of a [`KeyPacker`] lands.
#[derive(Clone, Copy, Debug)]
struct KeyField {
    word: u32,
    shift: u32,
    /// Declared maximum (checked in debug builds).
    max: u64,
}

impl KeyPacker {
    /// Lay out fields with these maxima, in order.
    pub fn new(maxima: impl IntoIterator<Item = u64>) -> KeyPacker {
        let maxima = maxima.into_iter();
        let mut fields = Vec::with_capacity(maxima.size_hint().0);
        let (mut words, mut used) = (0u32, 64u32);
        for max in maxima {
            let width = u64::BITS - max.leading_zeros();
            if width == 0 {
                // Always 0: takes no bits and is never shifted (a shift by
                // 64 after a full word would overflow).
                fields.push(KeyField {
                    word: 0,
                    shift: 0,
                    max,
                });
                continue;
            }
            if used + width > 64 {
                words += 1;
                used = 0;
            }
            fields.push(KeyField {
                word: words - 1,
                shift: used,
                max,
            });
            used += width;
        }
        KeyPacker {
            fields,
            // At least one word, so a zero-width field always has one to
            // land in.
            words: words.max(1) as usize,
        }
    }

    /// Key length in words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Append the packed key of `values` (one per declared field, in
    /// declaration order, each within its maximum) to `key`.
    #[inline]
    pub fn pack(&self, values: impl IntoIterator<Item = u64>, key: &mut Vec<u64>) {
        let base = key.len();
        key.resize(base + self.words, 0);
        let words = &mut key[base..];
        let mut n = 0;
        for (v, f) in values.into_iter().zip(&self.fields) {
            debug_assert!(
                v <= f.max,
                "key field {n} = {v} exceeds its maximum {}",
                f.max
            );
            words[f.word as usize] |= v << f.shift;
            n += 1;
        }
        debug_assert_eq!(n, self.fields.len(), "one value per declared field");
    }
}

/// The visited-state set: Fx-hashed tiers by key length. Keys of ≤ 2
/// words live length-tagged in a flat set (zero allocations per probe).
/// A longer key is stored as its prefix — every word but the last,
/// interned once — and the last word, so states that differ only in their
/// last word (a VMC frontier under several memory values) share one
/// interned prefix. Keys of different length are never equal, so routing
/// by length preserves exactness.
struct Memo {
    small: FxHashSet<(u64, u64, u8)>,
    prefixes: SliceInterner<u64>,
    long: FxHashSet<(u32, u64)>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            small: FxHashSet::default(),
            prefixes: SliceInterner::new(),
            long: FxHashSet::default(),
        }
    }

    /// Forget every key, keeping the tables' storage.
    fn clear(&mut self) {
        self.small.clear();
        self.prefixes.clear();
        self.long.clear();
    }

    /// Keys the tables hold room for.
    fn capacity(&self) -> usize {
        self.small.capacity() + self.prefixes.capacity() + self.long.capacity()
    }

    /// Record `key`; true iff it was not already present.
    fn insert(&mut self, key: &[u64]) -> bool {
        match *key {
            [] => self.small.insert((0, 0, 0)),
            [a] => self.small.insert((a, 0, 1)),
            [a, b] => self.small.insert((a, b, 2)),
            [ref prefix @ .., last] => {
                let (id, _) = self.prefixes.intern(prefix);
                self.long.insert((id, last))
            }
        }
    }

    /// Heap allocations attributable to key storage: one per distinct
    /// long-key prefix, none for short keys.
    fn key_allocs(&self) -> u64 {
        self.prefixes.allocations()
    }
}

/// The most keys a memo, or moves a move stack, may hold room for and
/// still go back to its thread's [`Arena`]: a larger one is dropped, so a
/// long-lived thread never keeps a large search's tables.
const ARENA_CAP: usize = 1 << 13;

/// One thread's search scratch. Each [`run_search`] takes the memo, the
/// key scratch and the move stack of its move type out for the search and
/// puts them back after, cleared with their storage kept, so a warm
/// search allocates only its answer. Taken, not borrowed: a search that
/// started inside another on the same thread would find the slots empty
/// and use fresh tables.
#[derive(Default)]
struct Arena {
    memo: Option<Memo>,
    key: Vec<u64>,
    /// One flat move stack (`Vec<M>`) per move type `M` searched on this
    /// thread.
    moves: Vec<Box<dyn Any>>,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::default();
}

/// What one search takes from its thread's arena.
struct Scratch {
    memo: Memo,
    key: Vec<u64>,
    /// A `Vec<M>` for the search's move type `M`, empty.
    moves: Box<dyn Any>,
}

impl Scratch {
    /// Take the scratch of a search with move type `M` from this thread's
    /// arena, or fresh tables for any part the arena does not hold.
    fn take<M: 'static>() -> Scratch {
        let (memo, key, moves) = ARENA
            .try_with(|arena| {
                let mut arena = arena.borrow_mut();
                let at = arena.moves.iter().position(|m| m.is::<Vec<M>>());
                (
                    arena.memo.take(),
                    std::mem::take(&mut arena.key),
                    at.map(|at| arena.moves.swap_remove(at)),
                )
            })
            .unwrap_or_default();
        Scratch {
            memo: memo.unwrap_or_else(Memo::new),
            key,
            moves: moves.unwrap_or_else(|| Box::new(Vec::<M>::new())),
        }
    }

    /// Put the scratch of a search with move type `M` back, cleared; a
    /// table above [`ARENA_CAP`] is dropped instead.
    fn give_back<M: 'static>(self) {
        let Scratch {
            mut memo,
            mut key,
            mut moves,
        } = self;
        let stack = moves
            .downcast_mut::<Vec<M>>()
            .expect("the search's move type");
        let keep_memo = memo.capacity() <= ARENA_CAP;
        let keep_stack = stack.capacity() <= ARENA_CAP;
        if keep_memo {
            memo.clear();
        }
        stack.clear();
        key.clear();
        let _ = ARENA.try_with(|arena| {
            let mut arena = arena.borrow_mut();
            if keep_memo {
                arena.memo = Some(memo);
            }
            arena.key = key;
            if keep_stack {
                arena.moves.push(moves);
            }
        });
    }
}

/// Run the memoized backtracking search over `sys`.
///
/// The returned [`SearchStats`] are always-on, deterministic and identical
/// whether observability is enabled or not, with `memo_misses == states`
/// for memoizing systems (memoization is integral to the kernel; systems
/// that opt out via [`TransitionSystem::memoize`] report
/// `memo_hits == memo_misses == 0`). One observability batch-flush happens
/// per call — never per state — of the `search.*` counters for the fields
/// every system shares, plus `kernel.memo.key_allocs` for the key-tier
/// accounting; a system flushes counters for the fields it alone sets.
pub fn run_search<S: TransitionSystem>(
    sys: &mut S,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (KernelOutcome, SearchStats) {
    let total = sys.total_commits();
    let memoize = sys.memoize();
    let mut scratch = Scratch::take::<S::Move>();
    let moves = scratch
        .moves
        .downcast_mut()
        .expect("the search's move type");
    let mut kernel = Kernel {
        sys,
        memo: &mut scratch.memo,
        memoize,
        commits: Vec::with_capacity(total),
        total,
        max_states: cfg.max_states,
        cancel,
        stats: SearchStats::default(),
        budget_hit: false,
        cancelled: false,
        key_scratch: &mut scratch.key,
        moves,
        depth_hist: if obs::enabled() {
            Some(obs::Histogram::new())
        } else {
            None
        },
    };
    let found = kernel.dfs();
    let Kernel {
        commits,
        stats,
        budget_hit,
        cancelled,
        depth_hist,
        ..
    } = kernel;

    if obs::enabled() {
        obs::counter_add("search.states", stats.states);
        obs::counter_add("search.branches", stats.branches);
        obs::counter_add("search.memo.hits", stats.memo_hits);
        obs::counter_add("search.memo.misses", stats.memo_misses);
        obs::counter_add("search.window.prunes", stats.window_prunes);
        obs::counter_add("kernel.memo.key_allocs", scratch.memo.key_allocs());
        if let Some(h) = &depth_hist {
            obs::merge_histogram("search.depth", h);
        }
    }
    scratch.give_back::<S::Move>();

    let outcome = if found {
        debug_assert_eq!(commits.len(), total, "accepting run must be complete");
        KernelOutcome::Accepted(commits)
    } else if cancelled {
        KernelOutcome::Cancelled
    } else if budget_hit {
        KernelOutcome::BudgetExhausted
    } else {
        KernelOutcome::Refuted
    };
    (outcome, stats)
}

/// Poll the cancel token once per this many states.
const CANCEL_POLL_MASK: u64 = 0x3FF;

struct Kernel<'a, S: TransitionSystem> {
    sys: &'a mut S,
    memo: &'a mut Memo,
    /// Cached [`TransitionSystem::memoize`] answer for this run.
    memoize: bool,
    commits: Vec<OpRef>,
    total: usize,
    max_states: Option<u64>,
    cancel: Option<&'a CancelToken>,
    stats: SearchStats,
    /// Set once the budget is spent or the token has fired: sticky, so
    /// every open state then returns without trying another move.
    budget_hit: bool,
    cancelled: bool,
    /// Key-construction scratch: probing allocates nothing beyond the
    /// memo's own storage.
    key_scratch: &'a mut Vec<u64>,
    /// The flat move stack: each open state's moves, above its parent's.
    /// An expanded state appends its moves and truncates back to where
    /// they started when it fails, so the stack grows only to the deepest
    /// path's moves and expansion allocates nothing once it has.
    moves: &'a mut Vec<S::Move>,
    /// `Some` only while observability is enabled: per-state commit
    /// depths, batch-merged into the registry at solve end.
    depth_hist: Option<obs::Histogram>,
}

impl<S: TransitionSystem> Kernel<'_, S> {
    /// Returns true if an accepting run was found (left in `self.commits`).
    fn dfs(&mut self) -> bool {
        // Greedy absorption of zero-effect moves.
        let absorbed_base = self.commits.len();
        self.sys.absorb(&mut self.commits);

        macro_rules! fail {
            () => {{
                while self.commits.len() > absorbed_base {
                    let r = self.commits.pop().expect("non-empty");
                    self.sys.retract_read(r);
                }
                return false;
            }};
        }

        // Completion check.
        if self.commits.len() == self.total {
            if self.sys.accepting() {
                return true;
            }
            fail!();
        }

        // Memoization: one exact probe per state (skipped entirely for
        // tree-shaped systems that opted out — their memo never hits).
        if self.memoize {
            self.key_scratch.clear();
            self.sys.state_key(self.key_scratch);
            if !self.memo.insert(self.key_scratch) {
                self.stats.memo_hits += 1;
                fail!();
            }
            self.stats.memo_misses += 1;
        }
        self.stats.states += 1;
        if let Some(h) = &mut self.depth_hist {
            h.record(self.commits.len() as u64);
        }

        // Budget and cooperative cancellation.
        if let Some(max) = self.max_states {
            if self.stats.states > max {
                self.budget_hit = true;
                fail!();
            }
        }
        if let Some(c) = self.cancel {
            if self.stats.states & CANCEL_POLL_MASK == 0 && c.is_cancelled() {
                self.cancelled = true;
                fail!();
            }
        }

        // Sound refutation (the system's own dead-end rule).
        if self.sys.refute() {
            fail!();
        }

        let base = self.moves.len();
        self.sys.enabled_moves(self.moves);
        let depth = self.commits.len();
        for i in base..self.moves.len() {
            let mv = self.moves[i];
            if !self.sys.admit(mv, depth) {
                self.stats.window_prunes += 1;
                continue;
            }
            self.stats.branches += 1;
            let committed = self.sys.apply(mv);
            if let Some(r) = committed {
                self.commits.push(r);
            }
            if self.dfs() {
                return true;
            }
            if committed.is_some() {
                self.commits.pop();
            }
            self.sys.undo(mv);
            if self.budget_hit || self.cancelled {
                break;
            }
        }
        self.moves.truncate(base);
        fail!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy system: `n` independent counters, each stepped to 2, with an
    /// optional "forbidden" full state making the instance refutable.
    /// Commit refs are (proc, step).
    struct Counters {
        vals: Vec<u32>,
        limit: u32,
        accept: bool,
    }

    impl TransitionSystem for Counters {
        type Move = usize;

        fn total_commits(&self) -> usize {
            self.vals.len() * self.limit as usize
        }
        fn accepting(&self) -> bool {
            self.accept
        }
        fn refute(&self) -> bool {
            false
        }
        fn state_key(&self, key: &mut Vec<u64>) {
            key.extend(self.vals.iter().map(|&v| u64::from(v)));
        }
        fn enabled_moves(&self, moves: &mut Vec<usize>) {
            for (p, &v) in self.vals.iter().enumerate() {
                if v < self.limit {
                    moves.push(p);
                }
            }
        }
        fn apply(&mut self, p: usize) -> Option<OpRef> {
            let step = self.vals[p];
            self.vals[p] += 1;
            Some(OpRef::new(p as u16, step))
        }
        fn undo(&mut self, p: usize) {
            self.vals[p] -= 1;
        }
    }

    #[test]
    fn accepting_run_has_full_commit_order() {
        let mut sys = Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: true,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), None);
        match outcome {
            KernelOutcome::Accepted(commits) => assert_eq!(commits.len(), 6),
            other => panic!("expected accepted, got {other:?}"),
        }
        assert!(stats.states > 0);
        assert_eq!(stats.memo_misses, stats.states);
    }

    #[test]
    fn refutation_memoizes_the_full_lattice() {
        // 3 counters to 2 with acceptance off: the memoized search visits
        // each interior lattice point exactly once — 3^3 = 27 states minus
        // the full corner (completion is checked before memoization).
        let mut sys = Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: false,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), None);
        assert_eq!(outcome, KernelOutcome::Refuted);
        assert_eq!(stats.states, 26);
        assert!(stats.memo_hits > 0, "lattice re-entries must hit the memo");
    }

    /// [`Counters`] with memoization opted out: the diamond lattice is
    /// re-explored as a tree.
    struct TreeCounters(Counters);

    impl TransitionSystem for TreeCounters {
        type Move = usize;

        fn total_commits(&self) -> usize {
            self.0.total_commits()
        }
        fn accepting(&self) -> bool {
            self.0.accepting()
        }
        fn refute(&self) -> bool {
            self.0.refute()
        }
        fn state_key(&self, key: &mut Vec<u64>) {
            self.0.state_key(key)
        }
        fn memoize(&self) -> bool {
            false
        }
        fn enabled_moves(&self, moves: &mut Vec<usize>) {
            self.0.enabled_moves(moves)
        }
        fn apply(&mut self, p: usize) -> Option<OpRef> {
            self.0.apply(p)
        }
        fn undo(&mut self, p: usize) {
            self.0.undo(p)
        }
    }

    #[test]
    fn memoize_opt_out_counts_states_without_memo_traffic() {
        let mut sys = TreeCounters(Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: false,
        });
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), None);
        assert_eq!(outcome, KernelOutcome::Refuted);
        assert_eq!(stats.memo_hits, 0, "no probes at all without memoization");
        assert_eq!(stats.memo_misses, 0);
        // The 3-counter lattice re-explored as a tree visits strictly more
        // nodes than the 26 memoized interior points.
        assert!(stats.states > 26, "tree exploration, not lattice");

        // Budgets still bite without a memo.
        let mut sys = TreeCounters(Counters {
            vals: vec![0; 4],
            limit: 2,
            accept: false,
        });
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::with_budget(5), None);
        assert_eq!(outcome, KernelOutcome::BudgetExhausted);
        assert_eq!(stats.states, 6);
    }

    #[test]
    fn budget_reports_exhaustion() {
        let mut sys = Counters {
            vals: vec![0; 4],
            limit: 2,
            accept: false,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::with_budget(5), None);
        assert_eq!(outcome, KernelOutcome::BudgetExhausted);
        assert_eq!(
            stats.states, 6,
            "the first state past the cap stops the search"
        );
        let full = {
            let mut sys = Counters {
                vals: vec![0; 4],
                limit: 2,
                accept: false,
            };
            run_search(&mut sys, &KernelConfig::default(), None)
                .1
                .states
        };
        assert!(stats.states < full, "budget must truncate the search");
    }

    /// A spent budget stops the whole search: no open state tries another
    /// move, so the search visits exactly one state past the budget, and
    /// leaves the system as it found it.
    #[test]
    fn budget_stops_the_search_one_state_past_it() {
        for max in [0, 1, 10, 100, 1000] {
            let mut sys = Counters {
                vals: vec![0; 7],
                limit: 3,
                accept: false,
            };
            let (outcome, stats) = run_search(&mut sys, &KernelConfig::with_budget(max), None);
            assert_eq!(outcome, KernelOutcome::BudgetExhausted);
            assert_eq!(stats.states, max + 1);
            assert_eq!(sys.vals, vec![0; 7], "every move undone");
        }
    }

    /// A fired token stops the whole search at the first poll, one poll
    /// interval in, not after the space (16,383 states here) is spent.
    #[test]
    fn pre_cancelled_token_aborts() {
        // The poll mask means tiny searches may finish before the first
        // poll; use a space big enough to cross it.
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut sys = Counters {
            vals: vec![0; 7],
            limit: 3,
            accept: false,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), Some(&cancel));
        assert_eq!(outcome, KernelOutcome::Cancelled);
        assert_eq!(stats.states, CANCEL_POLL_MASK + 1);
        assert_eq!(sys.vals, vec![0; 7], "every move undone");
    }

    #[test]
    fn key_allocs_small_tier_is_zero() {
        let mut sys = Counters {
            vals: vec![0; 2],
            limit: 2,
            accept: false,
        };
        let cfg = KernelConfig::default();
        let mut memo_probe = Memo::new();
        assert!(memo_probe.insert(&[1, 2]));
        assert!(!memo_probe.insert(&[1, 2]));
        assert_eq!(memo_probe.key_allocs(), 0, "2-word keys never allocate");
        assert!(memo_probe.insert(&[1, 2, 3]));
        assert_eq!(memo_probe.key_allocs(), 1);

        let (_, stats) = run_search(&mut sys, &cfg, None);
        assert!(stats.states > 0);
    }

    /// The capacity of the memo this thread's arena holds, if any.
    fn arena_memo_capacity() -> Option<usize> {
        ARENA.with_borrow(|a| a.memo.as_ref().map(Memo::capacity))
    }

    /// The capacity of every move stack this thread's arena holds.
    fn arena_stack_capacities() -> Vec<usize> {
        ARENA.with_borrow(|a| {
            a.moves
                .iter()
                .map(|m| m.downcast_ref::<Vec<usize>>().map_or(0, Vec::capacity))
                .collect()
        })
    }

    #[test]
    fn a_search_above_the_cap_leaves_no_large_table_behind() {
        let mut small = Counters {
            vals: vec![0; 2],
            limit: 2,
            accept: false,
        };
        run_search(&mut small, &KernelConfig::default(), None);
        let kept = arena_memo_capacity().expect("a small search's memo is kept");
        assert!(kept > 0 && kept <= ARENA_CAP);
        // 4^7 = 16,384 lattice points: more states than the cap.
        let mut large = Counters {
            vals: vec![0; 7],
            limit: 3,
            accept: false,
        };
        let (_, stats) = run_search(&mut large, &KernelConfig::default(), None);
        assert!(stats.states as usize > ARENA_CAP);
        assert_eq!(arena_memo_capacity(), None, "the large memo is dropped");
        assert!(arena_stack_capacities().iter().all(|&c| c <= ARENA_CAP));
        // The next search starts from fresh tables and keeps them again.
        run_search(&mut small, &KernelConfig::default(), None);
        assert!(arena_memo_capacity().is_some_and(|c| c <= ARENA_CAP));
    }

    /// The `kernel_memo` golden family: every key tier, with and without
    /// acceptance and a budget.
    fn kernel_memo_family() -> Vec<(KernelOutcome, SearchStats)> {
        let mut out = Vec::new();
        for words in 1..=4usize {
            for accept in [false, true] {
                for budget in [None, Some(7)] {
                    let mut sys = Counters {
                        vals: vec![0; words],
                        limit: 2,
                        accept,
                    };
                    let cfg = KernelConfig { max_states: budget };
                    out.push(run_search(&mut sys, &cfg, None));
                }
            }
        }
        out
    }

    #[test]
    fn a_warm_arena_changes_no_search() {
        let first = kernel_memo_family();
        let second = kernel_memo_family();
        let fresh = std::thread::spawn(kernel_memo_family)
            .join()
            .expect("family runs");
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
    }

    #[test]
    fn key_allocs_count_one_search_at_a_time() {
        let prefixes = |memo: &mut Memo| {
            for k in 0..5u64 {
                memo.insert(&[k, 1, 2]);
                memo.insert(&[k, 1, 3]);
            }
        };
        let mut scratch = Scratch::take::<usize>();
        prefixes(&mut scratch.memo);
        assert_eq!(scratch.memo.key_allocs(), 5);
        scratch.give_back::<usize>();
        // The same keys in the next search on this thread: fresh, and
        // counted again from zero.
        let mut scratch = Scratch::take::<usize>();
        assert_eq!(scratch.memo.key_allocs(), 0);
        assert!(scratch.memo.insert(&[0, 1, 2]));
        prefixes(&mut scratch.memo);
        assert_eq!(scratch.memo.key_allocs(), 5);
        scratch.give_back::<usize>();
        // A search with 3-word keys leaves its memo cleared.
        let mut sys = Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: false,
        };
        run_search(&mut sys, &KernelConfig::default(), None);
        let scratch = Scratch::take::<usize>();
        assert_eq!(scratch.memo.key_allocs(), 0);
        assert_eq!(scratch.memo.small.len() + scratch.memo.long.len(), 0);
        scratch.give_back::<usize>();
    }

    #[test]
    fn memo_tiers_never_cross_collide() {
        let mut memo = Memo::new();
        // Same leading words, different lengths: all distinct keys.
        assert!(memo.insert(&[]));
        assert!(memo.insert(&[0]));
        assert!(memo.insert(&[0, 0]));
        assert!(memo.insert(&[0, 0, 0]));
        assert!(memo.insert(&[0, 0, 0, 0]));
        assert!(!memo.insert(&[0, 0, 0]));
        assert!(!memo.insert(&[]));
    }

    #[test]
    fn key_packer_layout() {
        let key = |p: &KeyPacker, vals: &[u64]| {
            let mut k = Vec::new();
            p.pack(vals.iter().copied(), &mut k);
            k
        };
        // Widths 1, 2, 8: one word, fields side by side.
        let p = KeyPacker::new([1, 3, 255]);
        assert_eq!(p.words(), 1);
        assert_eq!(key(&p, &[1, 2, 3]), vec![1 | (2 << 1) | (3 << 3)]);
        // A field that does not fit the rest of a word starts the next.
        let p = KeyPacker::new([u64::from(u32::MAX), u64::from(u32::MAX), 1]);
        assert_eq!(p.words(), 2);
        assert_eq!(key(&p, &[1, 2, 1]), vec![1 | (2 << 32), 1]);
        // A 64-bit field takes a word of its own; a zero-width field right
        // after a full word takes no bits and is never shifted by 64.
        let p = KeyPacker::new([7, u64::MAX, 0, 1, 0]);
        assert_eq!(p.words(), 3);
        assert_eq!(key(&p, &[5, u64::MAX, 0, 1, 0]), vec![5, u64::MAX, 1]);
        // Only zero-width fields: one zero word.
        let p = KeyPacker::new([0, 0]);
        assert_eq!(key(&p, &[0, 0]), vec![0]);
        // Appends after what the key already holds.
        let p = KeyPacker::new([3]);
        let mut k = vec![9];
        p.pack([2], &mut k);
        assert_eq!(k, vec![9, 2]);
    }
}
