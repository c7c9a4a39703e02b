//! The dense serialization machine: the one operational machine under the
//! exact VMC search and the store-buffer lowerings of the declared memory
//! models.
//!
//! VMC (Definition 4.1) is VSC (Definition 6.1) restricted to one address,
//! so one machine serves both. [`CompiledMachine::new`] builds it from
//! per-address entries: one [`AddrOps`] for the VMC search of
//! [`crate::backtrack`], or every entry of a trace's
//! [`vermem_trace::AddrIndex`] for the SC, TSO and PSO lowerings (and the
//! SC stage) of `vermem-consistency`. Slot `i` is the `i`-th entry. Each
//! process's list keeps every operation's original [`OpRef`], so the
//! commit order the kernel returns names the trace's own operations,
//! whichever entries the machine was built from.
//!
//! [`BufferKind`] picks the store-buffer shape: none (every issue takes
//! effect atomically: SC, and VMC at its one address), one FIFO per
//! process (TSO), or one FIFO per process × slot (PSO). The machine runs
//! on dense ids: each operation is lowered once, at construction, to its
//! slot and per-slot value ids, and each state is keyed by one fixed-width
//! bit-packed record (frontiers, memory value ids, store-buffer lengths).
//!
//! The search it offers the kernel ([`crate::kernel`]):
//!
//! 1. **Greedy read absorption** ([`TransitionSystem::absorb`]). A pending
//!    read that memory currently serves (and no own buffered store
//!    blocks) commits at once: that changes no state and only releases
//!    program-order successors, so any schedule can be rewritten into one
//!    that takes it now.
//! 2. **Memoization** (the kernel's memo) of the post-absorption state.
//!    At one address with `k` processes this bounds the state space by
//!    O(n^k · n): the polynomial algorithm of the "constant processes"
//!    row of Figure 5.3 (cf. Gibbons & Korach's O(k·n^k) bound).
//! 3. **Supply refutation** ([`TransitionSystem::refute`], uncounted),
//!    below.
//! 4. **Demand-first ordering.** Moves whose write supplies a value some
//!    frontier read is waiting for are explored first.
//!
//! The VMC search with [`crate::SearchConfig::prune`] on adds two
//! admissible prunings, which no other caller passes: the closure
//! frontline's position windows reject branches in
//! [`TransitionSystem::admit`] (counted in
//! [`crate::SearchStats::window_prunes`]), and value-symmetry breaking lets
//! only the lowest-numbered of several processes with identical remaining
//! suffixes branch (counted in [`crate::SearchStats::symmetry_prunes`]).
//!
//! ## Supply semantics
//!
//! The supply of `(slot, v)` counts the *future memory-write events* of
//! value `v` to `slot`: write-capable operations that have not yet taken
//! global effect. The machine decrements at the moment the write hits memory —
//! at issue for unbuffered writes and for RMWs, at drain for buffered
//! stores — so a buffered-but-undrained store still counts as supply. This
//! makes the refutation sound for every buffer shape: a frontier read (or
//! final-value constraint) demanding `(slot, v)` while `memory[slot] != v`
//! and the supply of `(slot, v)` is 0 can never be satisfied, because
//! memory can never hold `v` again.

use crate::kernel::{KeyPacker, TransitionSystem};
use crate::windows::WindowTable;
use std::cell::Cell;
use std::collections::BTreeMap;
use vermem_trace::{AddrOps, Op, OpRef, Value};

/// The store-buffer shapes of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferKind {
    /// No buffer: every write takes global effect at issue (SC, and VMC at
    /// one address).
    Atomic,
    /// One FIFO per process (TSO).
    ProcFifo,
    /// One FIFO per process × address slot (PSO).
    SlotFifo,
}

/// One operation lowered once, at construction, to its address slot and
/// per-slot value ids (see [`MachineBase`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum DenseOp {
    Read { slot: u32, value: u32 },
    Write { slot: u32, value: u32 },
    Rmw { slot: u32, read: u32, write: u32 },
}

impl DenseOp {
    #[inline]
    fn slot(self) -> u32 {
        match self {
            DenseOp::Read { slot, .. }
            | DenseOp::Write { slot, .. }
            | DenseOp::Rmw { slot, .. } => slot,
        }
    }

    /// The value id this operation needs memory to hold (reads and RMWs).
    #[inline]
    fn read_value(self) -> Option<u32> {
        match self {
            DenseOp::Read { value, .. } => Some(value),
            DenseOp::Rmw { read, .. } => Some(read),
            DenseOp::Write { .. } => None,
        }
    }
}

/// The buffer-independent part of [`CompiledMachine`]'s state: program
/// text, frontiers, dense memory, supply accounting and final-value
/// constraints.
///
/// Values are interned per slot: id 0 is the slot's initial value, the
/// ids after it the values written to the slot, and the ids after those
/// the values only read or required finally (their supply is 0 forever).
/// Memory therefore only ever holds an id below the slot's count of
/// written-or-initial values.
struct MachineBase {
    /// Program text per process, in program order: each operation's
    /// original ref and its lowered form. A frontier is a position in
    /// this list.
    per_proc: Vec<Vec<(OpRef, DenseOp)>>,
    /// Next position to issue, per process.
    frontier: Vec<u32>,
    /// Current memory value id, by slot.
    memory: Vec<u32>,
    /// Number of value ids memory can hold, by slot.
    memory_values: Vec<u32>,
    /// Where each slot's value ids start in `supply`.
    supply_at: Vec<u32>,
    /// Remaining future memory-writes of each `(slot, value id)` (see
    /// module docs), at `supply_at[slot] + id`.
    supply: Vec<u32>,
    /// Final-value constraints as `(slot, value id)`. An address that
    /// carries only a final value is a slot no operation writes.
    finals: Vec<(u32, u32)>,
    /// Total number of operations (= commits in a complete run).
    total: usize,
    /// Demand marks, laid out like `supply`: `(slot, value id)` is
    /// demanded in the state being expanded iff its mark equals `stamp`
    /// (see [`MachineBase::mark_demand`]). Cells, because enumeration
    /// only borrows the machine.
    demand: Vec<Cell<u64>>,
    /// The current expansion's stamp.
    stamp: Cell<u64>,
}

impl MachineBase {
    /// The machine over `entries`: slot `i` is the `i`-th entry.
    fn new<'a>(entries: impl IntoIterator<Item = &'a AddrOps>) -> MachineBase {
        let mut per_proc: Vec<Vec<(OpRef, DenseOp)>> = Vec::new();
        let mut memory_values = Vec::new();
        let mut supply_at = Vec::new();
        let mut finals = Vec::new();
        let mut next = 0;
        for (slot, entry) in entries.into_iter().enumerate() {
            let slot = slot as u32;
            if per_proc.len() < entry.per_proc().len() {
                per_proc.resize_with(entry.per_proc().len(), Vec::new);
            }
            // Intern in three rounds so the ids memory can hold come
            // first: the initial value, the written values, then values
            // only read or required finally. Each round takes values in
            // first-occurrence order.
            let mut ids = BTreeMap::from([(entry.initial(), 0)]);
            let intern = |ids: &mut BTreeMap<Value, u32>, v: Value| {
                let fresh = ids.len() as u32;
                *ids.entry(v).or_insert(fresh)
            };
            for (_, op) in entry.iter() {
                if let Some(v) = op.written_value() {
                    intern(&mut ids, v);
                }
            }
            memory_values.push(ids.len() as u32);
            for (ops, list) in per_proc.iter_mut().zip(entry.per_proc()) {
                ops.extend(list.iter().map(|&(r, op)| {
                    let dense = match op {
                        Op::Read { value, .. } => DenseOp::Read {
                            slot,
                            value: intern(&mut ids, value),
                        },
                        Op::Write { value, .. } => DenseOp::Write {
                            slot,
                            value: intern(&mut ids, value),
                        },
                        Op::Rmw { read, write, .. } => DenseOp::Rmw {
                            slot,
                            read: intern(&mut ids, read),
                            write: intern(&mut ids, write),
                        },
                    };
                    (r, dense)
                }));
            }
            if let Some(v) = entry.final_value() {
                finals.push((slot, intern(&mut ids, v)));
            }
            supply_at.push(next);
            next += ids.len() as u32;
        }
        // Each entry lists a process's operations in program order; those
        // of several entries interleave.
        for ops in &mut per_proc {
            ops.sort_unstable_by_key(|&(r, _)| r.index);
        }
        let mut supply = vec![0; next as usize];
        for &(_, op) in per_proc.iter().flatten() {
            if let DenseOp::Write { slot, value }
            | DenseOp::Rmw {
                slot, write: value, ..
            } = op
            {
                supply[(supply_at[slot as usize] + value) as usize] += 1;
            }
        }

        MachineBase {
            frontier: vec![0; per_proc.len()],
            total: per_proc.iter().map(Vec::len).sum(),
            per_proc,
            memory: vec![0; memory_values.len()],
            memory_values,
            supply_at,
            demand: vec![Cell::new(0); supply.len()],
            stamp: Cell::new(0),
            supply,
            finals,
        }
    }

    /// The next unissued operation of process `p`, if any.
    #[inline]
    fn next_op(&self, p: usize) -> Option<DenseOp> {
        self.per_proc[p]
            .get(self.frontier[p] as usize)
            .map(|&(_, op)| op)
    }

    /// The original ref of process `p`'s operation at `position`.
    #[inline]
    fn op_ref(&self, p: usize, position: u32) -> OpRef {
        self.per_proc[p][position as usize].0
    }

    /// Are the final-value constraints satisfied by current memory?
    fn finals_ok(&self) -> bool {
        self.finals
            .iter()
            .all(|&(s, v)| self.memory[s as usize] == v)
    }

    /// Where `(slot, v)` sits in `supply` and `demand`.
    #[inline]
    fn at(&self, slot: u32, v: u32) -> usize {
        (self.supply_at[slot as usize] + v) as usize
    }

    #[inline]
    fn supply_mut(&mut self, slot: u32, v: u32) -> &mut u32 {
        let at = self.at(slot, v);
        &mut self.supply[at]
    }

    /// Does memory miss value `v` at `slot` for good: it holds another
    /// value and no future memory-write of `v` remains?
    #[inline]
    fn starved(&self, slot: u32, v: u32) -> bool {
        self.memory[slot as usize] != v && self.supply[self.at(slot, v)] == 0
    }

    /// Mark, once per expanded state, every `(slot, v)` some frontier
    /// read waits for while memory holds another value: O(procs) per
    /// state, where asking each candidate move would cost O(procs) each.
    fn mark_demand(&self) {
        let stamp = self.stamp.get() + 1;
        self.stamp.set(stamp);
        for p in 0..self.frontier.len() {
            let Some(op) = self.next_op(p) else { continue };
            if let Some(v) = op.read_value() {
                let slot = op.slot();
                if self.memory[slot as usize] != v {
                    self.demand[self.at(slot, v)].set(stamp);
                }
            }
        }
    }

    /// Is some frontier read waiting for value `v` at `slot`, which memory
    /// does not hold (as of the last [`MachineBase::mark_demand`])? A move
    /// supplying it is explored first.
    #[inline]
    fn demanded(&self, slot: u32, v: u32) -> bool {
        self.demand[self.at(slot, v)].get() == self.stamp.get()
    }
}

/// The serialization machine: one [`TransitionSystem`] for every
/// [`BufferKind`].
///
/// A store buffer is a FIFO *queue* — one per process (ProcFifo) or per
/// process × slot (SlotFifo) — and is kept as two counts, not as its
/// entries: issuing appends the queue's next write in program order and
/// draining removes the oldest, so a queue always holds exactly the
/// `len` writes after its first `drained` ones. Unused buffer structures
/// stay empty under shapes that do not own them.
pub struct CompiledMachine {
    base: MachineBase,
    kind: BufferKind,
    /// Slot count (the stride of the per-process × slot tables).
    nslots: usize,
    /// Positions of the writes feeding each queue, in program order.
    queue_writes: Vec<Vec<u32>>,
    /// Writes drained from each queue so far.
    drained: Vec<u32>,
    /// Buffered-store count per process: the ProcFifo queue length, and
    /// the O(1) RMW empty-buffer gate under every shape.
    buffered: Vec<u32>,
    /// Buffered-store count per process × slot (`p * nslots + slot`): the
    /// SlotFifo queue length, and the no-forwarding gate of a load.
    pending: Vec<u32>,
    /// Memo key layout: frontiers, memory value ids, queue lengths.
    key: KeyPacker,
    /// VMC's surviving position windows, which [`TransitionSystem::admit`]
    /// checks; `None` for every other search.
    window: Option<WindowTable>,
    /// VMC's program-order suffix classes (see [`suffix_classes`]) for
    /// symmetry breaking; empty without it.
    suffix_class: Vec<Vec<u32>>,
    /// Moves dropped by symmetry breaking, tallied during enumeration
    /// (which only borrows the machine).
    symmetry_prunes: Cell<u64>,
}

/// One state-changing move, with undo state captured at enumeration.
#[derive(Clone, Copy, Debug)]
pub enum CompiledMove {
    /// Drain the oldest buffered store of process `p`.
    Drain {
        /// The process.
        p: u16,
        /// The store's slot.
        slot: u32,
        /// The store's value id.
        value: u32,
        /// The store's position in `p`'s list.
        index: u32,
        /// The memory value id it overwrites.
        saved: u32,
    },
    /// Issue process `p`'s next instruction.
    Issue {
        /// The process.
        p: u16,
        /// The overwritten memory value id when the issue takes immediate
        /// effect (RMWs always; writes only under [`BufferKind::Atomic`]),
        /// unused otherwise.
        saved: u32,
    },
}

impl CompiledMachine {
    /// The machine of shape `kind` over `entries`, one slot per entry in
    /// iteration order: a whole [`vermem_trace::AddrIndex`] for a trace's
    /// serialization, or one [`AddrOps`] for its VMC instance. Commits
    /// name the entries' original refs.
    pub fn new<'a>(entries: impl IntoIterator<Item = &'a AddrOps>, kind: BufferKind) -> Self {
        let base = MachineBase::new(entries);
        let nprocs = base.per_proc.len();
        let nslots = base.memory.len();
        let queues = match kind {
            BufferKind::Atomic => 0,
            BufferKind::ProcFifo => nprocs,
            BufferKind::SlotFifo => nprocs * nslots,
        };
        let mut queue_writes = vec![Vec::new(); queues];
        if kind != BufferKind::Atomic {
            for (p, ops) in base.per_proc.iter().enumerate() {
                for (i, &(_, op)) in ops.iter().enumerate() {
                    if let DenseOp::Write { slot, .. } = op {
                        queue_writes[queue_of(kind, nslots, p, slot)].push(i as u32);
                    }
                }
            }
        }
        // Field maxima: a frontier reaches its list's length, memory its
        // slot's last memory-capable id, and a queue its write count.
        let key = KeyPacker::new(
            base.per_proc
                .iter()
                .map(|ops| ops.len() as u64)
                .chain(base.memory_values.iter().map(|&n| u64::from(n - 1)))
                .chain(queue_writes.iter().map(|w| w.len() as u64)),
        );
        CompiledMachine {
            nslots,
            drained: vec![0; queues],
            buffered: vec![0; nprocs],
            pending: if kind == BufferKind::Atomic {
                Vec::new()
            } else {
                vec![0; nprocs * nslots]
            },
            queue_writes,
            key,
            kind,
            base,
            window: None,
            suffix_class: Vec::new(),
            symmetry_prunes: Cell::new(0),
        }
    }

    /// VMC's admissible prunings, for a one-address [`BufferKind::Atomic`]
    /// machine: `window`, the closure frontline's position windows, and
    /// value-symmetry breaking when `symmetry` is set.
    pub(crate) fn with_pruning(mut self, window: Option<WindowTable>, symmetry: bool) -> Self {
        debug_assert!(self.kind == BufferKind::Atomic && self.nslots <= 1);
        self.window = window;
        if symmetry {
            self.suffix_class = suffix_classes(&self.base.per_proc);
        }
        self
    }

    /// Moves symmetry breaking dropped so far.
    pub(crate) fn symmetry_prunes(&self) -> u64 {
        self.symmetry_prunes.get()
    }

    /// Does a buffered store block process `p`'s loads from `slot`?
    #[inline]
    fn blocked(&self, p: usize, slot: u32) -> bool {
        self.kind != BufferKind::Atomic && self.pending[p * self.nslots + slot as usize] > 0
    }

    /// The queue lengths the state key records.
    fn queue_lens(&self) -> &[u32] {
        match self.kind {
            BufferKind::Atomic => &[],
            BufferKind::ProcFifo => &self.buffered,
            BufferKind::SlotFifo => &self.pending,
        }
    }

    /// Queue `q`'s oldest buffered store, if any, as a drain move of
    /// process `p`, and whether it supplies a demanded value.
    #[inline]
    fn drain_move(&self, p: usize, q: usize, len: u32) -> Option<(CompiledMove, bool)> {
        if len == 0 {
            return None;
        }
        let index = self.queue_writes[q][self.drained[q] as usize];
        let (_, DenseOp::Write { slot, value }) = self.base.per_proc[p][index as usize] else {
            unreachable!("queues hold writes only")
        };
        let mv = CompiledMove::Drain {
            p: p as u16,
            slot,
            value,
            index,
            saved: self.base.memory[slot as usize],
        };
        Some((mv, self.base.demanded(slot, value)))
    }

    /// Symmetry breaking: has a process whose remaining suffix equals
    /// `p`'s already been given an issue move among `moves`? Identical
    /// suffixes are interchangeable — a completion issuing one exists iff
    /// one issuing the other does (swap their roles) — so only the first
    /// branches. Equal suffixes mean equal operations, hence equal
    /// hotness, so the first of a class in enumeration order is its
    /// lowest process.
    #[inline]
    fn twin_issued(&self, moves: &[CompiledMove], p: u16) -> bool {
        let class = |p: u16| self.suffix_class[p as usize][self.base.frontier[p as usize] as usize];
        !self.suffix_class.is_empty()
            && moves
                .iter()
                .any(|mv| matches!(*mv, CompiledMove::Issue { p: q, .. } if class(q) == class(p)))
    }
}

/// The queue a buffered write of process `p` to `slot` enters.
#[inline]
fn queue_of(kind: BufferKind, nslots: usize, p: usize, slot: u32) -> usize {
    match kind {
        BufferKind::SlotFifo => p * nslots + slot as usize,
        _ => p,
    }
}

/// Hash-cons program-order suffixes from the back: `out[p][j]` is the
/// class id of the operation sequence `per_proc[p][j..]`, with `0`
/// reserved for the empty suffix. Equal ids ⇔ identical remaining
/// sequences (at one slot, equal dense operations are equal operations).
fn suffix_classes(per_proc: &[Vec<(OpRef, DenseOp)>]) -> Vec<Vec<u32>> {
    let mut intern: BTreeMap<(DenseOp, u32), u32> = BTreeMap::new();
    per_proc
        .iter()
        .map(|ops| {
            let mut cls = vec![0u32; ops.len() + 1];
            for j in (0..ops.len()).rev() {
                let fresh = intern.len() as u32 + 1;
                cls[j] = *intern.entry((ops[j].1, cls[j + 1])).or_insert(fresh);
            }
            cls
        })
        .collect()
}

impl TransitionSystem for CompiledMachine {
    type Move = CompiledMove;

    fn total_commits(&self) -> usize {
        self.base.total
    }

    fn accepting(&self) -> bool {
        // Every commit implies every store drained.
        debug_assert!(self.buffered.iter().all(|&n| n == 0));
        self.base.finals_ok()
    }

    fn absorb(&mut self, commits: &mut Vec<OpRef>) {
        for p in 0..self.base.frontier.len() {
            while let Some(DenseOp::Read { slot, value }) = self.base.next_op(p) {
                if self.blocked(p, slot) || self.base.memory[slot as usize] != value {
                    break;
                }
                commits.push(self.base.op_ref(p, self.base.frontier[p]));
                self.base.frontier[p] += 1;
            }
        }
    }

    fn retract_read(&mut self, r: OpRef) {
        let p = r.proc.0 as usize;
        self.base.frontier[p] -= 1;
        debug_assert_eq!(self.base.op_ref(p, self.base.frontier[p]), r);
    }

    fn state_key(&self, key: &mut Vec<u64>) {
        // A queue's contents follow from its process's frontier and its
        // length (see the struct docs), so the length alone is keyed.
        let fields = self.base.frontier.iter().chain(&self.base.memory);
        self.key
            .pack(fields.chain(self.queue_lens()).map(|&x| u64::from(x)), key);
    }

    fn enabled_moves(&self, moves: &mut Vec<CompiledMove>) {
        self.base.mark_demand();
        // Memory-effecting moves that supply a demanded value go first,
        // each group in enumeration order: a hot move is inserted after
        // the hot ones already placed.
        let mut hot_end = moves.len();
        let mut push = |mv: CompiledMove, hot: bool| {
            if let CompiledMove::Issue { p, .. } = mv {
                if self.twin_issued(moves, p) {
                    self.symmetry_prunes.set(self.symmetry_prunes.get() + 1);
                    return;
                }
            }
            if hot {
                moves.insert(hot_end, mv);
                hot_end += 1;
            } else {
                moves.push(mv);
            }
        };
        for p in 0..self.base.frontier.len() {
            // Drains first: the single FIFO head (ProcFifo) or every
            // per-slot head in ascending slot order (SlotFifo).
            match self.kind {
                BufferKind::Atomic => {}
                BufferKind::ProcFifo => {
                    if let Some((mv, hot)) = self.drain_move(p, p, self.buffered[p]) {
                        push(mv, hot);
                    }
                }
                BufferKind::SlotFifo => {
                    let q0 = p * self.nslots;
                    for q in q0..q0 + self.nslots {
                        if let Some((mv, hot)) = self.drain_move(p, q, self.pending[q]) {
                            push(mv, hot);
                        }
                    }
                }
            }
            match self.base.next_op(p) {
                Some(DenseOp::Write { slot, value }) => {
                    // Atomic writes take effect at issue: capture the
                    // overwritten value for undo. A buffered write
                    // supplies nothing yet.
                    let atomic = self.kind == BufferKind::Atomic;
                    let saved = self.base.memory[slot as usize];
                    let hot = atomic && self.base.demanded(slot, value);
                    push(CompiledMove::Issue { p: p as u16, saved }, hot);
                }
                Some(DenseOp::Rmw { slot, read, write }) => {
                    // Atomics drain first (issue only with an empty
                    // buffer) and take effect immediately.
                    let saved = self.base.memory[slot as usize];
                    if self.buffered[p] == 0 && saved == read {
                        let hot = self.base.demanded(slot, write);
                        push(CompiledMove::Issue { p: p as u16, saved }, hot);
                    }
                }
                Some(DenseOp::Read { .. }) | None => {} // absorption only
            }
        }
    }

    /// Supply refutation (uncounted): a frontier read or final-value
    /// constraint demands `(slot, v)` while memory differs and no future
    /// memory-write of `v` remains. (An RMW's own write counts toward
    /// supply even though it cannot feed its own read — that only ever
    /// *withholds* a refutation, never makes one unsound.)
    fn refute(&self) -> bool {
        let base = &self.base;
        (0..base.frontier.len()).any(|p| {
            base.next_op(p)
                .and_then(|op| op.read_value().map(|need| base.starved(op.slot(), need)))
                .unwrap_or(false)
        }) || base.finals.iter().any(|&(s, v)| base.starved(s, v))
    }

    /// Window prune: the issued operation would occupy schedule position
    /// `depth`; if its propagated feasibility window excludes that
    /// position, no coherent schedule places it there.
    #[inline]
    fn admit(&self, mv: CompiledMove, depth: usize) -> bool {
        match (&self.window, mv) {
            (Some(w), CompiledMove::Issue { p, .. }) => {
                w.allows(p as usize, self.base.frontier[p as usize], depth)
            }
            _ => true,
        }
    }

    fn apply(&mut self, mv: CompiledMove) -> Option<OpRef> {
        match mv {
            CompiledMove::Drain {
                p,
                slot,
                value,
                index,
                ..
            } => {
                let p = p as usize;
                let q = queue_of(self.kind, self.nslots, p, slot);
                debug_assert_eq!(self.queue_writes[q][self.drained[q] as usize], index);
                self.drained[q] += 1;
                self.buffered[p] -= 1;
                self.pending[p * self.nslots + slot as usize] -= 1;
                self.base.memory[slot as usize] = value;
                *self.base.supply_mut(slot, value) -= 1;
                Some(self.base.op_ref(p, index))
            }
            CompiledMove::Issue { p, .. } => {
                let p = p as usize;
                let (r, op) = self.base.per_proc[p][self.base.frontier[p] as usize];
                self.base.frontier[p] += 1;
                match op {
                    DenseOp::Write { slot, value } if self.kind == BufferKind::Atomic => {
                        self.base.memory[slot as usize] = value;
                        *self.base.supply_mut(slot, value) -= 1;
                        Some(r)
                    }
                    DenseOp::Write { slot, .. } => {
                        self.buffered[p] += 1;
                        self.pending[p * self.nslots + slot as usize] += 1;
                        None // commits at drain
                    }
                    DenseOp::Rmw { slot, write, .. } => {
                        self.base.memory[slot as usize] = write;
                        *self.base.supply_mut(slot, write) -= 1;
                        Some(r)
                    }
                    DenseOp::Read { .. } => unreachable!("reads are absorbed, not issued"),
                }
            }
        }
    }

    fn undo(&mut self, mv: CompiledMove) {
        match mv {
            CompiledMove::Drain {
                p,
                slot,
                value,
                saved,
                ..
            } => {
                let p = p as usize;
                *self.base.supply_mut(slot, value) += 1;
                self.base.memory[slot as usize] = saved;
                let q = queue_of(self.kind, self.nslots, p, slot);
                self.drained[q] -= 1;
                self.buffered[p] += 1;
                self.pending[p * self.nslots + slot as usize] += 1;
            }
            CompiledMove::Issue { p, saved } => {
                let p = p as usize;
                self.base.frontier[p] -= 1;
                match self.base.next_op(p).expect("applied") {
                    DenseOp::Write { slot, value } if self.kind == BufferKind::Atomic => {
                        *self.base.supply_mut(slot, value) += 1;
                        self.base.memory[slot as usize] = saved;
                    }
                    DenseOp::Write { slot, .. } => {
                        self.buffered[p] -= 1;
                        self.pending[p * self.nslots + slot as usize] -= 1;
                    }
                    DenseOp::Rmw { slot, write, .. } => {
                        *self.base.supply_mut(slot, write) += 1;
                        self.base.memory[slot as usize] = saved;
                    }
                    DenseOp::Read { .. } => unreachable!("reads are absorbed, not issued"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::gen::{gen_sc_trace, GenConfig};
    use vermem_trace::{Addr, AddrIndex, Trace, TraceBuilder};
    use vermem_util::rng::StdRng;

    /// What a walk step did, for undo.
    enum Step {
        Absorbed(Vec<OpRef>),
        Moved(CompiledMove, Option<Value>),
    }

    /// A machine state as the pre-dense machines keyed it: frontiers,
    /// memory values, and every buffered store as `(slot, value, index)`
    /// per queue.
    type Reference = (Vec<u32>, Vec<Value>, Vec<Vec<(u32, Value, u32)>>);

    /// Random apply/undo walk over `trace` under `kind`, mirroring every
    /// step on an explicit reference state. Asserts that two visited
    /// states have equal packed keys exactly when their references are
    /// equal; returns (key words, states visited, states reached again by
    /// a move).
    fn walk(
        trace: &Trace,
        kind: BufferKind,
        steps: usize,
        rng: &mut StdRng,
    ) -> (usize, usize, u64) {
        let ops: Vec<Vec<Op>> = trace
            .histories()
            .iter()
            .map(|h| h.iter().collect())
            .collect();
        let addrs = trace.addresses();
        let slot = |a: Addr| addrs.binary_search(&a).unwrap() as u32;
        let mut sys = CompiledMachine::new(AddrIndex::build(trace).iter(), kind);
        let nq = match kind {
            BufferKind::Atomic => 0,
            BufferKind::ProcFifo => ops.len(),
            BufferKind::SlotFifo => ops.len() * addrs.len(),
        };
        let mut reference: Reference = (
            vec![0; ops.len()],
            addrs.iter().map(|&a| trace.initial(a)).collect(),
            vec![Vec::new(); nq],
        );
        let queue = |p: usize, s: u32| queue_of(kind, addrs.len(), p, s);
        let mut by_key: BTreeMap<Vec<u64>, Reference> = BTreeMap::new();
        let mut by_ref: BTreeMap<Reference, Vec<u64>> = BTreeMap::new();
        let mut repeats = 0;
        let mut path: Vec<Step> = Vec::new();
        let mut moves = Vec::new();
        for _ in 0..steps {
            let undo = !path.is_empty() && rng.gen_bool(0.3);
            if undo {
                match path.pop().unwrap() {
                    Step::Absorbed(reads) => {
                        for r in reads.into_iter().rev() {
                            sys.retract_read(r);
                            reference.0[r.proc.0 as usize] -= 1;
                        }
                    }
                    Step::Moved(mv, saved) => {
                        sys.undo(mv);
                        match mv {
                            CompiledMove::Drain { p, index, .. } => {
                                let (p, op) = (p as usize, ops[p as usize][index as usize]);
                                let entry = (slot(op.addr()), op.written_value().unwrap(), index);
                                reference.2[queue(p, entry.0)].insert(0, entry);
                                reference.1[entry.0 as usize] = saved.unwrap();
                            }
                            CompiledMove::Issue { p, .. } => {
                                let p = p as usize;
                                reference.0[p] -= 1;
                                let op = ops[p][reference.0[p] as usize];
                                match saved {
                                    Some(v) => reference.1[slot(op.addr()) as usize] = v,
                                    None => {
                                        reference.2[queue(p, slot(op.addr()))].pop();
                                    }
                                }
                            }
                        }
                    }
                }
            } else {
                let mut reads = Vec::new();
                sys.absorb(&mut reads);
                for &r in &reads {
                    let (p, op) = (r.proc.0 as usize, ops[r.proc.0 as usize][r.index as usize]);
                    let s = slot(op.addr());
                    assert_eq!(reference.0[p], r.index);
                    assert_eq!(Some(reference.1[s as usize]), op.read_value());
                    let own = match kind {
                        BufferKind::Atomic => &[][..],
                        _ => &reference.2[queue(p, s)][..],
                    };
                    assert!(own.iter().all(|e| e.0 != s), "load passed its own store");
                    reference.0[p] += 1;
                }
                if !reads.is_empty() {
                    path.push(Step::Absorbed(reads));
                } else {
                    moves.clear();
                    sys.enabled_moves(&mut moves);
                    if moves.is_empty() {
                        continue;
                    }
                    let mv = moves[rng.gen_range(0..moves.len())];
                    let committed = sys.apply(mv);
                    let saved = match mv {
                        CompiledMove::Drain { p, index, .. } => {
                            let p = p as usize;
                            let op = ops[p][index as usize];
                            let s = slot(op.addr());
                            let entry = reference.2[queue(p, s)].remove(0);
                            assert_eq!(entry, (s, op.written_value().unwrap(), index));
                            assert_eq!(committed, Some(OpRef::new(p as u16, index)));
                            Some(std::mem::replace(&mut reference.1[s as usize], entry.1))
                        }
                        CompiledMove::Issue { p, .. } => {
                            let p = p as usize;
                            let index = reference.0[p];
                            let op = ops[p][index as usize];
                            let s = slot(op.addr());
                            reference.0[p] += 1;
                            if kind != BufferKind::Atomic && !op.is_rmw() {
                                reference.2[queue(p, s)].push((
                                    s,
                                    op.written_value().unwrap(),
                                    index,
                                ));
                                assert_eq!(committed, None);
                                None
                            } else {
                                let v = op.written_value().unwrap();
                                Some(std::mem::replace(&mut reference.1[s as usize], v))
                            }
                        }
                    };
                    path.push(Step::Moved(mv, saved));
                }
            }
            let mut key = Vec::new();
            sys.state_key(&mut key);
            assert_eq!(key.len(), sys.key.words());
            match by_key.get(&key) {
                Some(seen) => {
                    assert_eq!(seen, &reference, "one key for two states");
                    // A state reached again by a move, not by undoing one:
                    // two interleavings met.
                    repeats += u64::from(!undo);
                }
                None => {
                    let old = by_ref.insert(reference.clone(), key.clone());
                    assert!(old.is_none(), "two keys for one state: {old:?} vs {key:?}");
                    by_key.insert(key, reference.clone());
                }
            }
        }
        (sys.key.words(), by_key.len(), repeats)
    }

    fn random_trace(rng: &mut StdRng, procs: usize, ops: usize, addrs: u32, values: u64) -> Trace {
        (0..procs)
            .fold(TraceBuilder::new(), |b, _| {
                b.proc((0..ops).map(|_| {
                    let (a, v) = (rng.gen_range(0..addrs), rng.gen_range(0..values));
                    match rng.gen_range(0..8u8) {
                        0..=3 => Op::read(a, v),
                        4..=6 => Op::write(a, v),
                        _ => Op::rmw(a, v, rng.gen_range(0..values)),
                    }
                }))
            })
            .build()
    }

    /// The dense machine's packed key distinguishes exactly the states the
    /// explicit (frontier, memory values, buffer contents) state does,
    /// under random apply/undo walks of every buffer shape — so the memo's
    /// equality classes are those of the pre-dense machines.
    #[test]
    fn packed_keys_equal_exactly_when_states_are_equal() {
        let kinds = [
            BufferKind::Atomic,
            BufferKind::ProcFifo,
            BufferKind::SlotFifo,
        ];
        let mut rng = StdRng::seed_from_u64(25);
        // States visited, and states a move reached again.
        let (mut states, mut repeats) = (0, 0);
        let mut tally = |(words, n, r): (usize, usize, u64)| {
            states += n;
            repeats += r;
            words
        };
        // Small instances: many collisions between interleavings.
        for case in 0..300 {
            let trace = random_trace(&mut rng, 1 + case % 3, 1 + case % 6, 2, 3);
            let words = tally(walk(&trace, kinds[case % 3], 200, &mut rng));
            assert_eq!(words, 1);
        }
        // Generated SC executions, so walks run deep. 24 processes of
        // about 40 operations: the 6-bit frontiers alone fill more than
        // two words, so fields start new words and the key lands in the
        // memo's long tier. Then two processes of about 300 operations:
        // frontier fields wider than a byte.
        for (procs, ops, min_words) in [(24, 960, 3), (2, 600, 1)] {
            for (seed, kind) in kinds.into_iter().enumerate() {
                let (trace, _) = gen_sc_trace(&GenConfig {
                    procs,
                    total_ops: ops,
                    addrs: 3,
                    rmw_fraction: 0.1,
                    value_reuse: 0.5,
                    seed: seed as u64,
                    ..Default::default()
                });
                let longest = trace.histories().iter().map(|h| h.len()).max().unwrap();
                assert!(longest > ops / procs / 2);
                assert!(procs > 2 || longest > 255);
                assert!(tally(walk(&trace, kind, 5000, &mut rng)) >= min_words);
            }
        }
        // 8 processes of 255 operations fill the first word exactly, and
        // address 0 is only read: its memory field is zero-width and
        // comes right after the full word (a shift by 64 would overflow).
        // Under PSO every process × address queue a process never writes
        // is zero-width too. No read can block, so walks run deep.
        for kind in kinds {
            let b = (0..8).fold(TraceBuilder::new(), |b, p| {
                b.proc((0..255u32).map(|i| match (i + p) % 3 {
                    0 => Op::read(0u32, 0u64),
                    _ => Op::write(1u32, u64::from(i % 2)),
                }))
            });
            let words = tally(walk(&b.build(), kind, 5000, &mut rng));
            assert_eq!(words, if kind == BufferKind::Atomic { 2 } else { 3 });
        }
        assert!(states > 10_000, "{states} states visited");
        assert!(repeats > 10_000, "{repeats} states reached again by a move");
    }
}
