//! The operational compiler: lower a [`ModelSpec`] to a
//! [`TransitionSystem`] on the exact-search kernel.
//!
//! Two lowerings exist, chosen by inspecting the spec *as data*:
//!
//! * **Buffer lowering** — specs whose axioms pin a single serialization
//!   order ([`super::witness::spec_serializes`]) and whose enforcement
//!   table matches a recognized machine shape compile to one unified
//!   store-buffer machine over [`MachineBase`]: no buffer (SC: every
//!   issue takes effect atomically), one FIFO per process (TSO), or one
//!   FIFO per process×address (PSO). The lowering reproduces the
//!   pre-refactor hand-written machines **bit-identically** — same move
//!   enumeration order, same exploration preference, same memo equality
//!   classes — so verdicts, state sets and [`SearchStats`] match what
//!   those machines produced (pinned by the golden file of
//!   `tests/axiom_differential.rs`). The machine runs on dense ids: each
//!   operation is lowered once to its address slot and per-slot value
//!   ids, and each state is keyed by one fixed-width bit-packed record
//!   (frontiers, memory value ids, store-buffer lengths).
//! * **Graph lowering** — every other spec (coherence-only, RA, ARM-dob)
//!   compiles to the witness-construction machine of [`super::graph`],
//!   which decides `rf` and `mo` directly and answers to the reference
//!   axiom evaluator.
//!
//! The serialization equivalence justifying the buffer lowering — a
//! single `ppo`-extending order with reads-see-latest exists iff some
//! witness satisfies `acyclic(ppo ∪ rf ∪ mo ∪ fr)` plus atomicity and
//! finals — is spelled out in DESIGN.md §4g.
//!
//! ## Supply semantics
//!
//! The supply of `(slot, v)` counts the *future memory-write events* of
//! value `v` to `slot`: write-capable operations that have not yet taken
//! global effect. The machine decrements at the moment the write hits memory —
//! at issue for unbuffered writes and for RMWs, at drain for buffered
//! stores — so a buffered-but-undrained store still counts as supply. This
//! makes the feasibility refutation sound for every buffer shape: a
//! frontier read (or final-value constraint) demanding `(slot, v)` while
//! `memory[slot] != v` and the supply of `(slot, v)` is 0 can never be
//! satisfied, because memory can never hold `v` again.

use super::graph::GraphMachine;
use super::witness::{check_witness_ev, spec_serializes, witness_schedule, Events};
use super::ModelSpec;
use crate::axiom::check_model_schedule;
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use std::collections::BTreeMap;
use vermem_coherence::kernel::{
    run_search, KernelConfig, KernelOutcome, KeyPacker, TransitionSystem,
};
use vermem_coherence::SearchStats;
use vermem_trace::{Addr, Op, OpRef, Schedule, Trace, Value};
use vermem_util::obs;
use vermem_util::pool::CancelToken;

/// The store-buffer shapes the buffer lowering recognizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BufferKind {
    /// No buffer: every write takes global effect at issue (SC).
    Atomic,
    /// One FIFO per process (TSO).
    ProcFifo,
    /// One FIFO per process × address slot (PSO).
    SlotFifo,
}

impl BufferKind {
    /// The cross-address enforcement table this machine implements, in
    /// [`ModelSpec::ppo_cross`]'s layout. Written here, next to the
    /// machine, rather than read from a declared spec: a spec lowers to
    /// the machine only if its table is exactly this one, so a changed
    /// declaration changes the compiled verdicts instead of being ignored.
    fn ppo_cross(self) -> [[bool; 3]; 3] {
        // A buffered store can be passed by later loads (TSO) and by later
        // stores to other addresses (PSO); RMWs drain the buffer.
        let store = match self {
            BufferKind::Atomic => [true; 3],
            BufferKind::ProcFifo => [false, true, true],
            BufferKind::SlotFifo => [false, false, true],
        };
        [[true; 3], store, [true; 3]]
    }
}

/// How a spec lowers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lowering {
    /// Single-serialization spec with a recognized buffer shape.
    Buffer(BufferKind),
    /// Everything else: direct witness search.
    Graph,
}

/// Choose the lowering by inspecting the spec as data: the axiom shape
/// first, then the enforcement table, compared against the table each
/// buffer machine implements ([`BufferKind::ppo_cross`]).
pub(crate) fn lowering(spec: &ModelSpec) -> Lowering {
    let kinds = [
        BufferKind::Atomic,
        BufferKind::ProcFifo,
        BufferKind::SlotFifo,
    ];
    match kinds.into_iter().find(|k| k.ppo_cross() == spec.ppo_cross) {
        Some(kind) if spec_serializes(spec) => Lowering::Buffer(kind),
        _ => Lowering::Graph,
    }
}

/// Run the compiled engine. Callers are responsible for the per-address
/// precheck ([`super::precheck_sc`]); this function only searches.
pub(crate) fn solve_compiled(
    trace: &Trace,
    spec: &ModelSpec,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (ConsistencyVerdict, SearchStats) {
    match lowering(spec) {
        Lowering::Buffer(kind) => {
            let mut sys = CompiledMachine::new(trace, kind);
            let (outcome, stats) = run_search(&mut sys, cfg, cancel);
            match outcome {
                KernelOutcome::Accepted(commits) => {
                    let witness = Schedule::from_refs(commits);
                    // Certificate: a commit order the model's schedule
                    // checker rejects is never reported as consistent.
                    if check_model_schedule(trace, spec.id, &witness).is_err() {
                        return (ConsistencyVerdict::Unknown { stats }, stats);
                    }
                    (ConsistencyVerdict::Consistent(witness), stats)
                }
                KernelOutcome::Refuted => (no_schedule(), stats),
                KernelOutcome::BudgetExhausted | KernelOutcome::Cancelled => {
                    (ConsistencyVerdict::Unknown { stats }, stats)
                }
            }
        }
        Lowering::Graph => {
            let ev = Events::new(trace);
            if ev.finals_unmatched || ev.some_read_unsatisfiable() {
                return (no_schedule(), SearchStats::default());
            }
            let mut sys = GraphMachine::new(spec, ev);
            let (outcome, stats) = run_search(&mut sys, cfg, cancel);
            if obs::enabled() {
                obs::counter_add("axiom.plan.visits", sys.plan_visits());
            }
            match outcome {
                KernelOutcome::Accepted(_) => {
                    // The kernel returns with the machine in its accepting
                    // state: the witness is still in place. Certificate:
                    // the reference evaluator, not the plan that accepted
                    // it, must confirm it.
                    if check_witness_ev(spec, &sys.ev, &sys.w).is_err() {
                        return (ConsistencyVerdict::Unknown { stats }, stats);
                    }
                    let sched = witness_schedule(spec, &sys.ev, &sys.w);
                    (ConsistencyVerdict::Consistent(sched), stats)
                }
                KernelOutcome::Refuted => (no_schedule(), stats),
                KernelOutcome::BudgetExhausted | KernelOutcome::Cancelled => {
                    (ConsistencyVerdict::Unknown { stats }, stats)
                }
            }
        }
    }
}

fn no_schedule() -> ConsistencyVerdict {
    ConsistencyVerdict::Violating(ConsistencyViolation {
        class: ViolationClass::NoConsistentSchedule,
    })
}

/// One operation lowered once, at construction, to its address slot and
/// per-slot value ids (see [`MachineBase`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// Program text, lowered, per process.
    per_proc: Vec<Vec<DenseOp>>,
    /// Next program index to issue, per process.
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
    /// Final-value constraints as `(slot, value id)`.
    finals: Vec<(u32, u32)>,
    /// A final-value constraint names an address no operation touches: the
    /// machine can never accept.
    finals_unmatched: bool,
    /// Total number of operations (= commits in a complete run).
    total: usize,
}

impl MachineBase {
    fn new(trace: &Trace) -> MachineBase {
        let addrs = trace.addresses(); // sorted + deduped
        let slot_of = |a: Addr| addrs.binary_search(&a).expect("touched") as u32;
        // Intern in three rounds so the ids memory can hold come first:
        // initial values, written values, then values only read or
        // required finally.
        let mut ids: Vec<BTreeMap<Value, u32>> = addrs
            .iter()
            .map(|&a| BTreeMap::from([(trace.initial(a), 0)]))
            .collect();
        let intern = |ids: &mut [BTreeMap<Value, u32>], slot: u32, v: Value| {
            let table = &mut ids[slot as usize];
            let next = table.len() as u32;
            *table.entry(v).or_insert(next)
        };
        for op in trace.histories().iter().flat_map(|h| h.iter()) {
            if let Some(v) = op.written_value() {
                intern(&mut ids, slot_of(op.addr()), v);
            }
        }
        let memory_values: Vec<u32> = ids.iter().map(|t| t.len() as u32).collect();
        let per_proc: Vec<Vec<DenseOp>> = trace
            .histories()
            .iter()
            .map(|h| {
                h.iter()
                    .map(|op| {
                        let slot = slot_of(op.addr());
                        match op {
                            Op::Read { value, .. } => DenseOp::Read {
                                slot,
                                value: intern(&mut ids, slot, value),
                            },
                            Op::Write { value, .. } => DenseOp::Write {
                                slot,
                                value: intern(&mut ids, slot, value),
                            },
                            Op::Rmw { read, write, .. } => DenseOp::Rmw {
                                slot,
                                read: intern(&mut ids, slot, read),
                                write: intern(&mut ids, slot, write),
                            },
                        }
                    })
                    .collect()
            })
            .collect();

        let mut finals = Vec::new();
        let mut finals_unmatched = false;
        for (&a, &v) in trace.final_values() {
            match addrs.binary_search(&a) {
                Ok(slot) => finals.push((slot as u32, intern(&mut ids, slot as u32, v))),
                Err(_) => finals_unmatched = true,
            }
        }

        let mut supply_at = Vec::with_capacity(ids.len());
        let mut next = 0;
        for table in &ids {
            supply_at.push(next);
            next += table.len() as u32;
        }
        let mut supply = vec![0; next as usize];
        for &op in per_proc.iter().flatten() {
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
            memory: vec![0; addrs.len()],
            memory_values,
            supply_at,
            supply,
            finals,
            finals_unmatched,
        }
    }

    /// The next unissued operation of process `p`, if any.
    #[inline]
    fn next_op(&self, p: usize) -> Option<DenseOp> {
        self.per_proc[p].get(self.frontier[p] as usize).copied()
    }

    /// Reference to the next unissued operation of process `p`.
    #[inline]
    fn op_ref(&self, p: usize) -> OpRef {
        OpRef::new(p as u16, self.frontier[p])
    }

    /// Are the final-value constraints satisfied by current memory?
    fn finals_ok(&self) -> bool {
        !self.finals_unmatched
            && self
                .finals
                .iter()
                .all(|&(s, v)| self.memory[s as usize] == v)
    }

    #[inline]
    fn supply_mut(&mut self, slot: u32, v: u32) -> &mut u32 {
        &mut self.supply[(self.supply_at[slot as usize] + v) as usize]
    }

    /// Does memory miss value `v` at `slot` for good: it holds another
    /// value and no future memory-write of `v` remains?
    #[inline]
    fn starved(&self, slot: u32, v: u32) -> bool {
        self.memory[slot as usize] != v
            && self.supply[(self.supply_at[slot as usize] + v) as usize] == 0
    }

    /// Sound value-availability refutation, for every buffer shape: a
    /// frontier read or final-value constraint demands `(slot, v)` while
    /// memory differs and no future memory-write of `v` remains.
    ///
    /// (An RMW's own write counts toward supply even though it cannot feed
    /// its own read — that only ever *withholds* a prune, never makes one
    /// unsound.)
    fn demand_infeasible(&self) -> bool {
        (0..self.frontier.len()).any(|p| {
            self.next_op(p)
                .and_then(|op| op.read_value().map(|need| self.starved(op.slot(), need)))
                .unwrap_or(false)
        }) || self.finals.iter().any(|&(s, v)| self.starved(s, v))
    }

    /// Is some frontier read waiting for value `v` at `slot`, which memory
    /// does not hold? A move supplying it is explored first.
    #[inline]
    fn demanded(&self, slot: u32, v: u32) -> bool {
        self.memory[slot as usize] != v
            && (0..self.frontier.len()).any(|p| {
                self.next_op(p)
                    .is_some_and(|op| op.slot() == slot && op.read_value() == Some(v))
            })
    }
}

/// The unified store-buffer machine: one [`TransitionSystem`] whose
/// [`BufferKind`] parameter reproduces each pre-refactor machine
/// bit-identically.
///
/// A store buffer is a FIFO *queue* — one per process (ProcFifo) or per
/// process × slot (SlotFifo) — and is kept as two counts, not as its
/// entries: issuing appends the queue's next write in program order and
/// draining removes the oldest, so a queue always holds exactly the
/// `len` writes after its first `drained` ones. Unused buffer structures
/// stay empty under shapes that do not own them.
struct CompiledMachine {
    base: MachineBase,
    kind: BufferKind,
    /// Slot count (the stride of the per-process × slot tables).
    nslots: usize,
    /// Program indices of the writes feeding each queue, in program order.
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
}

/// One state-changing move, with undo state captured at enumeration.
#[derive(Clone, Copy)]
enum CompiledMove {
    /// Drain the oldest buffered store of process `p` to `slot` (program
    /// index `index`, value id `value`); `saved` is the memory value id
    /// it overwrites.
    Drain {
        p: u16,
        slot: u32,
        value: u32,
        index: u32,
        saved: u32,
    },
    /// Issue process `p`'s next instruction. `saved` is the overwritten
    /// memory value id when the issue takes immediate effect (RMWs always;
    /// writes only under [`BufferKind::Atomic`]) and unused otherwise.
    Issue { p: u16, saved: u32 },
}

impl CompiledMachine {
    fn new(trace: &Trace, kind: BufferKind) -> CompiledMachine {
        let base = MachineBase::new(trace);
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
                for (i, &op) in ops.iter().enumerate() {
                    if let DenseOp::Write { slot, .. } = op {
                        queue_writes[queue_of(kind, nslots, p, slot)].push(i as u32);
                    }
                }
            }
        }
        // Field maxima: a frontier reaches its history length, memory its
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
        }
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
        let DenseOp::Write { slot, value } = self.base.per_proc[p][index as usize] else {
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
}

/// The queue a buffered write of process `p` to `slot` enters.
#[inline]
fn queue_of(kind: BufferKind, nslots: usize, p: usize, slot: u32) -> usize {
    match kind {
        BufferKind::SlotFifo => p * nslots + slot as usize,
        _ => p,
    }
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
                commits.push(self.base.op_ref(p));
                self.base.frontier[p] += 1;
            }
        }
    }

    fn retract_read(&mut self, r: OpRef) {
        let p = r.proc.0 as usize;
        self.base.frontier[p] -= 1;
        debug_assert_eq!(self.base.frontier[p], r.index);
    }

    fn infeasible(&self) -> bool {
        self.base.demand_infeasible()
    }

    fn state_key(&self, key: &mut Vec<u64>) {
        // A queue's contents follow from its process's frontier and its
        // length (see the struct docs), so the length alone is keyed.
        let fields = self.base.frontier.iter().chain(&self.base.memory);
        self.key
            .pack(fields.chain(self.queue_lens()).map(|&x| u64::from(x)), key);
    }

    fn enabled_moves(&self, moves: &mut Vec<CompiledMove>) {
        // Memory-effecting moves that supply a demanded value go first,
        // each group in enumeration order: a hot move is inserted after
        // the hot ones already placed.
        let mut hot_end = moves.len();
        let mut push = |mv: CompiledMove, hot: bool| {
            if hot {
                moves.insert(hot_end, mv);
                hot_end += 1;
            } else {
                moves.push(mv);
            }
        };
        for p in 0..self.base.frontier.len() {
            // Drains first, matching each shape's pre-refactor enumeration
            // order: the single FIFO head (ProcFifo) or every per-slot
            // head in ascending slot order (SlotFifo).
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
                Some(OpRef::new(p as u16, index))
            }
            CompiledMove::Issue { p, .. } => {
                let p = p as usize;
                let op = self.base.next_op(p).expect("enabled");
                let index = self.base.frontier[p];
                self.base.frontier[p] += 1;
                match op {
                    DenseOp::Write { slot, value } if self.kind == BufferKind::Atomic => {
                        self.base.memory[slot as usize] = value;
                        *self.base.supply_mut(slot, value) -= 1;
                        Some(OpRef::new(p as u16, index))
                    }
                    DenseOp::Write { slot, .. } => {
                        self.buffered[p] += 1;
                        self.pending[p * self.nslots + slot as usize] += 1;
                        None // commits at drain
                    }
                    DenseOp::Rmw { slot, write, .. } => {
                        self.base.memory[slot as usize] = write;
                        *self.base.supply_mut(slot, write) -= 1;
                        Some(OpRef::new(p as u16, index))
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
    use crate::axiom::{spec, ModelId};
    use vermem_trace::gen::{gen_sc_trace, GenConfig};
    use vermem_trace::TraceBuilder;
    use vermem_util::rng::StdRng;

    #[test]
    fn lowering_recognizes_the_declared_shapes() {
        assert_eq!(
            lowering(spec(ModelId::Sc)),
            Lowering::Buffer(BufferKind::Atomic)
        );
        assert_eq!(
            lowering(spec(ModelId::Tso)),
            Lowering::Buffer(BufferKind::ProcFifo)
        );
        assert_eq!(
            lowering(spec(ModelId::Pso)),
            Lowering::Buffer(BufferKind::SlotFifo)
        );
        assert_eq!(lowering(spec(ModelId::CoherenceOnly)), Lowering::Graph);
        assert_eq!(lowering(spec(ModelId::Ra)), Lowering::Graph);
        assert_eq!(lowering(spec(ModelId::ArmDob)), Lowering::Graph);
    }

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
        let mut sys = CompiledMachine::new(trace, kind);
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
