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
//!   enumeration order, same exploration preference, same state-key
//!   encoding — so verdicts, state sets and [`SearchStats`] match what
//!   those machines produced (pinned by the golden file of
//!   `tests/axiom_differential.rs`).
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
//! ## Supply-map semantics
//!
//! `supply[(slot, v)]` counts the *future memory-write events* of value `v`
//! to `slot`: write-capable operations that have not yet taken global
//! effect. The machine decrements at the moment the write hits memory —
//! at issue for unbuffered writes and for RMWs, at drain for buffered
//! stores — so a buffered-but-undrained store still counts as supply. This
//! makes the feasibility refutation sound for every buffer shape: a
//! frontier read (or final-value constraint) demanding `(slot, v)` while
//! `memory[slot] != v` and `supply[(slot, v)] == 0` can never be satisfied,
//! because memory can never hold `v` again.

use super::graph::GraphMachine;
use super::witness::{check_witness_ev, spec_serializes, witness_schedule, Events};
use super::ModelSpec;
use crate::axiom::check_model_schedule;
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use std::collections::VecDeque;
use vermem_coherence::kernel::{
    encode_frontier, frontier_packs, run_search, KernelConfig, KernelOutcome, TransitionSystem,
};
use vermem_coherence::SearchStats;
use vermem_trace::{Addr, Op, OpRef, Schedule, Trace, Value};
use vermem_util::hash::FxHashMap;
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

/// The buffer-independent part of [`CompiledMachine`]'s state: program
/// text, frontiers, dense memory, supply accounting and final-value
/// constraints.
struct MachineBase {
    /// Program text, per process.
    per_proc: Vec<Vec<Op>>,
    /// Next program index to issue, per process.
    frontier: Vec<u32>,
    /// Touched addresses, sorted; index = *slot*.
    addrs: Vec<Addr>,
    /// Current memory value, by slot.
    memory: Vec<Value>,
    /// Remaining future memory-writes of `(slot, value)` (see module docs).
    supply: FxHashMap<(u32, Value), u32>,
    /// Final-value constraints as `(slot, value)`.
    finals: Vec<(u32, Value)>,
    /// A final-value constraint names an address no operation touches: the
    /// machine can never accept.
    finals_unmatched: bool,
    /// Total number of operations (= commits in a complete run).
    total: usize,
    /// Whether the frontier packs into a single key word.
    packed: bool,
}

impl MachineBase {
    fn new(trace: &Trace) -> MachineBase {
        let per_proc: Vec<Vec<Op>> = trace
            .histories()
            .iter()
            .map(|h| h.iter().collect())
            .collect();
        let total = per_proc.iter().map(Vec::len).sum();
        let addrs = trace.addresses(); // sorted + deduped
        let memory: Vec<Value> = addrs.iter().map(|&a| trace.initial(a)).collect();

        let mut supply: FxHashMap<(u32, Value), u32> = FxHashMap::default();
        for ops in &per_proc {
            for op in ops {
                if let Some(v) = op.written_value() {
                    let slot = addrs.binary_search(&op.addr()).expect("touched") as u32;
                    *supply.entry((slot, v)).or_insert(0) += 1;
                }
            }
        }

        let mut finals = Vec::new();
        let mut finals_unmatched = false;
        for (&a, &v) in trace.final_values() {
            match addrs.binary_search(&a) {
                Ok(slot) => finals.push((slot as u32, v)),
                Err(_) => finals_unmatched = true,
            }
        }

        let packed = frontier_packs(per_proc.iter().map(Vec::len));
        MachineBase {
            frontier: vec![0; per_proc.len()],
            per_proc,
            addrs,
            memory,
            supply,
            finals,
            finals_unmatched,
            total,
            packed,
        }
    }

    /// Slot of a touched address.
    #[inline]
    fn slot(&self, addr: Addr) -> u32 {
        self.addrs.binary_search(&addr).expect("touched address") as u32
    }

    /// The next unissued operation of process `p`, if any.
    #[inline]
    fn next_op(&self, p: usize) -> Option<Op> {
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
    fn supply_of(&self, slot: u32, v: Value) -> u32 {
        self.supply.get(&(slot, v)).copied().unwrap_or(0)
    }

    /// Account one write of `(slot, v)` taking global effect.
    #[inline]
    fn take_supply(&mut self, slot: u32, v: Value) {
        *self.supply.get_mut(&(slot, v)).expect("counted") -= 1;
    }

    /// Undo [`MachineBase::take_supply`].
    #[inline]
    fn put_supply(&mut self, slot: u32, v: Value) {
        *self.supply.get_mut(&(slot, v)).expect("counted") += 1;
    }

    /// Sound value-availability refutation, for every buffer shape: a
    /// frontier read or final-value constraint demands `(slot, v)` while
    /// memory differs and no future memory-write of `v` remains.
    ///
    /// (An RMW's own write counts toward supply even though it cannot feed
    /// its own read — that only ever *withholds* a prune, never makes one
    /// unsound.)
    fn demand_infeasible(&self) -> bool {
        for p in 0..self.frontier.len() {
            if let Some(op) = self.next_op(p) {
                if let Some(need) = op.read_value() {
                    let s = self.slot(op.addr());
                    if self.memory[s as usize] != need && self.supply_of(s, need) == 0 {
                        return true;
                    }
                }
            }
        }
        self.finals
            .iter()
            .any(|&(s, v)| self.memory[s as usize] != v && self.supply_of(s, v) == 0)
    }

    /// The `(slot, value)` pairs some frontier read is waiting for — used
    /// to explore supplying moves first.
    fn demanded(&self) -> Vec<(u32, Value)> {
        let mut out = Vec::new();
        for p in 0..self.frontier.len() {
            if let Some(op) = self.next_op(p) {
                if let Some(need) = op.read_value() {
                    let s = self.slot(op.addr());
                    if self.memory[s as usize] != need {
                        out.push((s, need));
                    }
                }
            }
        }
        out
    }

    /// Canonical key prefix: the frontier (packed when the instance shape
    /// allows) followed by the fixed-width memory image. The buffer state
    /// is appended after it, length-prefixed.
    fn key_base(&self, key: &mut Vec<u64>) {
        encode_frontier(&self.frontier, self.packed, key);
        key.extend(self.memory.iter().map(|v| v.0));
    }
}

/// The unified store-buffer machine: one [`TransitionSystem`] whose
/// [`BufferKind`] parameter reproduces each pre-refactor machine
/// bit-identically.
/// Unused buffer structures stay empty (and cost nothing) under shapes
/// that do not own them.
struct CompiledMachine {
    base: MachineBase,
    kind: BufferKind,
    /// Per-process FIFO of `(slot, value, program index)` (ProcFifo).
    fifo: Vec<VecDeque<(u32, Value, u32)>>,
    /// Per-process, per-slot FIFO of `(value, program index)` (SlotFifo).
    queues: Vec<Vec<VecDeque<(Value, u32)>>>,
    /// Buffered-store count per process (O(1) RMW empty-buffer gate).
    buffered: Vec<u32>,
}

/// One state-changing move, with undo state captured at enumeration.
#[derive(Clone, Copy)]
enum CompiledMove {
    /// Drain one buffered store of process `p` (the captured entry);
    /// `saved` is the memory value it overwrites.
    Drain {
        p: u16,
        slot: u32,
        value: Value,
        index: u32,
        saved: Value,
    },
    /// Issue process `p`'s next instruction. `saved` is the overwritten
    /// memory value when the issue takes immediate effect (RMWs always;
    /// writes only under [`BufferKind::Atomic`]) and unused otherwise.
    Issue { p: u16, saved: Value },
}

impl CompiledMachine {
    fn new(trace: &Trace, kind: BufferKind) -> CompiledMachine {
        let nprocs = trace.num_procs();
        let nslots = trace.addresses().len();
        CompiledMachine {
            base: MachineBase::new(trace),
            kind,
            fifo: if kind == BufferKind::ProcFifo {
                vec![VecDeque::new(); nprocs]
            } else {
                Vec::new()
            },
            queues: if kind == BufferKind::SlotFifo {
                vec![vec![VecDeque::new(); nslots]; nprocs]
            } else {
                Vec::new()
            },
            buffered: vec![0; nprocs],
        }
    }

    /// Does a buffered store block process `p`'s loads from `slot`?
    fn blocked(&self, p: usize, slot: u32) -> bool {
        match self.kind {
            BufferKind::Atomic => false,
            BufferKind::ProcFifo => self.fifo[p].iter().any(|&(s, _, _)| s == slot),
            BufferKind::SlotFifo => !self.queues[p][slot as usize].is_empty(),
        }
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
            while let Some(op) = self.base.next_op(p) {
                match op {
                    Op::Read { addr, value } => {
                        let s = self.base.slot(addr);
                        if !self.blocked(p, s) && self.base.memory[s as usize] == value {
                            commits.push(self.base.op_ref(p));
                            self.base.frontier[p] += 1;
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
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
        self.base.key_base(key);
        match self.kind {
            BufferKind::Atomic => {}
            BufferKind::ProcFifo => {
                for b in &self.fifo {
                    key.push(b.len() as u64);
                    for &(slot, value, index) in b {
                        key.push((u64::from(slot) << 32) | u64::from(index));
                        key.push(value.0);
                    }
                }
            }
            BufferKind::SlotFifo => {
                for qs in &self.queues {
                    let nonempty = qs.iter().filter(|q| !q.is_empty()).count();
                    key.push(nonempty as u64);
                    for (slot, q) in qs.iter().enumerate() {
                        if q.is_empty() {
                            continue;
                        }
                        key.push(((slot as u64) << 32) | q.len() as u64);
                        for &(value, index) in q {
                            key.push(value.0);
                            key.push(u64::from(index));
                        }
                    }
                }
            }
        }
    }

    fn enabled_moves(&self, moves: &mut Vec<CompiledMove>) {
        let demanded = self.base.demanded();
        for p in 0..self.base.frontier.len() {
            // Drains first, matching each shape's pre-refactor enumeration
            // order: the single FIFO head (ProcFifo) or every per-slot
            // head in ascending slot order (SlotFifo).
            match self.kind {
                BufferKind::Atomic => {}
                BufferKind::ProcFifo => {
                    if let Some(&(slot, value, index)) = self.fifo[p].front() {
                        moves.push(CompiledMove::Drain {
                            p: p as u16,
                            slot,
                            value,
                            index,
                            saved: self.base.memory[slot as usize],
                        });
                    }
                }
                BufferKind::SlotFifo => {
                    for (slot, q) in self.queues[p].iter().enumerate() {
                        if let Some(&(value, index)) = q.front() {
                            moves.push(CompiledMove::Drain {
                                p: p as u16,
                                slot: slot as u32,
                                value,
                                index,
                                saved: self.base.memory[slot],
                            });
                        }
                    }
                }
            }
            if let Some(op) = self.base.next_op(p) {
                match op {
                    Op::Write { .. } => {
                        let saved = match self.kind {
                            // Atomic writes take effect at issue: capture
                            // the overwritten value for undo.
                            BufferKind::Atomic => {
                                self.base.memory[self.base.slot(op.addr()) as usize]
                            }
                            _ => Value::INITIAL, // unused for buffered writes
                        };
                        moves.push(CompiledMove::Issue { p: p as u16, saved });
                    }
                    Op::Rmw { addr, read, .. } => {
                        // Atomics drain first (issue only with an empty
                        // buffer) and take effect immediately.
                        let s = self.base.slot(addr);
                        if self.buffered[p] == 0 && self.base.memory[s as usize] == read {
                            moves.push(CompiledMove::Issue {
                                p: p as u16,
                                saved: self.base.memory[s as usize],
                            });
                        }
                    }
                    Op::Read { .. } => {} // absorption only
                }
            }
        }
        // Memory-effecting moves that supply a demanded value first
        // (stable, so program order breaks ties deterministically).
        moves.sort_by_key(|m| {
            let hot = match *m {
                CompiledMove::Drain { slot, value, .. } => demanded.contains(&(slot, value)),
                CompiledMove::Issue { p, .. } => match self.base.next_op(p as usize) {
                    Some(Op::Rmw { addr, write, .. }) => {
                        demanded.contains(&(self.base.slot(addr), write))
                    }
                    Some(Op::Write { addr, value }) if self.kind == BufferKind::Atomic => {
                        demanded.contains(&(self.base.slot(addr), value))
                    }
                    _ => false, // a buffered write supplies nothing yet
                },
            };
            std::cmp::Reverse(hot)
        });
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
                match self.kind {
                    BufferKind::ProcFifo => {
                        let popped = self.fifo[p as usize].pop_front();
                        debug_assert_eq!(popped, Some((slot, value, index)));
                    }
                    BufferKind::SlotFifo => {
                        let popped = self.queues[p as usize][slot as usize].pop_front();
                        debug_assert_eq!(popped, Some((value, index)));
                    }
                    BufferKind::Atomic => unreachable!("the atomic lowering never drains"),
                }
                self.buffered[p as usize] -= 1;
                self.base.memory[slot as usize] = value;
                self.base.take_supply(slot, value);
                Some(OpRef::new(p, index))
            }
            CompiledMove::Issue { p, .. } => {
                let p = p as usize;
                let op = self.base.next_op(p).expect("enabled");
                let index = self.base.frontier[p];
                self.base.frontier[p] += 1;
                match op {
                    Op::Write { addr, value } => {
                        let s = self.base.slot(addr);
                        match self.kind {
                            BufferKind::Atomic => {
                                self.base.memory[s as usize] = value;
                                self.base.take_supply(s, value);
                                Some(OpRef::new(p as u16, index))
                            }
                            BufferKind::ProcFifo => {
                                self.fifo[p].push_back((s, value, index));
                                self.buffered[p] += 1;
                                None // commits at drain
                            }
                            BufferKind::SlotFifo => {
                                self.queues[p][s as usize].push_back((value, index));
                                self.buffered[p] += 1;
                                None // commits at drain
                            }
                        }
                    }
                    Op::Rmw { addr, write, .. } => {
                        let s = self.base.slot(addr);
                        self.base.memory[s as usize] = write;
                        self.base.take_supply(s, write);
                        Some(OpRef::new(p as u16, index))
                    }
                    Op::Read { .. } => unreachable!("reads are absorbed, not issued"),
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
                index,
                saved,
            } => {
                self.base.put_supply(slot, value);
                self.base.memory[slot as usize] = saved;
                match self.kind {
                    BufferKind::ProcFifo => self.fifo[p as usize].push_front((slot, value, index)),
                    BufferKind::SlotFifo => {
                        self.queues[p as usize][slot as usize].push_front((value, index))
                    }
                    BufferKind::Atomic => unreachable!("the atomic lowering never drains"),
                }
                self.buffered[p as usize] += 1;
            }
            CompiledMove::Issue { p, saved } => {
                let p = p as usize;
                self.base.frontier[p] -= 1;
                match self.base.next_op(p).expect("applied") {
                    Op::Write { addr, value } => {
                        let s = self.base.slot(addr);
                        match self.kind {
                            BufferKind::Atomic => {
                                self.base.put_supply(s, value);
                                self.base.memory[s as usize] = saved;
                            }
                            BufferKind::ProcFifo => {
                                self.fifo[p].pop_back();
                                self.buffered[p] -= 1;
                            }
                            BufferKind::SlotFifo => {
                                self.queues[p][s as usize].pop_back();
                                self.buffered[p] -= 1;
                            }
                        }
                    }
                    Op::Rmw { addr, write, .. } => {
                        let s = self.base.slot(addr);
                        self.base.put_supply(s, write);
                        self.base.memory[s as usize] = saved;
                    }
                    Op::Read { .. } => unreachable!("reads are absorbed, not issued"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::{spec, ModelId};

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
}
