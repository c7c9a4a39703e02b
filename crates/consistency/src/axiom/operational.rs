//! The operational compiler: lower a [`ModelSpec`] to a
//! [`TransitionSystem`] on the exact-search kernel.
//!
//! Two lowerings exist, chosen by inspecting the spec *as data*:
//!
//! * **Buffer lowering** — specs whose axioms pin a single serialization
//!   order ([`super::witness::spec_serializes`]) and whose enforcement
//!   table matches a recognized machine shape compile to one unified
//!   store-buffer machine over the shared
//!   [`MachineBase`](crate::machine::MachineBase): no buffer (SC: every
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

use super::graph::GraphMachine;
use super::witness::{check_witness_ev, spec_serializes, witness_schedule, Events};
use super::ModelSpec;
use crate::machine::{outcome_to_verdict, MachineBase};
use crate::models::{check_model_schedule, MemoryModel};
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use std::collections::VecDeque;
use vermem_coherence::kernel::{run_search, KernelConfig, KernelOutcome, TransitionSystem};
use vermem_coherence::SearchStats;
use vermem_trace::{Op, OpRef, Schedule, Trace, Value};
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
    /// The serialization model this machine shape decides — the oracle
    /// for the lowering's witness debug-assert.
    fn base_model(self) -> MemoryModel {
        match self {
            BufferKind::Atomic => MemoryModel::Sc,
            BufferKind::ProcFifo => MemoryModel::Tso,
            BufferKind::SlotFifo => MemoryModel::Pso,
        }
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

/// Enforcement tables of the recognized machine shapes (classes: read,
/// write, RMW).
const SC_TABLE: [[bool; 3]; 3] = [[true; 3]; 3];
const TSO_TABLE: [[bool; 3]; 3] = [[true, true, true], [false, true, true], [true, true, true]];
const PSO_TABLE: [[bool; 3]; 3] = [[true, true, true], [false, false, true], [true, true, true]];

/// Choose the lowering by inspecting the spec as data: the axiom shape
/// first, then the enforcement table.
pub(crate) fn lowering(spec: &ModelSpec) -> Lowering {
    if !spec_serializes(spec) {
        return Lowering::Graph;
    }
    match spec.ppo_cross {
        t if t == SC_TABLE => Lowering::Buffer(BufferKind::Atomic),
        t if t == TSO_TABLE => Lowering::Buffer(BufferKind::ProcFifo),
        t if t == PSO_TABLE => Lowering::Buffer(BufferKind::SlotFifo),
        _ => Lowering::Graph,
    }
}

/// Run the compiled engine. Callers are responsible for the per-address
/// precheck ([`crate::precheck_sc`]); this function only searches.
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
            if let KernelOutcome::Accepted(commits) = &outcome {
                let witness = Schedule::from_refs(commits.iter().copied());
                debug_assert!(
                    check_model_schedule(trace, kind.base_model(), &witness).is_ok(),
                    "compiled {:?} machine produced an invalid commit order",
                    kind
                );
            }
            (outcome_to_verdict(outcome, stats), stats)
        }
        Lowering::Graph => {
            let ev = Events::new(trace);
            if ev.finals_unmatched || ev.some_read_unsatisfiable() {
                return (no_schedule(), SearchStats::default());
            }
            let mut sys = GraphMachine::new(spec, ev);
            let (outcome, stats) = run_search(&mut sys, cfg, cancel);
            match outcome {
                KernelOutcome::Accepted(_) => {
                    // The kernel returns with the machine in its accepting
                    // state: the witness is still in place.
                    debug_assert_eq!(check_witness_ev(sys.spec, &sys.ev, &sys.w), Ok(()));
                    let sched = witness_schedule(sys.spec, &sys.ev, &sys.w);
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
