//! The operational compiler: lower a [`ModelSpec`] to a decider on the
//! exact-search kernel.
//!
//! Three lowerings exist, chosen by inspecting the spec *as data*. None
//! lays the trace out itself: each reads the one [`AddrIndex`] that
//! [`super::verify_axiom`] builds per check (slot `i` is the index's
//! `i`-th entry), the index its per-address precheck already swept.
//!
//! * **Per-address lowering** — a spec whose axioms pin a single
//!   serialization order ([`super::witness::spec_serializes`]) and whose
//!   enforcement table preserves no cross-address pair (coherence-only)
//!   orders each address on its own: by the paper's §3 definition the
//!   trace is consistent iff every address's VMC instance (Definition
//!   4.1) has a coherent schedule. The lowering runs the VMC dispatcher
//!   ([`VmcVerifier::verify_ops`]: the Figure 5.3 fast paths, the closure
//!   frontline, then the exact VMC search) on each index entry in
//!   ascending address order, the decider `verify_execution` runs. The schedule of a
//!   consistent trace is the per-address schedules concatenated in
//!   address order.
//! * **Buffer lowering** — single-serialization specs whose enforcement
//!   table matches a recognized machine shape compile to one unified
//!   store-buffer machine over [`MachineBase`]: no buffer (SC: every
//!   issue takes effect atomically), one FIFO per process (TSO), or one
//!   FIFO per process×address (PSO). The lowering reproduces the
//!   pre-refactor hand-written machines **bit-identically** — same move
//!   enumeration order, same exploration preference, same memo equality
//!   classes — so verdicts, state sets and [`SearchStats`] match what
//!   those machines produced (pinned by the golden file of
//!   `tests/axiom_differential.rs`). The machine runs on dense ids: each
//!   operation is lowered once, from its index entry, to its address slot
//!   and per-slot value ids, and each state is keyed by one fixed-width
//!   bit-packed record (frontiers, memory value ids, store-buffer
//!   lengths).
//! * **Graph lowering** — every other spec (RA, ARM-dob) compiles to the
//!   witness-construction machine of [`super::graph`], which decides `rf`
//!   and `mo` directly and answers to the reference axiom evaluator. It
//!   takes over the event universe ([`Events`]) the RA fast tier already
//!   built when that tier escalates.
//!
//! **SC stage.** SC is the strongest declared model: every SC
//! serialization is a TSO/PSO commit order and induces an RA/ARM-dob
//! `rf`/`mo` witness. So a spec that lowers to a buffered machine or to
//! the graph machine first runs the SC machine ([`sc_stage`]) on a fixed
//! budget of [`SC_STAGE_STATES_PER_OP`] states per operation, taken from
//! the caller's. A found order becomes a verdict only through the model's
//! own certificate: the schedule checker for TSO/PSO
//! ([`certify_schedule`]), the reference axiom evaluator on the induced
//! witness for RA/ARM-dob ([`certify_order_witness`]). Anything else — a
//! refutation, a spent stage budget, a rejected order — falls through to
//! the model's own machine ([`solve_buffer`], [`solve_graph`]) with the
//! budget left, and the report sums both searches' stats.
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
use super::witness::{check_witness_ev, spec_serializes, witness_schedule, Events, Witness};
use super::{AxiomReport, ModelSpec};
use crate::axiom::check_model_schedule;
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use std::collections::BTreeMap;
use vermem_coherence::kernel::{
    run_search, KernelConfig, KernelOutcome, KeyPacker, TransitionSystem,
};
use vermem_coherence::{SearchConfig, SearchStats, Tier, Verdict, VmcVerifier};
use vermem_trace::{AddrIndex, Op, OpRef, Schedule, Trace, Value};
use vermem_util::obs;

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
    /// Single-serialization spec preserving no cross-address pair: VMC at
    /// each address.
    PerAddress,
    /// Single-serialization spec with a recognized buffer shape.
    Buffer(BufferKind),
    /// Everything else: direct witness search.
    Graph,
}

/// Choose the lowering by inspecting the spec as data: the axiom shape
/// first, then the enforcement table — none at all, or the table a buffer
/// machine implements ([`BufferKind::ppo_cross`]).
pub(crate) fn lowering(spec: &ModelSpec) -> Lowering {
    if !spec_serializes(spec) {
        return Lowering::Graph;
    }
    if spec.ppo_cross == [[false; 3]; 3] {
        return Lowering::PerAddress;
    }
    let kinds = [
        BufferKind::Atomic,
        BufferKind::ProcFifo,
        BufferKind::SlotFifo,
    ];
    match kinds.into_iter().find(|k| k.ppo_cross() == spec.ppo_cross) {
        Some(kind) => Lowering::Buffer(kind),
        None => Lowering::Graph,
    }
}

/// The report of an exact search: its verdict, given a certified
/// witness, and its stats.
fn exact(verdict: Option<ConsistencyVerdict>, stats: SearchStats) -> AxiomReport {
    AxiomReport {
        verdict: verdict.unwrap_or(ConsistencyVerdict::Unknown { stats }),
        stats,
        tier: Tier::Exact,
    }
}

/// States per operation the SC stage may visit: the stage of a trace of
/// `n` operations stops after `SC_STAGE_STATES_PER_OP * n` states (or the
/// caller's budget, if smaller). On the generated multi-address
/// executions of the `models-batch` benchmark (seeds 1–5) the stage
/// accepts after a median of about 1.2 and at most 9.2 states per
/// operation, so this leaves room before a trace pays for both searches.
pub(crate) const SC_STAGE_STATES_PER_OP: u64 = 16;

/// What the SC stage ([`sc_stage`]) settled.
pub(crate) enum ScStage {
    /// The model's certificate accepted the SC order, or the stage spent
    /// the caller's whole budget.
    Decided(AxiomReport),
    /// Neither: the model's own machine decides within `rest`, and its
    /// report adds the stage's `stats`.
    FallBack {
        rest: KernelConfig,
        stats: SearchStats,
    },
}

impl ScStage {
    /// The stage's report, or else `machine`'s within the budget the
    /// stage left, with the stats of both searches summed.
    pub(crate) fn or_else(self, machine: impl FnOnce(&KernelConfig) -> AxiomReport) -> AxiomReport {
        match self {
            ScStage::Decided(report) => report,
            ScStage::FallBack { rest, stats } => {
                let mut report = machine(&rest);
                report.stats.absorb(&stats);
                if let ConsistencyVerdict::Unknown { stats } = &mut report.verdict {
                    *stats = report.stats;
                }
                report
            }
        }
    }
}

/// The SC stage of a model weaker than SC: search the SC sub-space first,
/// with the SC machine ([`BufferKind::Atomic`]) over the layout `idx` of
/// `trace`. Every SC serialization is a witness of TSO, PSO, RA and
/// ARM-dob, but a found order is accepted only if `certify`, the model's
/// own certificate, turns it into a schedule. The stage's budget is
/// [`SC_STAGE_STATES_PER_OP`] per operation, taken from `cfg`'s: a
/// refutation, a rejected order or an exhausted stage budget leaves the
/// rest to the model's own machine, unless the stage spent all of `cfg`'s.
pub(crate) fn sc_stage(
    trace: &Trace,
    idx: &AddrIndex,
    cfg: &KernelConfig,
    certify: impl FnOnce(Vec<OpRef>) -> Option<Schedule>,
) -> ScStage {
    let cap = SC_STAGE_STATES_PER_OP.saturating_mul(trace.num_ops() as u64);
    let budget = cfg.max_states.map_or(cap, |max| max.min(cap));
    let mut sys = CompiledMachine::new(trace, idx, BufferKind::Atomic);
    let (outcome, stats) = run_search(&mut sys, &KernelConfig::with_budget(budget), None);
    match outcome {
        KernelOutcome::Accepted(order) => {
            if let Some(schedule) = certify(order) {
                let verdict = ConsistencyVerdict::Consistent(schedule);
                return ScStage::Decided(exact(Some(verdict), stats));
            }
        }
        KernelOutcome::BudgetExhausted if cfg.max_states == Some(budget) => {
            return ScStage::Decided(exact(None, stats));
        }
        _ => {}
    }
    ScStage::FallBack {
        rest: KernelConfig {
            max_states: cfg.max_states.map(|max| max.saturating_sub(stats.states)),
        },
        stats,
    }
}

/// Certificate of a serialization model: `commits` as a schedule, if the
/// model's schedule checker accepts it.
pub(crate) fn certify_schedule(
    trace: &Trace,
    spec: &ModelSpec,
    commits: Vec<OpRef>,
) -> Option<Schedule> {
    let schedule = Schedule::from_refs(commits);
    check_model_schedule(trace, spec.id, &schedule)
        .is_ok()
        .then_some(schedule)
}

/// Certificate of a graph-lowered model: the witness the serialization
/// `order` induces ([`Witness::of_order`]), if the reference evaluator
/// accepts it, reported as its witness schedule.
pub(crate) fn certify_order_witness(
    spec: &ModelSpec,
    ev: &Events,
    order: &[OpRef],
) -> Option<Schedule> {
    let w = Witness::of_order(ev, order);
    check_witness_ev(spec, ev, &w)
        .is_ok()
        .then(|| witness_schedule(spec, ev, &w))
}

/// The buffer lowering: one store-buffer machine of shape `kind` over the
/// layout `idx` of `trace`. It is the model's own machine: the SC stage
/// of the weaker shapes runs before it, in [`super::verify_axiom`].
pub(crate) fn solve_buffer(
    trace: &Trace,
    idx: &AddrIndex,
    spec: &ModelSpec,
    kind: BufferKind,
    cfg: &KernelConfig,
) -> AxiomReport {
    let mut sys = CompiledMachine::new(trace, idx, kind);
    let (outcome, stats) = run_search(&mut sys, cfg, None);
    let verdict = match outcome {
        // Certificate: a commit order the model's schedule checker
        // rejects is never reported as consistent.
        KernelOutcome::Accepted(commits) => {
            certify_schedule(trace, spec, commits).map(ConsistencyVerdict::Consistent)
        }
        KernelOutcome::Refuted => Some(no_schedule()),
        KernelOutcome::BudgetExhausted | KernelOutcome::Cancelled => None,
    };
    exact(verdict, stats)
}

/// The graph lowering: the witness-search machine over `ev`, the model's
/// own machine (the SC stage runs before it, in [`super::verify_axiom`]).
pub(crate) fn solve_graph(spec: &ModelSpec, ev: Events, cfg: &KernelConfig) -> AxiomReport {
    if ev.some_read_unsatisfiable() {
        return exact(Some(no_schedule()), SearchStats::default());
    }
    let mut sys = GraphMachine::new(spec, ev);
    let (outcome, stats) = run_search(&mut sys, cfg, None);
    if obs::enabled() {
        obs::counter_add("axiom.plan.visits", sys.plan_visits());
    }
    let verdict = match outcome {
        // The kernel returns with the machine in its accepting state: the
        // witness is still in place. Certificate: the reference evaluator,
        // not the plan that accepted it, must confirm it.
        KernelOutcome::Accepted(_) => check_witness_ev(spec, &sys.ev, &sys.w)
            .is_ok()
            .then(|| ConsistencyVerdict::Consistent(witness_schedule(spec, &sys.ev, &sys.w))),
        KernelOutcome::Refuted => Some(no_schedule()),
        KernelOutcome::BudgetExhausted | KernelOutcome::Cancelled => None,
    };
    exact(verdict, stats)
}

/// The per-address lowering: the VMC dispatcher on each entry of `idx`
/// in ascending address order, each with its own `max_states` budget.
/// The first incoherent address refutes the trace and an undecided one
/// leaves it unknown, with the stats summed up to and including that
/// address. The report's tier is [`Tier::Frontline`] iff no address
/// escalated to the exact search.
pub(crate) fn solve_per_address(
    trace: &Trace,
    idx: &AddrIndex,
    spec: &ModelSpec,
    cfg: &KernelConfig,
) -> AxiomReport {
    let verifier = VmcVerifier {
        search: SearchConfig {
            max_states: cfg.max_states,
            ..SearchConfig::default()
        },
        ..VmcVerifier::new()
    };
    let mut stats = SearchStats::default();
    let mut tier = Tier::Frontline;
    let mut order = Vec::with_capacity(trace.num_ops());
    for ops in idx.iter() {
        let (verdict, s, t) = verifier.verify_ops(ops);
        stats.absorb(&s);
        if t == Tier::Exact {
            tier = Tier::Exact;
        }
        let verdict = match verdict {
            Verdict::Coherent(w) => {
                order.extend_from_slice(w.refs());
                continue;
            }
            Verdict::Incoherent(v) => ConsistencyVerdict::Violating(ConsistencyViolation {
                class: ViolationClass::PerAddressCoherence(v),
            }),
            Verdict::Unknown => ConsistencyVerdict::Unknown { stats },
        };
        return AxiomReport {
            verdict,
            stats,
            tier,
        };
    }
    let schedule = Schedule::from_refs(order);
    // Certificate, as for the buffer machines.
    let verdict = if check_model_schedule(trace, spec.id, &schedule).is_ok() {
        ConsistencyVerdict::Consistent(schedule)
    } else {
        ConsistencyVerdict::Unknown { stats }
    };
    AxiomReport {
        verdict,
        stats,
        tier,
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
    /// Final-value constraints as `(slot, value id)`. An address that
    /// carries only a final value is a slot no operation writes.
    finals: Vec<(u32, u32)>,
    /// Total number of operations (= commits in a complete run).
    total: usize,
}

impl MachineBase {
    /// The machine of `trace`, laid out by its index `idx`: slot `i` is
    /// the index's `i`-th entry.
    fn new(trace: &Trace, idx: &AddrIndex) -> MachineBase {
        // Every op is lowered below, by the one entry that lists it.
        let placeholder = DenseOp::Read { slot: 0, value: 0 };
        let mut per_proc: Vec<Vec<DenseOp>> = trace
            .histories()
            .iter()
            .map(|h| vec![placeholder; h.len()])
            .collect();
        let mut memory_values = Vec::with_capacity(idx.len());
        let mut supply_at = Vec::with_capacity(idx.len());
        let mut finals = Vec::new();
        let mut next = 0;
        for (slot, entry) in idx.iter().enumerate() {
            let slot = slot as u32;
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
            for (r, op) in entry.iter() {
                per_proc[r.proc.0 as usize][r.index as usize] = match op {
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
            }
            if let Some(v) = entry.final_value() {
                finals.push((slot, intern(&mut ids, v)));
            }
            supply_at.push(next);
            next += ids.len() as u32;
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
            memory: vec![0; idx.len()],
            memory_values,
            supply_at,
            supply,
            finals,
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
        self.finals
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
    fn new(trace: &Trace, idx: &AddrIndex, kind: BufferKind) -> CompiledMachine {
        let base = MachineBase::new(trace, idx);
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
    use vermem_trace::{Addr, TraceBuilder};
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
        assert_eq!(lowering(spec(ModelId::CoherenceOnly)), Lowering::PerAddress);
        // The graph machine is built for exactly the models that do not
        // serialize.
        let graph: Vec<ModelId> = ModelId::ALL
            .into_iter()
            .filter(|&id| lowering(spec(id)) == Lowering::Graph)
            .collect();
        assert_eq!(graph, [ModelId::Ra, ModelId::ArmDob]);
    }

    /// The weaker models, which run the SC stage before their own machine.
    const STAGED: [ModelId; 4] = [ModelId::Tso, ModelId::Pso, ModelId::Ra, ModelId::ArmDob];

    /// The compiled engine without the SC stage: the precheck, then the
    /// lowering's own machine, with the RA fast tier off.
    fn own_machine(trace: &Trace, id: ModelId, cfg: &KernelConfig) -> AxiomReport {
        let (spec, idx) = (spec(id), AddrIndex::build(trace));
        if let Some(v) = super::super::precheck(&idx) {
            return AxiomReport {
                verdict: ConsistencyVerdict::Violating(v),
                stats: SearchStats::default(),
                tier: Tier::Frontline,
            };
        }
        match lowering(spec) {
            Lowering::Buffer(kind) => solve_buffer(trace, &idx, spec, kind, cfg),
            Lowering::Graph => solve_graph(spec, Events::new(trace, &idx), cfg),
            Lowering::PerAddress => unreachable!("{} is not staged", spec.name),
        }
    }

    /// `verify_axiom` with the RA fast tier off, so every staged model
    /// reaches its SC stage.
    fn staged(trace: &Trace, id: ModelId, kernel: KernelConfig) -> AxiomReport {
        let cfg = crate::axiom::AxiomConfig {
            kernel,
            tier: vermem_coherence::TierConfig::exact_only(),
            ..Default::default()
        };
        crate::axiom::verify_axiom(trace, id, &cfg)
    }

    fn sat(trace: &Trace, id: ModelId) -> ConsistencyVerdict {
        super::super::sat_verdict(trace, &AddrIndex::build(trace), spec(id))
    }

    /// Each weaker model's own machine, which the SC stage now runs only
    /// when SC fails, still decides like the SAT compiler: over the whole
    /// 3-op small-scope space and the litmus set.
    #[test]
    fn own_machines_without_the_sc_stage_equal_sat() {
        let mut beyond_sc = [0; 4];
        let mut check = |t: &Trace, ctx: &dyn Fn() -> String| {
            let sc = sat(t, ModelId::Sc).is_consistent();
            for (n, id) in STAGED.into_iter().enumerate() {
                let own = own_machine(t, id, &KernelConfig::default()).verdict;
                let want = sat(t, id);
                assert!(own.unknown_stats().is_none(), "{}: {}", id.name(), ctx());
                assert_eq!(
                    own.is_consistent(),
                    want.is_consistent(),
                    "{}: {}",
                    id.name(),
                    ctx()
                );
                beyond_sc[n] += usize::from(own.is_consistent() && !sc);
            }
        };
        let mut traces = 0;
        vermem_trace::gen::small_traces(
            &vermem_trace::gen::SmallScope {
                max_ops: 3,
                addrs: 2,
                values: 3,
            },
            |t| {
                traces += 1;
                check(t, &|| format!("{t:?}"));
            },
        );
        assert_eq!(traces, 15_255);
        for test in crate::litmus::all_litmus_tests() {
            check(&test.trace, &|| test.name.to_string());
        }
        // Each machine decided traces the SC stage cannot accept.
        assert!(beyond_sc.iter().all(|&n| n > 0), "{beyond_sc:?}");
    }

    /// On an SC execution the SC stage decides every weaker model: its
    /// stats are the SC search's, and the store-buffer models report the
    /// SC schedule itself.
    #[test]
    fn sc_stage_decides_sc_executions_with_the_sc_search_stats() {
        for seed in 0..12 {
            let (t, _) = gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: 24,
                addrs: 3,
                value_reuse: 0.5,
                seed: 30_000 + seed,
                ..Default::default()
            });
            let sc = staged(&t, ModelId::Sc, KernelConfig::default());
            assert!(
                sc.verdict.is_consistent() && sc.stats.states > 0,
                "seed {seed}"
            );
            for id in STAGED {
                let r = staged(&t, id, KernelConfig::default());
                assert!(r.verdict.is_consistent(), "{} seed {seed}", id.name());
                assert_eq!(r.stats, sc.stats, "{} seed {seed}", id.name());
                assert_eq!(r.tier, Tier::Exact, "{} seed {seed}", id.name());
                if matches!(id, ModelId::Tso | ModelId::Pso) {
                    assert_eq!(r.verdict, sc.verdict, "{} seed {seed}", id.name());
                }
                // A budget the SC search overruns is spent by the stage
                // alone: the same Unknown as SC's under that budget.
                let tight = KernelConfig::with_budget(sc.stats.states / 2);
                let (a, b) = (staged(&t, id, tight), staged(&t, ModelId::Sc, tight));
                assert!(
                    a.verdict.unknown_stats().is_some(),
                    "{} seed {seed}",
                    id.name()
                );
                assert_eq!(a.verdict, b.verdict, "{} seed {seed}", id.name());
                assert_eq!(a.stats, b.stats, "{} seed {seed}", id.name());
            }
        }
    }

    /// On litmus outcomes SC forbids, the SC stage refutes and the model's
    /// own machine decides: the verdict and schedule are the machine's,
    /// and the stats are the refuted SC attempt's plus the machine's.
    #[test]
    fn sc_forbidden_outcomes_fall_back_to_the_own_machine() {
        let mut allowed = 0;
        for test in crate::litmus::all_litmus_tests() {
            let t = &test.trace;
            let sc = staged(t, ModelId::Sc, KernelConfig::default());
            if sc.verdict.is_consistent() {
                continue;
            }
            for id in STAGED {
                let own = own_machine(t, id, &KernelConfig::default());
                let r = staged(t, id, KernelConfig::default());
                let ctx = format!("{} under {}", test.name, id.name());
                let mut sum = sc.stats;
                sum.absorb(&own.stats);
                assert_eq!(r.verdict, own.verdict, "{ctx}");
                assert_eq!(r.stats, sum, "{ctx}");
                assert_eq!(r.tier, own.tier, "{ctx}");
                allowed += usize::from(r.verdict.is_consistent());
            }
        }
        assert!(allowed >= 8, "only {allowed} SC-forbidden outcomes allowed");
    }

    /// A rejected certificate falls through, unchanged, to the model's own
    /// machine.
    #[test]
    fn a_rejected_certificate_falls_through() {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3,
            total_ops: 18,
            addrs: 2,
            seed: 7,
            ..Default::default()
        });
        let idx = AddrIndex::build(&t);
        let sc = staged(&t, ModelId::Sc, KernelConfig::default());
        for kind in [BufferKind::ProcFifo, BufferKind::SlotFifo] {
            let spec = spec(if kind == BufferKind::ProcFifo {
                ModelId::Tso
            } else {
                ModelId::Pso
            });
            let cfg = KernelConfig::default();
            let r = sc_stage(&t, &idx, &cfg, |_| None)
                .or_else(|rest| solve_buffer(&t, &idx, spec, kind, rest));
            let own = solve_buffer(&t, &idx, spec, kind, &cfg);
            let mut sum = sc.stats;
            sum.absorb(&own.stats);
            assert_eq!(r.verdict, own.verdict, "{}", spec.name);
            assert_eq!(r.stats, sum, "{}", spec.name);
        }
    }

    /// The certificates accept exactly the orders that witness their
    /// model. On the message-passing outcome (P1 sees the flag but not
    /// the data), the order that lets the flag store pass the data store
    /// witnesses PSO and ARM-dob but not TSO or RA; an order in which a
    /// read does not see its value witnesses nothing.
    #[test]
    fn certificates_reject_orders_that_witness_nothing() {
        let mp = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        let idx = AddrIndex::build(&mp);
        let ev = Events::new(&mp, &idx);
        let refs = |order: &[(u16, u32)]| -> Vec<OpRef> {
            order.iter().map(|&(p, i)| OpRef::new(p, i)).collect()
        };
        let passed = refs(&[(0, 1), (1, 0), (1, 1), (0, 0)]);
        let stale = refs(&[(1, 0), (0, 0), (0, 1), (1, 1)]);
        for (id, allows) in [
            (ModelId::Tso, false),
            (ModelId::Pso, true),
            (ModelId::Ra, false),
            (ModelId::ArmDob, true),
        ] {
            let spec = spec(id);
            let certify = |order: &[OpRef]| match lowering(spec) {
                Lowering::Graph => certify_order_witness(spec, &ev, order),
                _ => certify_schedule(&mp, spec, order.to_vec()),
            };
            assert_eq!(certify(&passed).is_some(), allows, "{}", spec.name);
            assert!(certify(&stale).is_none(), "{}", spec.name);
        }
    }

    /// The witness of a serialization reads from the latest earlier write
    /// of each slot, and orders each slot's writes as the serialization
    /// does.
    #[test]
    fn order_witness_reads_the_latest_write() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(0u32, 1u64)])
            .proc([Op::read(0u32, 1u64), Op::rmw(0u32, 1u64, 2u64)])
            .build();
        let ev = Events::new(&t, &AddrIndex::build(&t));
        // W1(e0) R(e2) W1(e1) RMW(e3).
        let order = [(0, 0), (1, 0), (0, 1), (1, 1)].map(|(p, i)| OpRef::new(p, i));
        let w = Witness::of_order(&ev, &order);
        use crate::axiom::RfCand;
        assert_eq!(
            w.rf,
            [None, None, Some(RfCand::From(0)), Some(RfCand::From(1))]
        );
        assert_eq!(w.mo, [vec![0, 1, 3]]);
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
        let mut sys = CompiledMachine::new(trace, &AddrIndex::build(trace), kind);
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
