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
//!   table is one a store-buffer shape implements ([`ppo_cross`]) run the
//!   dense serialization machine of `vermem-coherence`
//!   ([`CompiledMachine`], the machine the exact VMC search runs at one
//!   address) over every entry of the index: no buffer (SC: every issue
//!   takes effect atomically), one FIFO per process (TSO), or one FIFO per
//!   process×address (PSO). The machine's search, its supply refutation
//!   and its state keys are documented with it; this crate keeps only the
//!   spec side — which table each shape implements, the SC stage and the
//!   certificates. Verdicts, state sets and [`SearchStats`] are pinned by
//!   the golden file of `tests/axiom_differential.rs`.
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
//! witness for RA/ARM-dob ([`certify_order_witness`]). An SC order's
//! witness has an acyclic `po ∪ rf ∪ mo ∪ fr` (the order extends it), so
//! the evaluator accepts it with its one linear sort, without evaluating
//! any axiom on its own. Anything else — a
//! refutation, a spent stage budget, a rejected order — falls through to
//! the model's own machine ([`solve_buffer`], [`solve_graph`]) with the
//! budget left, and the report sums both searches' stats.
//!
//! The serialization equivalence justifying the buffer lowering — a
//! single `ppo`-extending order with reads-see-latest exists iff some
//! witness satisfies `acyclic(ppo ∪ rf ∪ mo ∪ fr)` plus atomicity and
//! finals — is spelled out in DESIGN.md §4g.

use super::graph::GraphMachine;
use super::witness::{check_witness_ev, spec_serializes, witness_schedule, Events, Witness};
use super::{AxiomReport, ModelSpec};
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use vermem_coherence::kernel::{run_search, KernelConfig, KernelOutcome};
use vermem_coherence::machine::{BufferKind, CompiledMachine};
use vermem_coherence::{SearchConfig, SearchStats, Tier, Verdict, VmcVerifier};
use vermem_trace::{check_serialization, AddrIndex, OpRef, Schedule, Trace};
use vermem_util::obs;

/// The cross-address enforcement table the machine of shape `kind`
/// implements, in [`ModelSpec::ppo_cross`]'s layout. Written here, beside
/// the lowering, rather than read from a declared spec: a spec lowers to
/// the machine only if its table is exactly this one, so a changed
/// declaration changes the compiled verdicts instead of being ignored.
fn ppo_cross(kind: BufferKind) -> [[bool; 3]; 3] {
    // A buffered store can be passed by later loads (TSO) and by later
    // stores to other addresses (PSO); RMWs drain the buffer.
    let store = match kind {
        BufferKind::Atomic => [true; 3],
        BufferKind::ProcFifo => [false, true, true],
        BufferKind::SlotFifo => [false, false, true],
    };
    [[true; 3], store, [true; 3]]
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
/// machine implements ([`ppo_cross`]).
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
    match kinds.into_iter().find(|&k| ppo_cross(k) == spec.ppo_cross) {
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
    let mut sys = CompiledMachine::new(idx.iter(), BufferKind::Atomic);
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
/// schedule checker accepts it under the model's table, on the layout
/// `idx` of `trace` the check already built.
pub(crate) fn certify_schedule(
    trace: &Trace,
    idx: &AddrIndex,
    spec: &ModelSpec,
    commits: Vec<OpRef>,
) -> Option<Schedule> {
    let schedule = Schedule::from_refs(commits);
    check_serialization(trace, idx, &spec.ppo_cross, &schedule)
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
    let mut sys = CompiledMachine::new(idx.iter(), kind);
    let (outcome, stats) = run_search(&mut sys, cfg, None);
    let verdict = match outcome {
        // Certificate: a commit order the model's schedule checker
        // rejects is never reported as consistent.
        KernelOutcome::Accepted(commits) => {
            certify_schedule(trace, idx, spec, commits).map(ConsistencyVerdict::Consistent)
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
    // Certificate, as for the buffer machines.
    let verdict = match certify_schedule(trace, idx, spec, order) {
        Some(schedule) => ConsistencyVerdict::Consistent(schedule),
        None => ConsistencyVerdict::Unknown { stats },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::{spec, ModelId};
    use vermem_trace::gen::{gen_sc_trace, GenConfig};
    use vermem_trace::{Op, TraceBuilder};

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
                _ => certify_schedule(&mp, &idx, spec, order.to_vec()),
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
}
