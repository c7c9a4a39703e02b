//! Memory models as *data*: declarative [`ModelSpec`]s compiled to the
//! exact-search kernel and to SAT.
//!
//! The paper's §6 lifts VMC hardness to a whole family of consistency
//! models, and Chini & Saivasan's framework observation (PAPERS.md) is
//! that the per-model checkers are instances of **one** parameterized
//! algorithm over per-model axioms. This module takes that seriously as an
//! architecture: a memory model is a [`ModelSpec`] — a program-order
//! enforcement table plus a list of [`Axiom`]s over the generated
//! relations `po`, `rf`, `mo`, `fr` (and their derived/external variants)
//! — and two compilers turn the same spec into executable deciders:
//!
//! * the **operational compiler** ([`mod@self`] via [`verify_axiom`] with
//!   [`Engine::Compiled`]) lowers a spec to a decider on the coherence
//!   crate's memo/budget/observability kernel. Specs whose axioms form a
//!   *single serialization order* and whose enforcement table preserves
//!   no cross-address pair (coherence-only) are VMC at each address
//!   (the paper's §3 definition) and run the VMC dispatcher
//!   ([`vermem_coherence::VmcVerifier::verify_ops`]) address by address;
//!   those whose table is SC's, TSO's or PSO's lower to one store-buffer
//!   machine in the matching buffer shape; the other specs
//!   (Release–Acquire, ARM-dob) lower to a witness-search machine that
//!   decides `rf` and `mo` event by event. Every model weaker than SC but
//!   the coherence-only one runs the SC machine first and keeps a found
//!   order only through its own certificate;
//! * the **SAT compiler** ([`solve_spec_sat`]) lowers the same spec to a
//!   CNF over read-selector, coherence-order and closure variables, so
//!   every declared model gets an independent differential oracle for
//!   free.
//!
//! For Release–Acquire, [`ra_fast`] adds the Chakraborty-et-al-style
//! polynomial fast tier: when every read has a unique writer candidate the
//! forced coherence edges can be saturated to a fixpoint in polynomial
//! time, and a validated witness (or a forced contradiction) decides the
//! trace without touching the exponential tier. It plugs into the same
//! [`TierConfig`] escalation machinery as the per-address closure
//! frontline.
//!
//! ## Axiom semantics
//!
//! Relations are generated over the trace's events (one event per
//! operation; an RMW is a single event with both a read and a write
//! role). A *witness* fixes `rf` (each read's writer, or the initial
//! value) and `mo` (a total coherence order per address); `fr` is derived
//! as `rf⁻¹ ; mo` (reads-from-initial precede every write). A trace is
//! consistent under a spec iff some witness satisfies every axiom *and*
//! the trace's final-value constraints (`mo`-last write per address).

mod graph;
mod operational;
pub mod ra_fast;
mod sat;
mod witness;

pub use witness::{check_witness, RfCand, Witness};

use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use operational::Lowering;
use vermem_coherence::closure::Tier;
use vermem_coherence::machine::BufferKind;
use vermem_coherence::{KernelConfig, SearchStats, TierConfig};
use vermem_trace::{check_serialization, AddrIndex, Schedule, ScheduleError, Trace};
use witness::Events;

/// The declared models: the crate's one model vocabulary. Each id names a
/// [`ModelSpec`] in the registry ([`spec`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelId {
    /// Sequential consistency (VSC, Definition 6.1).
    Sc,
    /// Total Store Order: the store→load program-order edge relaxed.
    Tso,
    /// Partial Store Order: store→load and store→store relaxed.
    Pso,
    /// Coherence only: no cross-address ordering at all (VMC per address).
    CoherenceOnly,
    /// Release–Acquire: causal ordering via `hb = (po ∪ rf)⁺`, with
    /// per-location coherence. Admits a polynomial fast tier.
    Ra,
    /// An ARM-like model ordered by dependency-ordered-before edges plus
    /// *external* coherence (SNIPPETS.md §3's `dob ∪ rfe ∪ moe ∪ fre`).
    ArmDob,
}

impl ModelId {
    /// Every declared model, in presentation order.
    pub const ALL: [ModelId; 6] = [
        ModelId::Sc,
        ModelId::Tso,
        ModelId::Pso,
        ModelId::CoherenceOnly,
        ModelId::Ra,
        ModelId::ArmDob,
    ];

    /// The single-serialization models (the paper's §6.2 family), strongest
    /// first: a trace is consistent iff one total order extends the spec's
    /// preserved program order with every read seeing the latest write.
    /// RA and ARM-dob are not serialization models.
    pub const SERIALIZING: [ModelId; 4] = [
        ModelId::Sc,
        ModelId::Tso,
        ModelId::Pso,
        ModelId::CoherenceOnly,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Sc => "SC",
            ModelId::Tso => "TSO",
            ModelId::Pso => "PSO",
            ModelId::CoherenceOnly => "Coherence",
            ModelId::Ra => "RA",
            ModelId::ArmDob => "ARM-dob",
        }
    }

    /// Parse the CLI spelling (`--model`).
    pub fn parse(s: &str) -> Option<ModelId> {
        match s {
            "sc" => Some(ModelId::Sc),
            "tso" => Some(ModelId::Tso),
            "pso" => Some(ModelId::Pso),
            "coherence" => Some(ModelId::CoherenceOnly),
            "ra" => Some(ModelId::Ra),
            "arm-dob" => Some(ModelId::ArmDob),
            _ => None,
        }
    }
}

/// A relation generator: one of the named relations an [`Axiom`] may
/// mention. Which pairs each generator produces is fixed by the trace,
/// the witness, and (for [`Rel::Ppo`]) the spec's enforcement table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    /// Program order: all same-process pairs.
    Po,
    /// Program order restricted to same-address pairs.
    PoLoc,
    /// *Preserved* program order: same-address pairs always, cross-address
    /// pairs per the spec's [`ModelSpec::ppo_cross`] table.
    Ppo,
    /// Dependency-ordered-before (derived): program-order pairs whose
    /// source is read-capable (a read orders everything after it), plus
    /// same-address pairs.
    Dob,
    /// Reads-from: chosen writer → read. Reads-from-initial generates no
    /// edge.
    Rf,
    /// External (cross-process) reads-from.
    Rfe,
    /// Coherence order: total per-address write order from the witness.
    Mo,
    /// External (cross-process) coherence order.
    Moe,
    /// From-reads (derived): read → every write `mo`-after its writer
    /// (after *all* writes for reads-from-initial).
    Fr,
    /// External (cross-process) from-reads.
    Fre,
}

/// What an [`Axiom`] demands of its relations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxiomKind {
    /// The union of the listed relations must be acyclic.
    Acyclic(&'static [Rel]),
    /// `head ; closure⁺` must be irreflexive: no edge of any `head`
    /// relation may close a cycle through the transitive closure of the
    /// `closure` union.
    IrreflexiveSeq {
        /// Single-step relations composed in front of the closure.
        head: &'static [Rel],
        /// Relations whose union is transitively closed.
        closure: &'static [Rel],
    },
}

/// One named well-formedness requirement of a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Axiom {
    /// Diagnostic name (`single-order`, `causality`, ...).
    pub name: &'static str,
    /// The requirement itself.
    pub kind: AxiomKind,
}

/// A memory model as data: an enforcement table for [`Rel::Ppo`] plus the
/// axioms every witness must satisfy. Compiled — never interpreted ad hoc
/// — by the operational and SAT compilers.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// Which model this spec declares.
    pub id: ModelId,
    /// Display name (mirrors [`ModelId::name`]).
    pub name: &'static str,
    /// Cross-address program-order enforcement, indexed by
    /// `[earlier class][later class]` ([`vermem_trace::Op::class`]).
    /// Same-address pairs are always preserved (coherence). Consulted by
    /// [`Rel::Ppo`] and by the schedule checker
    /// ([`vermem_trace::check_serialization`]).
    pub ppo_cross: [[bool; 3]; 3],
    /// The axioms. Every spec must include a per-location coherence axiom
    /// (an [`AxiomKind::Acyclic`] over `rf`, `mo`, `fr` and a
    /// program-order restriction covering same-address pairs) — the
    /// compilers discharge their shared obligations (the per-address
    /// precheck, the SAT compiler's program-ordered `mo` constants)
    /// against it.
    pub axioms: &'static [Axiom],
}

/// RMW atomicity, shared by every spec: no write may intervene between an
/// RMW's writer and the RMW in coherence order (`fr ; mo⁺` irreflexive).
pub(crate) const ATOMICITY: Axiom = Axiom {
    name: "rmw-atomicity",
    kind: AxiomKind::IrreflexiveSeq {
        head: &[Rel::Fr],
        closure: &[Rel::Mo],
    },
};

/// The single-serialization axiom: `ppo ∪ rf ∪ mo ∪ fr` acyclic. By the
/// serialization equivalence (DESIGN.md §4g) this holds iff the trace has
/// one total order extending `ppo` in which every read sees the latest
/// write — the classic executable definition of the SC/TSO/PSO family.
const SINGLE_ORDER: Axiom = Axiom {
    name: "single-order",
    kind: AxiomKind::Acyclic(&[Rel::Ppo, Rel::Rf, Rel::Mo, Rel::Fr]),
};

/// Per-location sequential consistency: `po|loc ∪ rf ∪ mo ∪ fr` acyclic.
const SC_PER_LOCATION: Axiom = Axiom {
    name: "sc-per-location",
    kind: AxiomKind::Acyclic(&[Rel::PoLoc, Rel::Rf, Rel::Mo, Rel::Fr]),
};

/// RA causality: `hb = (po ∪ rf)⁺` is a partial order.
const CAUSALITY: Axiom = Axiom {
    name: "causality",
    kind: AxiomKind::Acyclic(&[Rel::Po, Rel::Rf]),
};

/// RA write coherence: neither `mo` nor `fr` may contradict happens-before
/// (`(mo ∪ fr) ; hb` irreflexive). Together with [`CAUSALITY`] this is the
/// RC11 coherence axiom `irreflexive(hb ; eco?)` restricted to the
/// release–acquire fragment.
const COHERENCE_HB: Axiom = Axiom {
    name: "write-coherence-hb",
    kind: AxiomKind::IrreflexiveSeq {
        head: &[Rel::Mo, Rel::Fr],
        closure: &[Rel::Po, Rel::Rf],
    },
};

/// ARM-style external coherence: `dob ∪ rfe ∪ moe ∪ fre` acyclic —
/// ordering is only demanded of dependency-ordered and *externally*
/// observed communication (SNIPPETS.md §3).
const EXTERNAL_COHERENCE: Axiom = Axiom {
    name: "external-coherence",
    kind: AxiomKind::Acyclic(&[Rel::Dob, Rel::Rfe, Rel::Moe, Rel::Fre]),
};

const ENFORCE_ALL: [[bool; 3]; 3] = [[true; 3]; 3];
const ENFORCE_NONE: [[bool; 3]; 3] = [[false; 3]; 3];

/// SC: every program-order edge preserved in the single order.
pub static SC_SPEC: ModelSpec = ModelSpec {
    id: ModelId::Sc,
    name: "SC",
    ppo_cross: ENFORCE_ALL,
    axioms: &[SINGLE_ORDER, ATOMICITY],
};

/// TSO: the store→load edge relaxed (RMWs order like fences).
pub static TSO_SPEC: ModelSpec = ModelSpec {
    id: ModelId::Tso,
    name: "TSO",
    ppo_cross: [
        [true, true, true],  // read → *
        [false, true, true], // write → read relaxed
        [true, true, true],  // rmw → *
    ],
    axioms: &[SINGLE_ORDER, ATOMICITY],
};

/// PSO: store→load and store→store relaxed; stores still order before
/// RMWs (which drain the buffer).
pub static PSO_SPEC: ModelSpec = ModelSpec {
    id: ModelId::Pso,
    name: "PSO",
    ppo_cross: [
        [true, true, true],   // read → *
        [false, false, true], // write → read and write → write relaxed
        [true, true, true],   // rmw → *
    ],
    axioms: &[SINGLE_ORDER, ATOMICITY],
};

/// Coherence only: with no cross-address edges, `SINGLE_ORDER` degrades
/// to per-location coherence — exactly VMC address by address.
pub static COHERENCE_SPEC: ModelSpec = ModelSpec {
    id: ModelId::CoherenceOnly,
    name: "Coherence",
    ppo_cross: ENFORCE_NONE,
    axioms: &[SINGLE_ORDER, ATOMICITY],
};

/// Release–Acquire: per-location coherence plus causal ordering. The
/// explicit `SC_PER_LOCATION` axiom is implied by the other two but
/// spelled out because the compilers discharge their per-location
/// obligations against it.
pub static RA_SPEC: ModelSpec = ModelSpec {
    id: ModelId::Ra,
    name: "RA",
    ppo_cross: ENFORCE_NONE,
    axioms: &[SC_PER_LOCATION, CAUSALITY, COHERENCE_HB, ATOMICITY],
};

/// ARM-dob: per-location coherence plus external coherence over the
/// derived `dob` edges.
pub static ARM_DOB_SPEC: ModelSpec = ModelSpec {
    id: ModelId::ArmDob,
    name: "ARM-dob",
    ppo_cross: ENFORCE_NONE,
    axioms: &[SC_PER_LOCATION, EXTERNAL_COHERENCE, ATOMICITY],
};

/// The spec registry: every declared model.
pub fn spec(id: ModelId) -> &'static ModelSpec {
    match id {
        ModelId::Sc => &SC_SPEC,
        ModelId::Tso => &TSO_SPEC,
        ModelId::Pso => &PSO_SPEC,
        ModelId::CoherenceOnly => &COHERENCE_SPEC,
        ModelId::Ra => &RA_SPEC,
        ModelId::ArmDob => &ARM_DOB_SPEC,
    }
}

/// Which decider runs a model (`--engine` on the CLI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The operational compiler on the exact-search kernel (default).
    Compiled,
    /// The SAT compiler.
    Sat,
}

impl Engine {
    /// Parse the CLI spelling (`--engine`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "compiled" => Some(Engine::Compiled),
            "sat" => Some(Engine::Sat),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Compiled => "compiled",
            Engine::Sat => "sat",
        }
    }
}

/// How to verify a model: which engine, the kernel knobs for the exact
/// search, and whether polynomial frontlines may pre-empt it.
#[derive(Clone, Copy, Debug)]
pub struct AxiomConfig {
    /// Which decider to run.
    pub engine: Engine,
    /// Budget/ablation knobs for the compiled exact search.
    pub kernel: KernelConfig,
    /// Tier pipeline: with `frontline` on (the default), RA tries its
    /// polynomial fast tier before the exact search. No other model reads
    /// it; coherence-only always runs the VMC dispatcher's tiers.
    pub tier: TierConfig,
}

impl Default for AxiomConfig {
    fn default() -> Self {
        AxiomConfig {
            engine: Engine::Compiled,
            kernel: KernelConfig::default(),
            tier: TierConfig::default(),
        }
    }
}

/// A verdict plus how it was reached: kernel statistics (zero for SAT and
/// frontline decisions) and which tier decided.
#[derive(Clone, Debug)]
pub struct AxiomReport {
    /// The verdict.
    pub verdict: ConsistencyVerdict,
    /// Exact-search statistics ([`SearchStats::default`] when the exact
    /// tier never ran).
    pub stats: SearchStats,
    /// [`Tier::Frontline`] when a polynomial engine decided: the
    /// per-address precheck, the RA fast tier, or, for a model decided
    /// address by address (coherence-only), the VMC fast paths and
    /// closure at every address. [`Tier::Exact`] otherwise.
    pub tier: Tier,
}

/// Static prechecks: per-address unreadable values / unproducible finals.
/// Sound for every declared model, because every spec carries a
/// per-location coherence axiom; every engine runs it first. One pass over
/// the trace: the index is sorted by address, so the first violation is
/// the lowest address's.
pub fn precheck_sc(trace: &Trace) -> Option<ConsistencyViolation> {
    precheck(&AddrIndex::build(trace))
}

fn precheck(idx: &AddrIndex) -> Option<ConsistencyViolation> {
    idx.iter()
        .find_map(vermem_coherence::backtrack::precheck_ops)
        .map(|v| ConsistencyViolation {
            class: ViolationClass::PerAddressCoherence(v),
        })
}

/// Check that `schedule` witnesses adherence of `trace` to the
/// serialization model `id`: [`vermem_trace::check_serialization`] with
/// the spec's [`ModelSpec::ppo_cross`] table, so a permutation of all
/// operations, coherent at every address and honouring every
/// cross-address program-order pair the spec preserves. For
/// [`ModelId::Sc`] this is [`vermem_trace::check_sc_schedule`].
///
/// # Panics
///
/// If `id` is not in [`ModelId::SERIALIZING`]: RA and ARM-dob have no
/// single-serialization witness (check theirs with [`check_witness`]).
pub fn check_model_schedule(
    trace: &Trace,
    id: ModelId,
    schedule: &Schedule,
) -> Result<(), ScheduleError> {
    let spec = spec(id);
    assert!(
        witness::spec_serializes(spec),
        "{} is not a single-serialization model",
        spec.name
    );
    check_serialization(trace, &AddrIndex::build(trace), &spec.ppo_cross, schedule)
}

/// The event universe of `trace` on its own, for the entry points that
/// take a bare trace ([`ra_fast::try_decide`], [`check_witness`]).
pub(crate) fn events(trace: &Trace) -> Events {
    Events::new(trace, &AddrIndex::build(trace))
}

/// Decide adherence of `trace` to `spec` via the SAT compiler, after the
/// per-address precheck: [`verify_axiom`]'s [`Engine::Sat`] on a spec
/// outside the registry too. Decoded witnesses are validated by the
/// reference evaluator before a `Consistent` verdict is issued, and
/// refutations by the RUP proof checker before a violation is.
///
/// # Panics
///
/// If the decoded witness fails the evaluator (an encoding bug) or the
/// refutation proof fails the checker (a solver bug).
pub fn solve_spec_sat(trace: &Trace, spec: &ModelSpec) -> ConsistencyVerdict {
    sat_verdict(trace, &AddrIndex::build(trace), spec)
}

fn sat_verdict(trace: &Trace, idx: &AddrIndex, spec: &ModelSpec) -> ConsistencyVerdict {
    match precheck(idx) {
        Some(v) => ConsistencyVerdict::Violating(v),
        None => sat::solve(Events::new(trace, idx), spec),
    }
}

/// Verify `trace` under declared model `id`: the crate's one deciding
/// entry point.
///
/// One check lays the trace out once: it builds the trace's
/// [`AddrIndex`], and the precheck, every compiled lowering, the RA fast
/// tier and the SAT compiler read that index (the graph lowering takes
/// over the RA fast tier's event universe when that tier escalates).
///
/// The exact tier of TSO, PSO, RA and ARM-dob starts with an SC stage:
/// the SC machine, on a budget of a fixed number of states per operation
/// taken from `cfg.kernel`'s, whose order is accepted only through the
/// model's own certificate. Otherwise the model's own machine decides
/// with the budget left, and the report's stats sum both searches. The
/// stage runs after the RA fast tier and whatever `cfg.tier` says.
///
/// ```
/// use vermem_consistency::{verify_axiom, AxiomConfig, ModelId};
/// use vermem_trace::{Op, TraceBuilder};
/// // Store buffering: each CPU misses the other's store.
/// let sb = TraceBuilder::new()
///     .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
///     .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
///     .build();
/// let cfg = AxiomConfig::default();
/// assert!(verify_axiom(&sb, ModelId::Sc, &cfg).verdict.is_violating());
/// // TSO's per-process FIFO store buffer explains it.
/// let tso = verify_axiom(&sb, ModelId::Tso, &cfg);
/// assert!(tso.verdict.is_consistent());
/// // SC refuted SB first: the stats sum both searches.
/// assert!(tso.stats.states > verify_axiom(&sb, ModelId::Sc, &cfg).stats.states);
///
/// // A budget of one state is exhausted immediately: explicit Unknown,
/// // never a silent give-up.
/// let tight = AxiomConfig {
///     kernel: vermem_consistency::KernelConfig::with_budget(1),
///     ..AxiomConfig::default()
/// };
/// let report = verify_axiom(&sb, ModelId::Tso, &tight);
/// assert!(report.verdict.unknown_stats().is_some());
/// ```
pub fn verify_axiom(trace: &Trace, id: ModelId, cfg: &AxiomConfig) -> AxiomReport {
    let spec = spec(id);
    let idx = AddrIndex::build(trace);
    if cfg.engine == Engine::Sat {
        return AxiomReport {
            verdict: sat_verdict(trace, &idx, spec),
            stats: SearchStats::default(),
            tier: Tier::Exact,
        };
    }
    let frontline = |verdict| AxiomReport {
        verdict,
        stats: SearchStats::default(),
        tier: Tier::Frontline,
    };
    if let Some(v) = precheck(&idx) {
        return frontline(ConsistencyVerdict::Violating(v));
    }
    let kernel = &cfg.kernel;
    match operational::lowering(spec) {
        Lowering::PerAddress => operational::solve_per_address(trace, &idx, spec, kernel),
        Lowering::Buffer(BufferKind::Atomic) => {
            operational::solve_buffer(trace, &idx, spec, BufferKind::Atomic, kernel)
        }
        // A weaker model searches the SC sub-space first (the SC stage,
        // part of the exact tier), then runs its own machine.
        Lowering::Buffer(kind) => operational::sc_stage(trace, &idx, kernel, |order| {
            operational::certify_schedule(trace, &idx, spec, order)
        })
        .or_else(|rest| operational::solve_buffer(trace, &idx, spec, kind, rest)),
        Lowering::Graph => {
            let ev = Events::new(trace, &idx);
            if id == ModelId::Ra && cfg.tier.frontline {
                if let ra_fast::FastOutcome::Decided(verdict) = ra_fast::decide(&ev) {
                    return frontline(verdict);
                }
            }
            operational::sc_stage(trace, &idx, kernel, |order| {
                operational::certify_order_witness(spec, &ev, &order)
            })
            .or_else(|rest| operational::solve_graph(spec, ev, rest))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_total_and_named_consistently() {
        for id in ModelId::ALL {
            let s = spec(id);
            assert_eq!(s.id, id);
            assert_eq!(s.name, id.name());
            assert!(
                s.axioms.contains(&ATOMICITY),
                "{}: every spec carries RMW atomicity",
                s.name
            );
            // The per-location obligation the compilers rely on: some
            // acyclicity axiom over rf/mo/fr whose program-order component
            // covers same-address pairs.
            let per_loc = s.axioms.iter().any(|a| match a.kind {
                AxiomKind::Acyclic(rels) => {
                    rels.contains(&Rel::Rf)
                        && rels.contains(&Rel::Mo)
                        && rels.contains(&Rel::Fr)
                        && (rels.contains(&Rel::PoLoc)
                            || rels.contains(&Rel::Po)
                            || rels.contains(&Rel::Ppo))
                }
                AxiomKind::IrreflexiveSeq { .. } => false,
            });
            assert!(per_loc, "{}: missing per-location coherence", s.name);
        }
    }

    #[test]
    fn model_id_round_trips_through_cli_spelling() {
        for id in ModelId::ALL {
            let spelled = match id {
                ModelId::Sc => "sc",
                ModelId::Tso => "tso",
                ModelId::Pso => "pso",
                ModelId::CoherenceOnly => "coherence",
                ModelId::Ra => "ra",
                ModelId::ArmDob => "arm-dob",
            };
            assert_eq!(ModelId::parse(spelled), Some(id));
        }
        assert_eq!(ModelId::parse("sc/tso"), None);
    }

    #[test]
    fn engine_spellings_round_trip() {
        for engine in [Engine::Compiled, Engine::Sat] {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("legacy"), None);
        assert_eq!(Engine::parse("brute"), None);
    }

    #[test]
    fn serializing_ids_are_the_specs_that_serialize() {
        for id in ModelId::ALL {
            assert_eq!(
                ModelId::SERIALIZING.contains(&id),
                witness::spec_serializes(spec(id)),
                "{}",
                id.name()
            );
        }
    }

    fn decide(t: &Trace, id: ModelId) -> ConsistencyVerdict {
        verify_axiom(t, id, &AxiomConfig::default()).verdict
    }

    #[test]
    fn empty_trace_is_consistent_under_every_model() {
        for id in ModelId::ALL {
            assert!(decide(&Trace::new(), id).is_consistent(), "{}", id.name());
        }
    }

    #[test]
    fn message_passing_pass_outcome_serializes_everywhere() {
        use vermem_trace::{Op, TraceBuilder};
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 1u64)])
            .build();
        for id in ModelId::SERIALIZING {
            let v = decide(&t, id);
            let s = v.schedule().expect("allowed");
            check_model_schedule(&t, id, s).unwrap();
        }
        assert!(
            vermem_trace::check_sc_schedule(&t, decide(&t, ModelId::Sc).schedule().unwrap())
                .is_ok()
        );
    }

    #[test]
    fn final_values_respected() {
        use vermem_trace::{Op, TraceBuilder, Value};
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        let unreachable = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .final_value(0u32, 9u64)
            .build();
        for id in ModelId::SERIALIZING {
            let v = decide(&t, id);
            let s = v.schedule().expect("orderable");
            assert_eq!(
                t.op(*s.refs().last().unwrap()).unwrap().written_value(),
                Some(Value(1)),
                "{}",
                id.name()
            );
            assert!(decide(&unreachable, id).is_violating(), "{}", id.name());
        }
    }

    #[test]
    fn per_address_precheck_fires() {
        use vermem_trace::{Op, TraceBuilder};
        let t = TraceBuilder::new().proc([Op::read(3u32, 7u64)]).build();
        for id in ModelId::ALL {
            let report = verify_axiom(&t, id, &AxiomConfig::default());
            assert_eq!(report.tier, Tier::Frontline, "{}", id.name());
            match report.verdict {
                ConsistencyVerdict::Violating(v) => {
                    assert!(matches!(v.class, ViolationClass::PerAddressCoherence(_)))
                }
                other => panic!("{}: expected violation, got {other:?}", id.name()),
            }
        }
    }

    #[test]
    fn tiny_budget_answers_unknown_with_stats() {
        use vermem_sat::random::{gen_forced_sat, RandomSatConfig};
        use vermem_trace::{Op, TraceBuilder};
        let tight = AxiomConfig {
            kernel: KernelConfig::with_budget(1),
            ..AxiomConfig::default()
        };
        let unknown = |t: &Trace, id: ModelId| match verify_axiom(t, id, &tight) {
            AxiomReport {
                verdict: ConsistencyVerdict::Unknown { stats },
                tier: Tier::Exact,
                ..
            } => assert!(stats.states >= 1, "{}", id.name()),
            other => panic!("{}: expected an exact Unknown, got {other:?}", id.name()),
        };
        // A contended instance a one-state budget cannot settle under the
        // store-buffer models. Each of its addresses is easy VMC.
        let t = TraceBuilder::new()
            .proc([
                Op::write(0u32, 1u64),
                Op::write(1u32, 1u64),
                Op::read(2u32, 0u64),
            ])
            .proc([
                Op::write(1u32, 2u64),
                Op::write(2u32, 1u64),
                Op::read(0u32, 0u64),
            ])
            .proc([
                Op::write(2u32, 2u64),
                Op::write(0u32, 2u64),
                Op::read(1u32, 0u64),
            ])
            .build();
        for id in [ModelId::Sc, ModelId::Tso, ModelId::Pso] {
            unknown(&t, id);
        }
        // Coherence decides address by address, so it needs one address
        // the closure frontline escalates: the Figure 4.1 reduction of a
        // 3-variable formula. The budget applies to that address's exact
        // search, and its Unknown is never masked.
        let cnf = gen_forced_sat(&RandomSatConfig::three_sat(3, 3.0, 3));
        let fig41 = vermem_reductions::reduce_sat_to_vmc(&cnf).trace;
        unknown(&fig41, ModelId::CoherenceOnly);
        let free = verify_axiom(&fig41, ModelId::CoherenceOnly, &AxiomConfig::default());
        assert!(free.verdict.is_consistent());
        assert!(free.stats.states > 1, "{:?}", free.stats);
    }

    #[test]
    fn generated_sc_traces_verify() {
        for seed in 0..10 {
            let (t, _) = vermem_trace::gen::gen_sc_trace(&vermem_trace::gen::GenConfig {
                procs: 3,
                total_ops: 24,
                addrs: 3,
                seed,
                ..Default::default()
            });
            for id in ModelId::SERIALIZING {
                let v = decide(&t, id);
                let s = v
                    .schedule()
                    .unwrap_or_else(|| panic!("seed {seed} must be {}", id.name()));
                check_model_schedule(&t, id, s).unwrap();
            }
        }
    }
}
