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
//!   [`Engine::Compiled`]) lowers a spec to a
//!   [`vermem_coherence::TransitionSystem`] running on the existing
//!   memo/budget/cancellation/observability kernel. Specs whose axioms
//!   form a *single serialization order* (SC, TSO, PSO, coherence-only)
//!   lower to store-buffer machines over the shared `MachineBase`; all
//!   other specs (Release–Acquire, ARM-dob) lower to a witness-search
//!   machine that decides `rf` and `mo` event by event;
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

pub use sat::{encode_spec, solve_spec_sat, SpecEncoding};
pub use witness::{check_witness, RfCand, Witness};

use crate::models::MemoryModel;
use crate::verdict::ConsistencyVerdict;
use vermem_coherence::closure::Tier;
use vermem_coherence::{KernelConfig, SearchStats, TierConfig};
use vermem_trace::Trace;
use vermem_util::pool::CancelToken;

/// The declared models, a strict superset of the serialization-based
/// [`MemoryModel`] vocabulary.
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

    /// The serialization-based [`MemoryModel`] this id corresponds to, if
    /// any (RA and ARM-dob are not single-serialization models).
    pub fn base_model(self) -> Option<MemoryModel> {
        match self {
            ModelId::Sc => Some(MemoryModel::Sc),
            ModelId::Tso => Some(MemoryModel::Tso),
            ModelId::Pso => Some(MemoryModel::Pso),
            ModelId::CoherenceOnly => Some(MemoryModel::CoherenceOnly),
            ModelId::Ra | ModelId::ArmDob => None,
        }
    }
}

impl From<MemoryModel> for ModelId {
    fn from(m: MemoryModel) -> ModelId {
        match m {
            MemoryModel::Sc => ModelId::Sc,
            MemoryModel::Tso => ModelId::Tso,
            MemoryModel::Pso => ModelId::Pso,
            MemoryModel::CoherenceOnly => ModelId::CoherenceOnly,
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
    /// `[earlier class][later class]` with classes read = 0, write = 1,
    /// RMW = 2. Same-address pairs are always preserved (coherence).
    /// Only consulted by [`Rel::Ppo`].
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
    /// Tier pipeline: with `frontline` on (the default), models with a
    /// polynomial fast tier (RA) try it before the exact search.
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
    /// [`Tier::Frontline`] when a polynomial engine (the per-address
    /// precheck or the RA fast tier) decided; [`Tier::Exact`] otherwise.
    pub tier: Tier,
}

/// Verify `trace` under declared model `id`.
pub fn verify_axiom(trace: &Trace, id: ModelId, cfg: &AxiomConfig) -> AxiomReport {
    verify_axiom_with(trace, id, cfg, None)
}

/// [`verify_axiom`] with cooperative cancellation of the exact search.
pub fn verify_axiom_with(
    trace: &Trace,
    id: ModelId,
    cfg: &AxiomConfig,
    cancel: Option<&CancelToken>,
) -> AxiomReport {
    let spec = spec(id);
    match cfg.engine {
        Engine::Sat => AxiomReport {
            verdict: sat::solve_spec_sat(trace, spec),
            stats: SearchStats::default(),
            tier: Tier::Exact,
        },
        Engine::Compiled => {
            // Polynomial per-address precheck: sound for every spec,
            // because every spec carries a per-location coherence axiom.
            if let Some(v) = crate::vsc::precheck_sc(trace) {
                return AxiomReport {
                    verdict: ConsistencyVerdict::Violating(v),
                    stats: SearchStats::default(),
                    tier: Tier::Frontline,
                };
            }
            if id == ModelId::Ra && cfg.tier.frontline {
                if let ra_fast::FastOutcome::Decided(verdict) = ra_fast::try_decide(trace) {
                    return AxiomReport {
                        verdict,
                        stats: SearchStats::default(),
                        tier: Tier::Frontline,
                    };
                }
            }
            let (verdict, stats) = operational::solve_compiled(trace, spec, &cfg.kernel, cancel);
            AxiomReport {
                verdict,
                stats,
                tier: Tier::Exact,
            }
        }
    }
}

/// Compiled-engine entry point used by the thin per-model wrappers
/// ([`crate::solve_sc_backtracking_with_stats`] and friends): no
/// frontline, stats always from the exact search.
pub(crate) fn solve_compiled_with_stats(
    trace: &Trace,
    id: ModelId,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (ConsistencyVerdict, SearchStats) {
    if let Some(v) = crate::vsc::precheck_sc(trace) {
        return (ConsistencyVerdict::Violating(v), SearchStats::default());
    }
    operational::solve_compiled(trace, spec(id), cfg, cancel)
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
    fn base_model_round_trips() {
        for m in MemoryModel::ALL {
            assert_eq!(ModelId::from(m).base_model(), Some(m));
        }
    }
}
