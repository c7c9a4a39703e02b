//! # vermem-coherence
//!
//! The core of the `vermem` suite: deciding **Verifying Memory Coherence**
//! (VMC, Definition 4.1 of Cantin, Lipasti & Smith) — given the per-process
//! histories of an execution and an address, does a coherent schedule of
//! the operations at that address exist?
//!
//! VMC is NP-complete (Theorem 4.2), so this crate pairs exact solvers with
//! every polynomial special case from the paper's Figure 5.3:
//!
//! Every decider takes the VMC instance of Definition 4.1 as one
//! [`AddrOps`]: one address's per-process histories (with their original
//! [`vermem_trace::OpRef`]s) plus `d_I` and `d_F`, built for all addresses
//! in one pass by [`vermem_trace::AddrIndex`] or for one by
//! [`AddrOps::of`].
//!
//! | Figure 5.3 case | module | entry point |
//! |---|---|---|
//! | general (NP-complete) | [`backtrack`] | [`backtrack::solve_backtracking_ops_with_stats`] |
//! | general via SAT (certified) | [`sat_encode`] | [`sat_encode::solve_sat_ops`] |
//! | constant #processes, O(n^k) | [`backtrack`] (memoized) | [`backtrack::solve_backtracking_ops_with_stats`] |
//! | 1 write/value (read-map), O(n) | [`readmap`] | [`readmap::solve_readmap_ops`] |
//! | 1 op/process simple, O(n lg n) | [`one_op`] | [`one_op::solve_one_op_ops`] |
//! | 1 op/process RMW, O(n²)→O(n) | [`rmw`] | [`rmw::solve_rmw_one_op_ops`] |
//! | RMW read-map, O(n lg n)→O(n) | [`rmw`] | [`rmw::solve_rmw_readmap_ops`] |
//! | write order given, O(n²)/O(n) (§5.2) | [`write_order`] | [`solve_with_write_order`] |
//!
//! [`VmcVerifier::verify_ops`] tests the Figure 5.3 fast paths in turn
//! (each module's `applicable_ops` predicate on the instance) and
//! dispatches to the first that applies, else to the general case;
//! [`verify_execution`] applies it per address, which by the definition in
//! §3 decides coherence of the whole execution. [`verify`] is the one
//! `(trace, addr)` convenience: it indexes the address and dispatches the
//! same way.
//!
//! ## Tiered verification
//!
//! By default the general (NP-complete) case no longer goes straight to
//! the exact search: a polynomial constraint-**closure** frontline
//! ([`closure`], TSOtool-style per Roy et al.) runs first and decides most
//! real addresses outright, escalating only ambiguous residues to the
//! exact tier — with the already-computed constraint table, so nothing is
//! analyzed twice. [`TierConfig`] only labels the result (`closure,exact`,
//! the default, vs `exact`, which credits closure decisions to the exact
//! tier); verdicts and [`SearchStats`] are bit-identical either way
//! (soundness argument in DESIGN.md §4d), and
//! [`par::ExecutionReport::tiers`] reports how many addresses each tier
//! decided.
//!
//! ## Streaming verification (`vermem serve`)
//!
//! Batch verification assumes the whole trace is in hand. The [`stream`]
//! module drops that assumption: [`StreamVerifier`] ingests length-prefixed
//! v3 binary event chunks from N concurrent streams, shards work per
//! address, and holds memory **bounded** by `streams × window_slack`
//! retained windows regardless of stream length — closed windows are
//! verified through the same tiered pipeline and discarded. Detections
//! surface while the stream is still running (the p99 detection latency is
//! a first-class receipt), verdicts are bit-identical to a batch run over
//! the same events, and steady-state ingest allocates nothing (its tables
//! are Fx-hashed std maps and recycled vectors). Each address is
//! summarized by the same §5.2 placement monitor [`OnlineVerifier`] runs
//! ([`online`]). An optional flight recorder ([`RecorderConfig`]) keeps a
//! per-shard ring of recent windows and emits [`ForensicBundle`] JSONL on
//! each detection.
//!
//! ## The exact-search kernel and declared memory models
//!
//! The exponential tier is one reusable engine: [`kernel`] owns the memo
//! table, packed/interned keys, state budget and cancellation, and
//! searches anything implementing [`TransitionSystem`]. The main system
//! is the dense serialization machine of [`machine`]: the single-address
//! VMC solver in [`backtrack`] runs it at one address (VMC is VSC
//! restricted to one address), with its position windows and symmetry
//! breaking (one switch, [`SearchConfig::prune`]) as machine inputs. The
//! other client is
//! the `vermem-consistency` crate's *axiom framework* — memory models (SC, TSO,
//! PSO, RA, ARM-dob, coherence-only) are declared as `ModelSpec` **data** (relation
//! generators plus acyclicity/irreflexivity axioms) and lowered by an
//! operational compiler onto this kernel, or by a SAT compiler onto CNF as
//! a differential oracle. Coherence-only is VMC at every address, so its
//! compiled form is [`VmcVerifier::verify_ops`] run address by address:
//! `verify`, `serve`, VSCC and the model framework share one coherence
//! decider.
//!
//! ```
//! use vermem_consistency::{verify_axiom, AxiomConfig, Engine, ModelId};
//! use vermem_trace::{Op, TraceBuilder};
//!
//! // Dekker's store-buffering idiom: both processes buffer a flag write,
//! // then read the other flag as 0 — forbidden under SC, allowed by TSO.
//! let sb = TraceBuilder::new()
//!     .proc(vec![Op::write(0, 1), Op::read(1, 0)])
//!     .proc(vec![Op::write(1, 1), Op::read(0, 0)])
//!     .build();
//! let sc = verify_axiom(&sb, ModelId::Sc, &AxiomConfig::default());
//! let tso = verify_axiom(&sb, ModelId::Tso, &AxiomConfig::default());
//! assert!(!sc.verdict.is_consistent());
//! assert!(tso.verdict.is_consistent());
//!
//! // The SAT compiler lowers the *same* ModelSpec declaration to CNF.
//! let sat = AxiomConfig { engine: Engine::Sat, ..AxiomConfig::default() };
//! assert!(!verify_axiom(&sb, ModelId::Sc, &sat).verdict.is_consistent());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backtrack;
pub mod closure;
pub mod explain;
pub mod kernel;
pub mod machine;
pub mod one_op;
pub mod online;
pub mod open_problems;
pub mod par;
pub mod readmap;
pub mod rmw;
pub mod sat_encode;
pub mod stream;
mod verdict;
pub mod windows;
pub mod write_order;

pub use backtrack::{SearchConfig, SearchStats};
pub use closure::{ClosureOutcome, Tier, TierStats};
pub use explain::{minimize_incoherent_core, ExplainConfig, MinimalCore};
pub use kernel::{KernelConfig, KernelOutcome, TransitionSystem};
pub use online::{OnlineCause, OnlineVerifier, OnlineViolation};
pub use par::{verify_execution_par, ExecutionReport};
pub use sat_encode::{encode_vmc, solve_sat_certified, solve_sat_ops, VmcEncoding};
pub use stream::{
    verify_stream_bytes, CoreCertificate, ForensicBundle, HotPathConfig, RecorderConfig, RingEntry,
    StreamConfig, StreamMetrics, StreamReport, StreamVerdict, StreamVerifier, FORENSIC_SCHEMA,
};
pub use verdict::{Verdict, Violation, ViolationKind};
pub use write_order::solve_with_write_order;

use std::collections::BTreeMap;
use vermem_trace::{Addr, AddrOps, Schedule, Trace};

/// Which algorithm the dispatcher selected for an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Linear read-map algorithm (1 write/value, simple ops).
    ReadMap,
    /// Forced-chain algorithm (all RMW, 1 write/value).
    RmwReadMap,
    /// Grouped construction (1 simple op per process).
    OneOpPerProc,
    /// Eulerian path (1 RMW per process).
    RmwOneOp,
    /// Memoized exhaustive search (general case; polynomial for constant k).
    Backtracking,
    /// CNF encoding solved with the CDCL solver.
    SatEncoding,
}

/// Solver strategy for the general (NP-complete) case.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Use polynomial fast paths when applicable, backtracking otherwise.
    #[default]
    Auto,
    /// Always use the memoized backtracking solver.
    Backtracking,
    /// Always use the SAT encoding.
    Sat,
}

/// How the tier accounting labels general instances (`--tier` on the CLI).
///
/// The default pipeline is `closure,exact`: the polynomial constraint
/// closure ([`closure`]) fronts the exact search, which only sees
/// escalated residues. `exact` does **not** skip the closure: the closure
/// is the exact search's own precheck and window pre-pass, so it runs
/// either way (whenever `search.prune` is on) and `exact` only
/// reports every general instance as [`Tier::Exact`]. Equal wall clock
/// under the two settings therefore says nothing about the frontline's
/// overhead. The Figure 5.3 polynomial fast paths are part of the
/// dispatcher, not a tier, so they run (and count as frontline-decided)
/// under both configurations; verdicts and [`SearchStats`] are
/// bit-identical under both. (The consistency crate's axiom config reuses
/// this type, and there `exact` does skip the Release–Acquire fast tier.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierConfig {
    /// Credit closure-decided general instances to [`Tier::Frontline`].
    /// With `false` they are labelled [`Tier::Exact`]; the closure still
    /// runs. Only meaningful while `search.prune` is on: the frontline
    /// *is* the window-inference pass, so `--prune=none` skips it.
    pub frontline: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig::tiered()
    }
}

impl TierConfig {
    /// The default `closure,exact` pipeline.
    pub fn tiered() -> Self {
        TierConfig { frontline: true }
    }

    /// The `exact` labelling: every general instance is reported as
    /// decided by the exact tier (the closure still runs inside it).
    pub fn exact_only() -> Self {
        TierConfig { frontline: false }
    }

    /// Parse a CLI spec: `closure,exact` (the default) or `exact`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "closure,exact" => Ok(Self::tiered()),
            "exact" => Ok(Self::exact_only()),
            other => Err(format!(
                "unknown tier pipeline '{other}' (expected closure,exact or exact)"
            )),
        }
    }

    /// Canonical spec string (`closure,exact` or `exact`).
    pub fn spec(&self) -> &'static str {
        if self.frontline {
            "closure,exact"
        } else {
            "exact"
        }
    }
}

/// A configured VMC verifier.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmcVerifier {
    /// Strategy for hard instances.
    pub strategy: Strategy,
    /// Budget for the backtracking search.
    pub search: SearchConfig,
    /// Tier pipeline (closure frontline on/off). Defaults to tiered.
    pub tier: TierConfig,
}

impl VmcVerifier {
    /// Verifier with default settings (auto dispatch, unlimited search).
    pub fn new() -> Self {
        Self::default()
    }

    /// Which algorithm [`VmcVerifier::verify_ops`] runs on this instance.
    /// All applicability checks read the entry's cached structure, so
    /// selection costs O(procs + values).
    pub fn select_ops(&self, ops: &AddrOps) -> Algorithm {
        match self.strategy {
            Strategy::Backtracking => Algorithm::Backtracking,
            Strategy::Sat => Algorithm::SatEncoding,
            Strategy::Auto => {
                if readmap::applicable_ops(ops) {
                    Algorithm::ReadMap
                } else if rmw::readmap_applicable_ops(ops) {
                    Algorithm::RmwReadMap
                } else if one_op::applicable_ops(ops) {
                    Algorithm::OneOpPerProc
                } else if rmw::one_op_applicable_ops(ops) {
                    Algorithm::RmwOneOp
                } else {
                    Algorithm::Backtracking
                }
            }
        }
    }

    /// Decide coherence of a VMC instance, also returning the backtracking
    /// search statistics (zero for the polynomial fast paths and the SAT
    /// encoding) and the [`Tier`] that decided.
    ///
    /// On general instances with the frontline enabled (the default), the
    /// polynomial [`closure`] runs first; only an ambiguous residue is
    /// escalated to the exact search — together with the already-computed
    /// constraint table, so the fixpoint is never analyzed twice. The
    /// verdict and stats are bit-identical under [`TierConfig::exact_only`]
    /// on every input (DESIGN.md §4d), and a budget [`Verdict::Unknown`] from
    /// the exact tier always passes through unmasked. The batch engine and
    /// the streaming engine run this one dispatch, so equal entries get
    /// equal answers.
    ///
    /// ```
    /// use vermem_coherence::{Tier, TierConfig, VmcVerifier};
    /// use vermem_trace::{Addr, AddrOps, Op, TraceBuilder};
    /// let trace = TraceBuilder::new()
    ///     .proc([Op::w(1u64), Op::r(1u64), Op::r(2u64)])
    ///     .proc([Op::w(2u64), Op::w(1u64)])
    ///     .build();
    /// let ops = AddrOps::of(&trace, Addr::ZERO);
    /// let tiered = VmcVerifier::new(); // closure,exact by default
    /// let (verdict, stats, tier) = tiered.verify_ops(&ops);
    /// let exact = VmcVerifier { tier: TierConfig::exact_only(), ..VmcVerifier::new() };
    /// let (v2, s2, t2) = exact.verify_ops(&ops);
    /// assert_eq!((verdict, stats), (v2, s2)); // bit-identical verdicts
    /// assert_eq!(t2, Tier::Exact); // only the tier label differs
    /// ```
    pub fn verify_ops(&self, ops: &AddrOps) -> (Verdict, SearchStats, Tier) {
        use vermem_util::obs;
        let record = obs::enabled();
        let t0 = if record { obs::now_us() } else { 0 };
        let out = match self.select_ops(ops) {
            Algorithm::ReadMap => (
                readmap::solve_readmap_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::RmwReadMap => (
                rmw::solve_rmw_readmap_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::OneOpPerProc => (
                one_op::solve_one_op_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::RmwOneOp => (
                rmw::solve_rmw_one_op_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::Backtracking => {
                // The frontline *is* the exact search's precheck + window
                // pre-pass; with the frontline tier off that pass still
                // runs, inside the exact tier.
                let (v, s, tier) = backtrack::solve_tiered_ops(ops, &self.search);
                let tier = if self.tier.frontline {
                    tier
                } else {
                    Tier::Exact
                };
                (v, s, tier)
            }
            Algorithm::SatEncoding => (
                sat_encode::solve_sat_ops(ops),
                SearchStats::default(),
                Tier::Exact,
            ),
        };
        if record {
            // Per-tier accounting: decided counts plus a latency histogram
            // per deciding tier (escalated addresses land in the exact
            // histogram with their full frontline + search duration).
            let dur = obs::now_us().saturating_sub(t0);
            match out.2 {
                Tier::Frontline => {
                    obs::counter_add("tier.frontline.decided", 1);
                    obs::histogram_record("tier.frontline.us", dur);
                }
                Tier::Exact => {
                    obs::counter_add("tier.escalated", 1);
                    obs::histogram_record("tier.exact.us", dur);
                }
            }
        }
        if let Verdict::Coherent(witness) = &out.0 {
            debug_assert!(
                vermem_trace::check_coherent_schedule_ops(ops, witness).is_ok(),
                "solver produced invalid witness"
            );
        }
        out
    }
}

/// Decide coherence at `addr` with default settings.
///
/// ```
/// use vermem_trace::{Addr, Op, TraceBuilder};
/// // P0 wrote 1 then observed 2; P1 wrote 2: coherent (P1's write lands
/// // between P0's two operations).
/// let trace = TraceBuilder::new()
///     .proc([Op::w(1u64), Op::r(2u64)])
///     .proc([Op::w(2u64)])
///     .build();
/// assert!(vermem_coherence::verify(&trace, Addr::ZERO).is_coherent());
///
/// // A value regression is impossible in any interleaving.
/// let corr = TraceBuilder::new()
///     .proc([Op::w(1u64), Op::w(2u64)])
///     .proc([Op::r(2u64), Op::r(1u64)])
///     .build();
/// assert!(vermem_coherence::verify(&corr, Addr::ZERO).is_incoherent());
/// ```
pub fn verify(trace: &Trace, addr: Addr) -> Verdict {
    VmcVerifier::new().verify_ops(&AddrOps::of(trace, addr)).0
}

/// Outcome of verifying a whole execution: per-address witness schedules,
/// or the first violation found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionVerdict {
    /// Every address has a coherent schedule (the execution is coherent, §3).
    Coherent(BTreeMap<Addr, Schedule>),
    /// Some address has no coherent schedule.
    Incoherent(Violation),
    /// A budget ran out before the answer was known at some address.
    Unknown {
        /// The address whose verification was inconclusive.
        addr: Addr,
    },
}

impl ExecutionVerdict {
    /// True if the execution is coherent.
    pub fn is_coherent(&self) -> bool {
        matches!(self, ExecutionVerdict::Coherent(_))
    }
}

/// Verify coherence of every address of an execution (the paper's §3
/// definition: a coherent schedule must exist per address).
///
/// ```
/// use vermem_trace::{Op, TraceBuilder};
/// let trace = TraceBuilder::new()
///     .proc([Op::write(0u32, 1u64), Op::write(1u32, 2u64)])
///     .proc([Op::read(0u32, 1u64), Op::read(1u32, 2u64)])
///     .build();
/// assert!(vermem_coherence::verify_execution(&trace).is_coherent());
/// ```
pub fn verify_execution(trace: &Trace) -> ExecutionVerdict {
    verify_execution_with(trace, &VmcVerifier::new())
}

/// As [`verify_execution`], with explicit verifier settings: the
/// one-worker run of [`verify_execution_par`]. Addresses are checked in
/// [`Trace::addresses`] order and the first failure is reported.
pub fn verify_execution_with(trace: &Trace, verifier: &VmcVerifier) -> ExecutionVerdict {
    verify_execution_par(trace, verifier, 1).verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{check_coherent_schedule_ops, AddrIndex, Op, TraceBuilder};

    fn select(v: &VmcVerifier, t: &Trace) -> Algorithm {
        v.select_ops(&AddrOps::of(t, Addr::ZERO))
    }

    #[test]
    fn dispatcher_selects_fast_paths() {
        let v = VmcVerifier::new();
        let readmap = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64)])
            .build();
        assert_eq!(select(&v, &readmap), Algorithm::ReadMap);

        let rmw_chain = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(1u64, 2u64)])
            .build();
        assert_eq!(select(&v, &rmw_chain), Algorithm::RmwReadMap);

        let one_op = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        assert_eq!(select(&v, &one_op), Algorithm::OneOpPerProc);

        let euler = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(1u64, 0u64)])
            .build();
        assert_eq!(select(&v, &euler), Algorithm::RmwOneOp);

        let hard = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64), Op::w(2u64)])
            .proc([Op::w(1u64), Op::r(2u64), Op::w(2u64)])
            .build();
        assert_eq!(select(&v, &hard), Algorithm::Backtracking);
    }

    #[test]
    fn strategies_force_algorithm() {
        let t = TraceBuilder::new().proc([Op::w(1u64)]).build();
        let bt = VmcVerifier {
            strategy: Strategy::Backtracking,
            ..Default::default()
        };
        assert_eq!(select(&bt, &t), Algorithm::Backtracking);
        let sat = VmcVerifier {
            strategy: Strategy::Sat,
            ..Default::default()
        };
        assert_eq!(select(&sat, &t), Algorithm::SatEncoding);
    }

    #[test]
    fn verify_execution_multi_address() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 2u64)])
            .proc([Op::read(0u32, 1u64), Op::read(1u32, 2u64)])
            .build();
        match verify_execution(&t) {
            ExecutionVerdict::Coherent(w) => {
                assert_eq!(w.len(), 2);
                let index = AddrIndex::build(&t);
                for (&addr, s) in &w {
                    check_coherent_schedule_ops(index.get(addr).unwrap(), s).unwrap();
                }
            }
            other => panic!("expected coherent, got {other:?}"),
        }
    }

    #[test]
    fn verify_execution_detects_per_address_violation() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::read(1u32, 9u64)]) // address 1 never written, 9 != d_I
            .build();
        match verify_execution(&t) {
            ExecutionVerdict::Incoherent(v) => assert_eq!(v.addr, Addr(1)),
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn all_strategies_agree_on_random_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(9000 + seed);
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
            let auto = verify(&t, Addr::ZERO).is_coherent();
            let ops = AddrOps::of(&t, Addr::ZERO);
            let bt = VmcVerifier {
                strategy: Strategy::Backtracking,
                ..Default::default()
            }
            .verify_ops(&ops)
            .0
            .is_coherent();
            let sat = VmcVerifier {
                strategy: Strategy::Sat,
                ..Default::default()
            }
            .verify_ops(&ops)
            .0
            .is_coherent();
            assert_eq!(auto, bt, "auto vs backtracking, seed {seed}: {t:?}");
            assert_eq!(auto, sat, "auto vs sat, seed {seed}: {t:?}");
        }
    }
}
