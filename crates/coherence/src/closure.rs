//! Polynomial constraint-closure **frontline** for the tiered verifier.
//!
//! The paper's motivating use case is *online* error detection, yet the
//! exact search pays VMC's NP-complete worst case on every address. Roy et
//! al. ("Fast and Generalized Polynomial Time Memory Consistency
//! Verification", PAPERS.md) observe that TSOtool-style constraint closure
//! decides almost every address of a *real* trace in polynomial time: derive
//! ordering constraints from the reads-from (rf), write-order (wo) and
//! from-read (fr) relations, propagate them to a fixpoint, and only
//! escalate the rare residue whose constraint graph stays ambiguous.
//!
//! This module is that frontline, packaged as a three-way outcome:
//!
//! * [`ClosureOutcome::Coherent`] — the closure *proved* coherence: the
//!   forced serving order is acyclic and simulates to a valid schedule.
//! * [`ClosureOutcome::Violation`] — the closure *derived* a contradiction
//!   (a read with no possible writer, an unwritable final value, an emptied
//!   serving window, a must-precede cycle, or an RMW pigeonhole failure).
//! * [`ClosureOutcome::Escalate`] — neither: the residual [`WindowTable`]
//!   of per-operation position intervals is handed to the exact tier, which
//!   resumes from it without re-running the analysis.
//!
//! ## Soundness (why a tiered verdict is bit-identical to exact-only)
//!
//! The closure is the composition of two passes the exact search runs
//! first when `prune` is on: the static prechecks
//! ([`precheck_ops`]) and the feasibility-interval fixpoint
//! ([`windows::analyze`]). Both are deterministic pure functions of the
//! per-address operations, and every constraint they derive is *necessary*
//! (implied by the definition of a coherent schedule — DESIGN.md §4b, §4d).
//! The exact engine's own pre-pass *is* [`analyze_ops`]
//! ([`crate::backtrack::solve_backtracking_ops_with_stats`] calls it), so a
//! frontline decision is the identical result the exact engine computes —
//! the same verdicts, the same witness schedules, and the same
//! [`SearchStats`] — and the tier split can never disagree with the exact
//! engine on any input. The differential suite
//! (`crates/sim/tests/tier_differential.rs`) pins this across litmus,
//! generated, healthy-sim and fault-injected traces at 1/2/8 jobs.
//!
//! The closure never answers [`crate::Verdict::Unknown`]: budgets live in
//! the exact tier only, so an `Unknown` from an escalated search always
//! reaches the caller unmasked (pinned by a regression test below).

use crate::backtrack::precheck_ops;
use crate::kernel::SearchStats;
use crate::verdict::{Violation, ViolationKind};
use crate::windows::{self, WindowOutcome, WindowTable};
use vermem_trace::{AddrOps, Schedule};
use vermem_util::obs;

/// Outcome of the polynomial frontline on one address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClosureOutcome {
    /// Closure success: a coherent schedule was constructed in polynomial
    /// time (the forced serving order simulated to a witness).
    Coherent(Schedule),
    /// A contradiction was derived: the address is certainly incoherent.
    Violation(Violation),
    /// The constraint residue is ambiguous; the exact tier must decide.
    /// Carries the closed [`WindowTable`] so the exact search resumes from
    /// the fixpoint instead of recomputing it.
    Escalate(WindowTable),
}

/// Run the constraint-closure frontline on one address.
///
/// Returns the outcome plus its [`SearchStats`] contribution: zero for a
/// closure `Coherent` and for a precheck `Violation`, and
/// `window_prunes = 1` for a fixpoint-derived `Violation` (the windows
/// fast-reject).
///
/// ```
/// use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
/// use vermem_trace::{Addr, AddrOps, Op, TraceBuilder};
/// // Repeated values across many processes leave reads with several
/// // plausible servers the closure cannot disambiguate: the residual
/// // window table escalates to the exact tier.
/// let (hard, _) = vermem_trace::gen::gen_hard_coherent(4, 6, 2, 12);
/// let (out, _) = analyze_ops(&AddrOps::of(&hard, Addr::ZERO));
/// assert!(matches!(out, ClosureOutcome::Escalate(_)));
///
/// // A single writer forces every rf edge: decided without escalation.
/// let single = TraceBuilder::new()
///     .proc([Op::w(1u64)])
///     .proc([Op::r(1u64), Op::r(1u64)])
///     .build();
/// let (out, _) = analyze_ops(&AddrOps::of(&single, Addr::ZERO));
/// assert!(matches!(out, ClosureOutcome::Coherent(_)));
/// ```
pub fn analyze_ops(ops: &AddrOps) -> (ClosureOutcome, SearchStats) {
    let mut stats = SearchStats::default();
    // rf existence: every read needs a producible value (a writer, or the
    // initial value), and the final value needs a producer.
    if let Some(v) = precheck_ops(ops) {
        return (ClosureOutcome::Violation(v), stats);
    }
    // Constraint propagation to a fixpoint: serving-candidate (rf) sets,
    // forced write-order (wo) and from-read (fr) edges feeding a
    // must-precede graph, and longest-path position windows (the
    // vector-clock view of the same closure).
    match windows::analyze(ops) {
        WindowOutcome::Infeasible => {
            stats.window_prunes = 1;
            if obs::enabled() {
                obs::counter_add("search.window.prunes", stats.window_prunes);
                obs::counter_add("search.window.fast_reject", 1);
            }
            (
                ClosureOutcome::Violation(Violation {
                    addr: ops.addr(),
                    kind: ViolationKind::SearchExhausted,
                }),
                stats,
            )
        }
        WindowOutcome::Schedule(s) => {
            if obs::enabled() {
                obs::counter_add("search.window.fast_accept", 1);
            }
            (ClosureOutcome::Coherent(Schedule::from_refs(s)), stats)
        }
        WindowOutcome::Table(t) => (ClosureOutcome::Escalate(t), stats),
    }
}

/// Per-tier accounting for a (whole-execution) verification run: how many
/// addresses each tier decided. Summed field-wise by the parallel reducer
/// in address order, so — like [`SearchStats`] — the counts are
/// deterministic and thread-count-invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Addresses decided without entering an exponential engine: the
    /// Figure 5.3 polynomial fast paths plus closure-frontline decisions.
    pub frontline_decided: u64,
    /// Addresses the exponential tier decided (escalated closure residues,
    /// SAT runs, and — under `--tier=exact` — every general instance, even
    /// when the search's *internal* inference pass settles it).
    pub escalated: u64,
}

impl TierStats {
    /// Field-wise summation (the parallel reducer's operation).
    pub fn absorb(&mut self, other: &TierStats) {
        self.frontline_decided += other.frontline_decided;
        self.escalated += other.escalated;
    }

    /// Total addresses accounted.
    pub fn total(&self) -> u64 {
        self.frontline_decided + self.escalated
    }

    /// Record one address decided by `tier`.
    pub fn record(&mut self, tier: Tier) {
        match tier {
            Tier::Frontline => self.frontline_decided += 1,
            Tier::Exact => self.escalated += 1,
        }
    }
}

/// Which tier decided an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// A polynomial engine: a Figure 5.3 fast path or the closure
    /// frontline.
    Frontline,
    /// An exponential engine: the memoized backtracking search (whether or
    /// not its internal pruning ended up deciding cheaply) or SAT.
    Exact,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{solve_backtracking_ops_with_stats, SearchConfig};
    use crate::verdict::Verdict;
    use vermem_trace::{Addr, Op, Trace, TraceBuilder};

    fn ops_of(t: &Trace) -> AddrOps {
        AddrOps::of(t, Addr::ZERO)
    }

    #[test]
    fn single_writer_addresses_stay_in_the_frontline() {
        // A lone writer of one value forces every rf edge: the closure
        // proves coherence directly, no matter how many processes read.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64), Op::r(1u64)])
            .proc([Op::r(1u64)])
            .build();
        let (out, stats) = analyze_ops(&ops_of(&t));
        assert!(matches!(out, ClosureOutcome::Coherent(_)), "{out:?}");
        assert_eq!(stats, SearchStats::default());

        // A single-writer *multi-value* address is the read-map fast path:
        // the tiered dispatcher counts it as frontline-decided without
        // even invoking the closure.
        let multi = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .proc([Op::r(1u64), Op::r(2u64)])
            .proc([Op::r(2u64)])
            .build();
        let v = crate::VmcVerifier::new();
        let ops = ops_of(&multi);
        assert_eq!(v.select_ops(&ops), crate::Algorithm::ReadMap);
        let (verdict, _, tier) = v.verify_ops(&ops);
        assert!(verdict.is_coherent());
        assert_eq!(tier, Tier::Frontline);
    }

    #[test]
    fn all_reads_of_initial_value_decided_by_closure() {
        // No writes at all: every read must see the initial value; the
        // closure proves the trivial schedule (and catches the violation
        // when one read disagrees).
        let ok = TraceBuilder::new()
            .proc([Op::r(0u64), Op::r(0u64)])
            .proc([Op::r(0u64)])
            .build();
        let (out, _) = analyze_ops(&ops_of(&ok));
        assert!(matches!(out, ClosureOutcome::Coherent(_)), "{out:?}");

        let bad = TraceBuilder::new().proc([Op::r(0u64), Op::r(7u64)]).build();
        let (out, stats) = analyze_ops(&ops_of(&bad));
        match out {
            ClosureOutcome::Violation(v) => {
                assert!(matches!(v.kind, ViolationKind::NoWriterForValue { .. }));
                // Precheck-derived: no window-prune counter, matching the
                // exact engine's precheck path.
                assert_eq!(stats, SearchStats::default());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn rmw_chains_decided_by_closure() {
        // An atomic fetch-and-increment chain: rf edges force a total
        // order; the closure follows it without search.
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(2u64, 3u64)])
            .proc([Op::rw(1u64, 2u64), Op::rw(3u64, 4u64)])
            .build();
        let (out, _) = analyze_ops(&ops_of(&t));
        assert!(matches!(out, ClosureOutcome::Coherent(_)), "{out:?}");

        // Pigeonhole failure: two RMWs claim the same read value.
        let bad = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(0u64, 2u64)])
            .build();
        let (out, stats) = analyze_ops(&ops_of(&bad));
        match out {
            ClosureOutcome::Violation(v) => {
                assert_eq!(v.kind, ViolationKind::SearchExhausted);
                assert_eq!(stats.window_prunes, 1);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn escalated_residue_agrees_with_exact_search() {
        // A repeated-value interleaving the closure cannot settle (built by
        // the hard-instance generator precisely to defeat inference): it
        // escalates, and resuming the exact search from the escalated
        // table reproduces the from-scratch result bit-for-bit.
        let (t, _) = vermem_trace::gen::gen_hard_coherent(4, 6, 2, 12);
        let ops = ops_of(&t);
        let cfg = SearchConfig::default();
        let (out, pre_stats) = analyze_ops(&ops);
        let table = match out {
            ClosureOutcome::Escalate(table) => table,
            other => panic!("expected escalation, got {other:?}"),
        };
        assert_eq!(pre_stats, SearchStats::default());
        let (v_esc, s_esc) =
            crate::backtrack::solve_escalated_ops_with_stats(&ops, &cfg, Some(table));
        let (v_ref, s_ref) = solve_backtracking_ops_with_stats(&ops, &cfg);
        assert_eq!(v_esc, v_ref);
        assert_eq!(s_esc, s_ref);
    }

    #[test]
    fn budget_unknown_from_exact_tier_is_never_masked() {
        // Regression pin: the frontline never answers Unknown itself, and
        // when the escalated exact search exhausts its budget the Unknown
        // verdict (and its stats) pass through the tiered dispatcher
        // unchanged.
        let (t, _) = vermem_trace::gen::gen_hard_coherent(5, 8, 2, 0);
        let ops = ops_of(&t);
        let cfg = SearchConfig {
            max_states: Some(2),
            ..Default::default()
        };
        let (out, _) = analyze_ops(&ops);
        assert!(
            matches!(out, ClosureOutcome::Escalate(_)),
            "instance must escalate for the pin to bite: {out:?}"
        );
        let tiered = crate::VmcVerifier {
            search: cfg,
            ..Default::default()
        };
        assert!(tiered.tier.frontline, "tiering is on by default");
        let (verdict, stats, _) = tiered.verify_ops(&ops);
        assert_eq!(verdict, Verdict::Unknown);
        let (v_ref, s_ref) = solve_backtracking_ops_with_stats(&ops, &cfg);
        assert_eq!(v_ref, Verdict::Unknown);
        assert_eq!(stats, s_ref);
    }

    #[test]
    fn tier_stats_absorb_and_record() {
        let mut a = TierStats::default();
        a.record(Tier::Frontline);
        a.record(Tier::Exact);
        let mut b = TierStats {
            frontline_decided: 3,
            escalated: 1,
        };
        b.absorb(&a);
        assert_eq!(
            b,
            TierStats {
                frontline_decided: 4,
                escalated: 2,
            }
        );
        assert_eq!(b.total(), 6);
    }
}
