//! Parallel per-address verification engine.
//!
//! The paper's §3 definition makes coherence a *per-address* property: an
//! execution is coherent iff every address independently admits a coherent
//! schedule. The per-address solves share nothing but the immutable trace
//! and its [`AddrIndex`], which makes addresses the natural parallelism
//! axis (cf. Roy et al. and the Chini–Saivasan framework in PAPERS.md).
//!
//! [`verify_execution_par`] fans the indexed addresses out over a
//! [`scoped_map`] work-stealing pool and reduces verdicts **in address
//! order**, so the result is *deterministic*: the reported violation (or
//! Unknown address) is bit-identical at every thread count, including the
//! aggregated [`SearchStats`]; the sequential
//! [`crate::verify_execution_with`] is its one-worker run. The fan-out and
//! reduction live in one helper, `reduce_in_order`, which the streaming
//! engine's [`crate::StreamVerifier::finish`] runs too.
//!
//! ## Determinism contract
//!
//! * Every per-address solve is a pure function of `(trace, addr,
//!   verifier)` — workers share no mutable state.
//! * The first non-coherent verdict trips the [`CancelToken`], so
//!   in-flight workers stop early; addresses they *skipped* are re-solved
//!   inline during the in-order reduction, guaranteeing that the address
//!   reported is the **first** failing address in [`Trace::addresses`]
//!   order — exactly what the sequential engine reports — never merely
//!   "whichever worker lost the race".
//! * [`ExecutionReport::stats`] sums the per-address [`SearchStats`] over
//!   the prefix of addresses up to and including the reported failure (all
//!   addresses when coherent). Speculative work beyond the failure point is
//!   discarded from the sum, so the stats are also thread-count-invariant.
//! * `jobs <= 1` never spawns a thread (the pool runs inline), making the
//!   sequential engine a special case of the parallel one.

use crate::verdict::Verdict;
use crate::{ExecutionVerdict, SearchStats, Tier, TierStats, VmcVerifier};
use std::collections::BTreeMap;
use vermem_trace::{Addr, AddrIndex, Trace};
use vermem_util::pool::{available_jobs, scoped_map, CancelToken};

/// Outcome of a (parallel) whole-execution verification, with the
/// aggregated search statistics the per-address solvers accumulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionReport {
    /// The deterministic verdict (identical to the sequential engine's).
    pub verdict: ExecutionVerdict,
    /// Per-address [`SearchStats`] summed in address order up to and
    /// including the reported failure (all addresses when coherent).
    pub stats: SearchStats,
    /// Per-tier accounting over the same deterministic address prefix:
    /// how many addresses the polynomial frontline decided vs how many
    /// were escalated to an exponential engine (see [`crate::closure`]).
    pub tiers: TierStats,
    /// Number of distinct addresses in the trace.
    pub addresses: usize,
    /// Worker count actually used (after resolving `jobs == 0`).
    pub jobs: usize,
}

impl ExecutionReport {
    /// True if the execution is coherent.
    pub fn is_coherent(&self) -> bool {
        self.verdict.is_coherent()
    }
}

/// Verify every address of `trace` on `jobs` worker threads
/// (`0` = [`available_jobs`]). Deterministic: see the module docs.
///
/// ```
/// use vermem_coherence::{verify_execution_par, VmcVerifier};
/// use vermem_trace::{Op, TraceBuilder};
/// let trace = TraceBuilder::new()
///     .proc([Op::write(0u32, 1u64), Op::write(1u32, 2u64)])
///     .proc([Op::read(0u32, 1u64), Op::read(1u32, 2u64)])
///     .build();
/// let report = verify_execution_par(&trace, &VmcVerifier::new(), 4);
/// assert!(report.is_coherent());
/// assert_eq!(report.addresses, 2);
/// ```
pub fn verify_execution_par(trace: &Trace, verifier: &VmcVerifier, jobs: usize) -> ExecutionReport {
    let index = AddrIndex::build(trace);
    let n = index.len();
    let jobs = if jobs == 0 { available_jobs() } else { jobs }.max(1);

    let mut exec_span = vermem_util::span!("verify.execution");
    exec_span.arg("addresses", n as u64);
    exec_span.arg("jobs", jobs as u64);

    let layout: Vec<_> = index
        .iter()
        .enumerate()
        .map(|(i, ops)| (ops.addr(), Some(i)))
        .collect();
    let reduced = reduce_in_order(jobs, &layout, |i| {
        // Per-address solve span: `dur` makes the top-K slowest-addresses
        // table fall out of the trace; disabled = a no-op guard.
        let mut span = vermem_util::span!("verify.addr");
        let ops_i = index.entry(i);
        let out = verifier.verify_ops(ops_i);
        if span.is_recording() {
            span.arg("addr", ops_i.addr().0 as u64);
            span.arg("ops", ops_i.num_ops() as u64);
            span.arg("states", out.1.states);
        }
        out
    });
    ExecutionReport {
        verdict: reduced.verdict,
        stats: reduced.stats,
        tiers: reduced.tiers,
        addresses: n,
        jobs,
    }
}

/// The outcome of [`reduce_in_order`].
pub(crate) struct InOrder {
    /// The first failure in layout order, or every solved witness.
    pub(crate) verdict: ExecutionVerdict,
    /// [`SearchStats`] summed over the layout prefix up to and including
    /// the first failure.
    pub(crate) stats: SearchStats,
    /// Tier counts over the same prefix.
    pub(crate) tiers: TierStats,
}

/// Solve the layout's independent per-address tasks on `jobs` workers,
/// then reduce them in layout order (the determinism contract in the
/// module docs).
///
/// Each layout entry is an address with `Some(task)`, or `None` for an
/// address the frontline already decided coherent without a solve (it
/// counts as [`Tier::Frontline`] and contributes no witness). The tasks
/// are numbered `0..k` in layout order, `k` being the number of `Some`
/// entries. The first non-coherent solve trips a [`CancelToken`]; the
/// reduction re-solves inline any task a cancelled worker skipped and
/// stops at the first failure in layout order.
pub(crate) fn reduce_in_order<F>(jobs: usize, layout: &[(Addr, Option<usize>)], solve: F) -> InOrder
where
    F: Fn(usize) -> (Verdict, SearchStats, Tier) + Sync,
{
    let tasks = layout.iter().filter(|(_, task)| task.is_some()).count();
    let cancel = CancelToken::new();
    let mut results = scoped_map(jobs, tasks, &cancel, |i| {
        let out = solve(i);
        if !matches!(out.0, Verdict::Coherent(_)) {
            // First failure (in wall-clock order) stops in-flight work; the
            // in-order reduction below restores layout-order determinism.
            cancel.cancel();
        }
        out
    });

    let mut witnesses = BTreeMap::new();
    let mut stats = SearchStats::default();
    let mut tiers = TierStats::default();
    for &(addr, task) in layout {
        let Some(i) = task else {
            tiers.record(Tier::Frontline);
            continue;
        };
        let (verdict, s, tier) = results[i].take().unwrap_or_else(|| solve(i));
        stats.absorb(&s);
        tiers.record(tier);
        let verdict = match verdict {
            Verdict::Coherent(w) => {
                witnesses.insert(addr, w);
                continue;
            }
            Verdict::Incoherent(v) => ExecutionVerdict::Incoherent(v),
            Verdict::Unknown => ExecutionVerdict::Unknown { addr },
        };
        return InOrder {
            verdict,
            stats,
            tiers,
        };
    }
    InOrder {
        verdict: ExecutionVerdict::Coherent(witnesses),
        stats,
        tiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_execution_with;
    use vermem_trace::{Op, TraceBuilder};

    fn multi_addr_trace(seed: u64) -> Trace {
        let (t, _) = vermem_trace::gen::gen_sc_trace(&vermem_trace::gen::GenConfig {
            procs: 4,
            total_ops: 120,
            addrs: 9,
            seed,
            ..Default::default()
        });
        t
    }

    #[test]
    fn matches_sequential_on_coherent_traces() {
        let verifier = VmcVerifier::new();
        for seed in 0..8u64 {
            let t = multi_addr_trace(seed);
            let seq = verify_execution_with(&t, &verifier);
            for jobs in [1, 2, 8] {
                let par = verify_execution_par(&t, &verifier, jobs);
                assert_eq!(par.verdict, seq, "seed {seed} jobs {jobs}");
                assert_eq!(par.jobs, jobs);
                assert_eq!(par.addresses, t.addresses().len());
            }
        }
    }

    #[test]
    fn reports_first_failing_address_at_every_thread_count() {
        // Two independent violations (addresses 3 and 7): every thread
        // count must report address 3, exactly like the sequential engine.
        let t = TraceBuilder::new()
            .proc([
                Op::write(3u32, 1u64),
                Op::write(7u32, 1u64),
                Op::write(5u32, 2u64),
            ])
            .proc([
                Op::read(7u32, 9u64),
                Op::read(3u32, 8u64),
                Op::read(5u32, 2u64),
            ])
            .build();
        let verifier = VmcVerifier::new();
        let seq = verify_execution_with(&t, &verifier);
        let seq_violation = match &seq {
            ExecutionVerdict::Incoherent(v) => v.clone(),
            other => panic!("expected incoherent, got {other:?}"),
        };
        assert_eq!(seq_violation.addr, vermem_trace::Addr(3));
        for jobs in [1, 2, 3, 8] {
            let par = verify_execution_par(&t, &verifier, jobs);
            assert_eq!(
                par.verdict,
                ExecutionVerdict::Incoherent(seq_violation.clone()),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn stats_are_thread_count_invariant() {
        let verifier = VmcVerifier::new();
        for seed in 0..4u64 {
            let t = multi_addr_trace(100 + seed);
            let baseline = verify_execution_par(&t, &verifier, 1);
            for jobs in [2, 4, 8] {
                let par = verify_execution_par(&t, &verifier, jobs);
                assert_eq!(par.stats, baseline.stats, "seed {seed} jobs {jobs}");
                assert_eq!(par.tiers, baseline.tiers, "seed {seed} jobs {jobs}");
                assert_eq!(par.verdict, baseline.verdict, "seed {seed} jobs {jobs}");
            }
        }
    }

    #[test]
    fn unknown_address_is_deterministic() {
        // A tiny state budget forces Unknown on a hard multi-address trace;
        // the reported address must match the sequential engine at every
        // thread count.
        let mut b = TraceBuilder::new();
        for p in 0..3u32 {
            let mut ops = Vec::new();
            for a in 0..4u32 {
                // Same-value write pairs at every address: hard instances.
                ops.push(Op::write(a, u64::from(p) + 1));
                ops.push(Op::read(a, 1u64));
                ops.push(Op::write(a, u64::from(p) + 10));
                ops.push(Op::read(a, 12u64));
            }
            b = b.proc(ops);
        }
        let t = b.build();
        let verifier = VmcVerifier {
            search: crate::SearchConfig {
                max_states: Some(3),
                ..Default::default()
            },
            ..Default::default()
        };
        let seq = verify_execution_with(&t, &verifier);
        for jobs in [1, 2, 8] {
            let par = verify_execution_par(&t, &verifier, jobs);
            assert_eq!(par.verdict, seq, "jobs {jobs}");
        }
    }

    #[test]
    fn empty_trace_report() {
        let report = verify_execution_par(&Trace::new(), &VmcVerifier::new(), 0);
        assert!(report.is_coherent());
        assert_eq!(report.addresses, 0);
        assert_eq!(report.stats, SearchStats::default());
        assert_eq!(report.tiers, TierStats::default());
        assert!(report.jobs >= 1);
    }
}
