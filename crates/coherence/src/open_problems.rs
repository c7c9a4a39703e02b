//! The paper's open problems (§7), as executable objects of study.
//!
//! Two cells of Figure 5.3 are left open: VMC with **two simple operations
//! per process**, and all-RMW VMC with **values written at most twice**.
//! Neither a polynomial algorithm nor an NP-completeness proof is known.
//! This module provides instance generators for exactly those cells (shape
//! enforced by the classifier) and a probe that measures how hard the
//! exact solver finds random instances — the kind of empirical
//! reconnaissance one does before attacking an open problem. A consistent
//! absence of blow-up here is *evidence* (not proof) in the tractable
//! direction.

use crate::backtrack::{solve_backtracking_ops_with_stats, SearchConfig};
use vermem_trace::classify::{InstanceProfile, KnownComplexity};
use vermem_trace::{Addr, AddrOps, Op, ProcessHistory, Trace};
use vermem_util::rng::{SliceRandom, StdRng};

/// Which open cell of Figure 5.3 to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenCell {
    /// Two simple reads/writes per process (complexity open).
    TwoSimpleOpsPerProc,
    /// All RMWs, every value written at most twice (complexity open).
    RmwTwoWritesPerValue,
}

/// Generate a random instance inside the requested open cell. Instances
/// mix coherent and incoherent cases (they are not built from a witness).
pub fn gen_open_instance(cell: OpenCell, procs: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    match cell {
        OpenCell::TwoSimpleOpsPerProc => {
            // Two passes: lay out writes first (value 1 forced twice so the
            // instance lands in the 2-writes/value column, remaining values
            // used at most twice), then fill reads from values that are
            // actually written (15% initial-value reads), so instances are
            // not trivially incoherent via never-written reads.
            let mut write_budget: Vec<u64> = vec![1, 1];
            for v in 2..=(procs as u64) {
                write_budget.push(v);
                write_budget.push(v);
            }
            write_budget.shuffle(&mut rng);
            let mut slots: Vec<Option<u64>> = Vec::with_capacity(procs * 2);
            for _ in 0..procs * 2 {
                if rng.gen_bool(0.5) {
                    slots.push(write_budget.pop());
                } else {
                    slots.push(None);
                }
            }
            let written: Vec<u64> = slots.iter().flatten().copied().collect();
            let mut histories = Vec::with_capacity(procs);
            for p in 0..procs {
                let ops: Vec<Op> = (0..2)
                    .map(|k| match slots[2 * p + k] {
                        Some(v) => Op::w(v),
                        None => {
                            let v = if written.is_empty() || rng.gen_bool(0.15) {
                                0
                            } else {
                                written[rng.gen_range(0..written.len())]
                            };
                            Op::r(v)
                        }
                    })
                    .collect();
                histories.push(ProcessHistory::from_ops(ops));
            }
            // Guarantee the 2-writes/value column even if the forced pair
            // stayed in the budget.
            if !histories
                .iter()
                .flat_map(|h| h.iter())
                .filter_map(|o| o.written_value())
                .fold(std::collections::HashMap::new(), |mut m, v| {
                    *m.entry(v).or_insert(0) += 1;
                    m
                })
                .values()
                .any(|&c| c >= 2)
            {
                // Use a fresh value so no existing count can exceed two.
                let fresh = procs as u64 + 1;
                histories[0] = ProcessHistory::from_ops([Op::w(fresh), Op::w(fresh)]);
            }
            Trace::from_histories(histories)
        }
        OpenCell::RmwTwoWritesPerValue => {
            // Build a serial RMW chain (coherent by construction) where
            // every value is written at most twice, split round-robin over
            // the processes; then, half the time, perturb it by swapping
            // two operations across processes so incoherent instances also
            // occur.
            let values = procs.max(2) as u64;
            let total_ops = 2 * values as usize;
            let mut count = vec![0u8; values as usize + 1];
            let mut current = 0u64;
            let mut chain: Vec<Op> = Vec::with_capacity(total_ops);
            for _ in 0..total_ops {
                let candidates: Vec<u64> =
                    (1..=values).filter(|&v| count[v as usize] < 2).collect();
                let Some(&v) = candidates.choose(&mut rng) else {
                    break;
                };
                count[v as usize] += 1;
                chain.push(Op::rw(current, v));
                current = v;
            }
            let mut histories: Vec<Vec<Op>> = vec![Vec::new(); procs];
            for (i, op) in chain.into_iter().enumerate() {
                histories[i % procs].push(op);
            }
            if rng.gen_bool(0.5) && procs >= 2 {
                // Cross-process swap: may or may not break coherence.
                let a = rng.gen_range(0..procs);
                let b = (a + 1 + rng.gen_range(0..procs - 1)) % procs;
                if !histories[a].is_empty() && !histories[b].is_empty() {
                    let i = rng.gen_range(0..histories[a].len());
                    let j = rng.gen_range(0..histories[b].len());
                    let tmp = histories[a][i];
                    histories[a][i] = histories[b][j];
                    histories[b][j] = tmp;
                }
            }
            Trace::from_histories(histories.into_iter().map(ProcessHistory::from_ops))
        }
    }
}

/// Per-instance state budget for [`probe_open_cell`]; a capped instance
/// counts as neither coherent nor incoherent, and its (≥ cap) state count
/// still feeds the maximum.
pub const PROBE_STATE_CAP: u64 = 1_000_000;

/// Probe an open cell: generate `samples` random instances of the given
/// size, solve exactly (bounded by [`PROBE_STATE_CAP`] states each), and
/// report the worst observed search-state count.
/// Returns `(max_states, coherent_count, incoherent_count)`.
pub fn probe_open_cell(
    cell: OpenCell,
    procs: usize,
    samples: u64,
    seed: u64,
) -> (u64, usize, usize) {
    // Pruning off: the probe's evidence is the difficulty of the *naive*
    // exact search in each open cell (rapid growth hints at hardness); the
    // PR-4 inference layer would mask exactly the signal being probed.
    let cfg = SearchConfig {
        max_states: Some(PROBE_STATE_CAP),
        prune: crate::backtrack::PruneConfig::none(),
    };
    let mut max_states = 0u64;
    let mut coherent = 0;
    let mut incoherent = 0;
    for i in 0..samples {
        let trace = gen_open_instance(cell, procs, seed.wrapping_add(i));
        let ops = AddrOps::of(&trace, Addr::ZERO);
        debug_assert_eq!(
            InstanceProfile::of_ops(&ops).known_complexity(),
            KnownComplexity::Open,
            "generator escaped the open cell"
        );
        let (verdict, stats) = solve_backtracking_ops_with_stats(&ops, &cfg);
        max_states = max_states.max(stats.states);
        match verdict {
            crate::Verdict::Coherent(_) => coherent += 1,
            crate::Verdict::Incoherent(_) => incoherent += 1,
            crate::Verdict::Unknown => {}
        }
    }
    (max_states, coherent, incoherent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_stay_inside_their_cells() {
        for seed in 0..40 {
            let t = gen_open_instance(OpenCell::TwoSimpleOpsPerProc, 5, seed);
            let p = InstanceProfile::of_ops(&AddrOps::of(&t, Addr::ZERO));
            assert!(p.max_ops_per_proc <= 2);
            assert!(p.max_writes_per_value <= 2);
            assert_eq!(
                p.known_complexity(),
                KnownComplexity::Open,
                "seed {seed}: {t:?}"
            );

            let t = gen_open_instance(OpenCell::RmwTwoWritesPerValue, 4, seed);
            let p = InstanceProfile::of_ops(&AddrOps::of(&t, Addr::ZERO));
            assert!(p.max_writes_per_value <= 2, "seed {seed}");
            assert_eq!(
                p.known_complexity(),
                KnownComplexity::Open,
                "seed {seed}: {t:?}"
            );
        }
    }

    #[test]
    fn probe_runs_and_sees_both_outcomes() {
        let (max_states, coherent, incoherent) =
            probe_open_cell(OpenCell::TwoSimpleOpsPerProc, 6, 60, 1);
        assert!(max_states > 0);
        assert!(coherent > 0, "expected some coherent instances");
        assert!(incoherent > 0, "expected some incoherent instances");
    }

    #[test]
    fn rmw_probe_runs() {
        let (max_states, coherent, incoherent) =
            probe_open_cell(OpenCell::RmwTwoWritesPerValue, 4, 40, 2);
        assert!(max_states > 0);
        assert!(coherent + incoherent <= 40); // capped instances count as neither
    }
}
