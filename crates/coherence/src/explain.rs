//! Violation explanation: shrink an incoherent execution to a **minimal
//! incoherent core** — a 1-minimal subset of its operations (per-process
//! order preserved) that is still incoherent, so a protocol engineer sees
//! the few operations that actually conflict instead of the whole trace.
//!
//! Uses greedy delta debugging: repeatedly drop any single operation whose
//! removal keeps the projection incoherent, until no single removal does
//! (1-minimality). Each candidate is re-verified with a budgeted exact
//! solver; a budget miss conservatively keeps the operation.

use crate::backtrack::{solve_backtracking_ops_with_stats, SearchConfig};
use crate::verdict::{Verdict, Violation};
use vermem_trace::{AddrOps, OpRef};

/// Budget for each verification performed during shrinking.
#[derive(Clone, Copy, Debug)]
pub struct ExplainConfig {
    /// Per-candidate search budget. `None` = unlimited (exact shrinking).
    pub max_states: Option<u64>,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        // Shrinking performs O(n²) verifications; keep each one bounded.
        ExplainConfig {
            max_states: Some(200_000),
        }
    }
}

/// A minimal incoherent core of a VMC instance.
#[derive(Clone, Debug)]
pub struct MinimalCore {
    /// The shrunken instance: the kept operations with their original
    /// references, per-process order preserved, and the final value only
    /// when the violation needs it.
    pub ops: AddrOps,
    /// The violation reported for the core, in the original references.
    pub violation: Violation,
}

impl MinimalCore {
    /// Number of operations in the core.
    pub fn len(&self) -> usize {
        self.ops.num_ops()
    }

    /// True if the core is empty (cannot happen for a real violation).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Shrink a VMC instance to a minimal incoherent core. Returns `None` if
/// the instance verifies coherent (or the budget cannot confirm a
/// violation at all). Every candidate keeps the original operation
/// references, so the core and its violation point at real operations.
pub fn minimize_incoherent_core(instance: &AddrOps, cfg: &ExplainConfig) -> Option<MinimalCore> {
    let search = SearchConfig {
        max_states: cfg.max_states,
        ..Default::default()
    };
    let build = |ops: &[Vec<(OpRef, vermem_trace::Op)>], with_final: bool| -> AddrOps {
        AddrOps::from_parts(
            instance.addr(),
            instance.initial(),
            instance.final_value().filter(|_| with_final),
            ops.to_vec(),
        )
    };
    let incoherent =
        |candidate: &AddrOps| match solve_backtracking_ops_with_stats(candidate, &search) {
            (Verdict::Incoherent(v), _) => Some(v),
            _ => None,
        };

    // Working set: per-process vectors of (original ref, op).
    let mut ops = instance.per_proc().to_vec();

    // The input must be (confirmably) incoherent to begin with.
    let mut violation = incoherent(instance)?;

    // Shrink the *constraint* first: if the violation survives without the
    // final-value requirement, drop it — otherwise removing writes makes
    // sub-traces trivially "incoherent" (an empty trace cannot reach a
    // non-initial final value) and the core degenerates to nothing. When
    // the constraint is essential, the minimal core may legitimately be
    // very small or even empty: it certifies that the recorded operations
    // cannot account for the observed final memory state (a lost-update
    // signature), not an ordering conflict among specific operations.
    let with_final = match incoherent(&build(&ops, false)) {
        Some(v) => {
            violation = v;
            false
        }
        None => true,
    };
    loop {
        let mut shrunk = false;
        'outer: for p in 0..ops.len() {
            for i in 0..ops[p].len() {
                let removed = ops[p].remove(i);
                match incoherent(&build(&ops, with_final)) {
                    Some(v) => {
                        violation = v;
                        shrunk = true;
                        break 'outer;
                    }
                    None => ops[p].insert(i, removed),
                }
            }
        }
        if !shrunk {
            break;
        }
    }

    Some(MinimalCore {
        ops: build(&ops, with_final),
        violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::solve_backtracking;
    use vermem_trace::{Addr, Op, Trace, TraceBuilder};

    fn core_of(trace: &Trace) -> MinimalCore {
        minimize_incoherent_core(&AddrOps::of(trace, Addr::ZERO), &ExplainConfig::default())
            .expect("trace must be incoherent")
    }

    #[test]
    fn coherent_trace_yields_none() {
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::r(1u64)]).build();
        assert!(
            minimize_incoherent_core(&AddrOps::of(&t, Addr::ZERO), &ExplainConfig::default())
                .is_none()
        );
    }

    #[test]
    fn unwritten_read_shrinks_to_single_op() {
        // Lots of fine ops plus one read of a never-written value.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64), Op::w(2u64), Op::r(2u64)])
            .proc([Op::r(1u64), Op::r(99u64), Op::r(2u64)])
            .build();
        let core = core_of(&t);
        // Minimal cores are not unique (removing a read's writer leaves
        // another single-read core), but any 1-minimal core here is a
        // single unservable read.
        assert_eq!(core.len(), 1);
        let (_, op) = core.ops.iter().next().expect("one op");
        assert!(matches!(op, Op::Read { .. }));
    }

    #[test]
    fn corr_regression_core_is_small_and_one_minimal() {
        // CoRR with padding: P1 sees 2 then 1 — core needs both writes and
        // both reads (4 ops).
        let t = TraceBuilder::new()
            .proc([Op::w(5u64), Op::w(1u64), Op::w(2u64), Op::r(2u64)])
            .proc([Op::r(2u64), Op::r(1u64), Op::r(1u64)])
            .build();
        let core = core_of(&t);
        assert!(
            core.len() <= 4,
            "core has {} ops: {:?}",
            core.len(),
            core.ops
        );
        // 1-minimality: removing any single op makes it coherent (or at
        // least not provably incoherent under the same budget).
        let search = SearchConfig::default();
        for skip in 0..core.len() {
            let mut b = TraceBuilder::new();
            let mut idx = 0;
            for h in core.ops.per_proc() {
                let ops: Vec<Op> = h
                    .iter()
                    .map(|&(_, op)| op)
                    .filter(|_| {
                        let keep = idx != skip;
                        idx += 1;
                        keep
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t2 = b.build();
            assert!(
                solve_backtracking(&t2, Addr::ZERO, &search).is_coherent(),
                "removing op {skip} should make the core coherent"
            );
        }
    }

    #[test]
    fn cores_of_injected_violations_stay_incoherent() {
        use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
        for seed in 0..10 {
            let (trace, _) = gen_sc_trace(&GenConfig::single_address(3, 24, 900 + seed));
            let Some((mutated, inj)) =
                inject_violation(&trace, ViolationKind::CorruptReadValue, seed)
            else {
                continue;
            };
            assert!(inj.guaranteed);
            let core = core_of(&mutated);
            assert!(!core.is_empty());
            assert!(core.len() <= mutated.num_ops());
            // The core itself verifies incoherent.
            assert!(
                solve_backtracking_ops_with_stats(&core.ops, &SearchConfig::default())
                    .0
                    .is_incoherent()
            );
        }
    }

    #[test]
    fn kept_refs_point_at_original_ops() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(7u64)])
            .build();
        let core = core_of(&t);
        for (r, core_op) in core.ops.iter() {
            assert_eq!(t.op(r), Some(core_op));
        }
    }
}
