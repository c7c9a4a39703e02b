//! Lazy Release Consistency support (§6.2, Figure 6.1).
//!
//! LRC *relaxes the coherence requirement itself*, so it cannot be expressed
//! as a program-order relaxation over a single serialization (the
//! serialization models of [`crate::axiom`], [`crate::ModelId::SERIALIZING`]). What LRC does guarantee — and what the
//! paper's Figure 6.1 construction exploits — is that operations protected
//! by acquire/release synchronization on a common lock appear serialized.
//!
//! This module models traces with explicit synchronization and implements
//! the checker for the *fully synchronized* shape the reduction produces:
//! when every memory operation is individually bracketed by an
//! acquire/release of one common lock, LRC adherence of the execution is
//! exactly per-address coherence of the underlying memory operations, which
//! we decide with `vermem-coherence`. The Figure 6.1 construction itself
//! lives in `vermem-reductions`.

use vermem_coherence::ExecutionVerdict;
use vermem_trace::{Op, Trace};

/// A lock identifier for acquire/release operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// An operation in a synchronized history: a memory operation or an
/// acquire/release of a lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncOp {
    /// Acquire a lock.
    Acquire(LockId),
    /// Release a lock.
    Release(LockId),
    /// An ordinary memory operation.
    Mem(Op),
}

/// A per-process history with synchronization operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncHistory {
    ops: Vec<SyncOp>,
}

impl SyncHistory {
    /// Build from a sequence.
    pub fn from_ops(ops: impl IntoIterator<Item = SyncOp>) -> Self {
        SyncHistory {
            ops: ops.into_iter().collect(),
        }
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[SyncOp] {
        &self.ops
    }

    /// Append an operation.
    pub fn push(&mut self, op: SyncOp) {
        self.ops.push(op);
    }

    /// Wrap a memory operation in `Acquire(lock) … Release(lock)` and append
    /// the triple (the Figure 6.1 pattern).
    pub fn push_synchronized(&mut self, lock: LockId, op: Op) {
        self.ops.push(SyncOp::Acquire(lock));
        self.ops.push(SyncOp::Mem(op));
        self.ops.push(SyncOp::Release(lock));
    }
}

/// A synchronized execution trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncTrace {
    histories: Vec<SyncHistory>,
}

impl SyncTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a process history.
    pub fn push_history(&mut self, history: SyncHistory) {
        self.histories.push(history);
    }

    /// The process histories.
    pub fn histories(&self) -> &[SyncHistory] {
        &self.histories
    }

    /// True if every memory operation is immediately bracketed by an
    /// acquire/release pair of the single lock `lock` — the shape the
    /// Figure 6.1 reduction emits, under which LRC forces serialization.
    pub fn is_fully_synchronized(&self, lock: LockId) -> bool {
        for h in &self.histories {
            let ops = h.ops();
            if ops.len() % 3 != 0 {
                return false;
            }
            for chunk in ops.chunks(3) {
                match chunk {
                    [SyncOp::Acquire(a), SyncOp::Mem(_), SyncOp::Release(r)]
                        if *a == lock && *r == lock => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// The underlying memory trace with synchronization stripped.
    pub fn strip_sync(&self) -> Trace {
        Trace::from_histories(self.histories.iter().map(|h| {
            h.ops()
                .iter()
                .filter_map(|op| match op {
                    SyncOp::Mem(m) => Some(*m),
                    _ => None,
                })
                .collect()
        }))
    }
}

/// Why an LRC check could not run or failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LrcError {
    /// The trace is not in the fully-synchronized shape this checker
    /// supports (general LRC verification is NP-hard by §6.2 and requires a
    /// full happens-before machinery out of scope here).
    NotFullySynchronized,
}

impl std::fmt::Display for LrcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LrcError::NotFullySynchronized => {
                write!(f, "trace is not fully synchronized on a single lock")
            }
        }
    }
}

impl std::error::Error for LrcError {}

/// Decide LRC adherence of a fully synchronized trace: under LRC, critical
/// sections of one lock are serialized, so the memory operations must admit
/// per-address coherent schedules — exactly coherence of the stripped
/// trace.
pub fn verify_lrc_fully_synchronized(
    trace: &SyncTrace,
    lock: LockId,
) -> Result<ExecutionVerdict, LrcError> {
    if !trace.is_fully_synchronized(lock) {
        return Err(LrcError::NotFullySynchronized);
    }
    Ok(vermem_coherence::verify_execution(&trace.strip_sync()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LockId = LockId(0);

    fn synced(hists: Vec<Vec<Op>>) -> SyncTrace {
        let mut t = SyncTrace::new();
        for ops in hists {
            let mut h = SyncHistory::default();
            for op in ops {
                h.push_synchronized(L, op);
            }
            t.push_history(h);
        }
        t
    }

    #[test]
    fn fully_synchronized_shape_detected() {
        let t = synced(vec![vec![Op::w(1u64)], vec![Op::r(1u64)]]);
        assert!(t.is_fully_synchronized(L));
        assert!(!t.is_fully_synchronized(LockId(9)));

        let mut loose = SyncTrace::new();
        loose.push_history(SyncHistory::from_ops([SyncOp::Mem(Op::w(1u64))]));
        assert!(!loose.is_fully_synchronized(L));
    }

    #[test]
    fn strip_sync_preserves_program_order() {
        let t = synced(vec![vec![Op::w(1u64), Op::r(1u64)]]);
        let stripped = t.strip_sync();
        assert_eq!(stripped.histories()[0].ops(), &[Op::w(1u64), Op::r(1u64)]);
    }

    #[test]
    fn lrc_check_is_coherence_of_stripped_trace() {
        let good = synced(vec![vec![Op::w(1u64)], vec![Op::r(1u64)]]);
        assert!(verify_lrc_fully_synchronized(&good, L)
            .unwrap()
            .is_coherent());

        let bad = synced(vec![vec![Op::w(1u64)], vec![Op::r(9u64)]]);
        assert!(!verify_lrc_fully_synchronized(&bad, L)
            .unwrap()
            .is_coherent());
    }

    #[test]
    fn unsynchronized_trace_rejected() {
        let mut t = SyncTrace::new();
        t.push_history(SyncHistory::from_ops([
            SyncOp::Acquire(L),
            SyncOp::Mem(Op::w(1u64)),
            // missing release
        ]));
        assert_eq!(
            verify_lrc_fully_synchronized(&t, L).unwrap_err(),
            LrcError::NotFullySynchronized
        );
    }
}
