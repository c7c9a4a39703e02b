//! Process histories: the per-processor, program-ordered operation sequences
//! that make up an execution trace (§3 of the paper).

use crate::op::{Addr, Op};
use std::fmt;

/// A sequence of memory operations issued by one process, in program order,
/// including the values read/written by each operation.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct ProcessHistory {
    ops: Vec<Op>,
}

impl ProcessHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a history from an operation sequence (program order).
    pub fn from_ops(ops: impl IntoIterator<Item = Op>) -> Self {
        ProcessHistory {
            ops: ops.into_iter().collect(),
        }
    }

    /// Append an operation at the end of program order.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Number of operations in the history.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The operation at program-order position `index`.
    pub fn op(&self, index: usize) -> Option<Op> {
        self.ops.get(index).copied()
    }

    /// Iterate over operations in program order.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        self.ops.iter().copied()
    }

    /// The set of distinct addresses touched by this history, sorted.
    pub fn addresses(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self.ops.iter().map(|o| o.addr()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    /// Mutable access for in-place mutation (used by violation injectors).
    pub(crate) fn ops_mut(&mut self) -> &mut Vec<Op> {
        &mut self.ops
    }
}

impl fmt::Debug for ProcessHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for op in &self.ops {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{op:?}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Op> for ProcessHistory {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        ProcessHistory::from_ops(iter)
    }
}

impl IntoIterator for ProcessHistory {
    type Item = Op;
    type IntoIter = std::vec::IntoIter<Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a> IntoIterator for &'a ProcessHistory {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProcessHistory {
        ProcessHistory::from_ops([
            Op::write(0u32, 1u64),
            Op::read(1u32, 0u64),
            Op::rmw(0u32, 1u64, 2u64),
        ])
    }

    #[test]
    fn len_and_indexing() {
        let h = sample();
        assert_eq!(h.len(), 3);
        assert_eq!(h.op(1), Some(Op::read(1u32, 0u64)));
        assert_eq!(h.op(3), None);
    }

    #[test]
    fn addresses_are_sorted_and_deduped() {
        assert_eq!(sample().addresses(), vec![Addr(0), Addr(1)]);
    }
}
