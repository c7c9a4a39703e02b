//! Trace statistics: the quantitative profile of an execution — operation
//! mix, per-address sharing and contention, value-reuse — used by the CLI
//! and useful when deciding which verification strategy will be cheap.

use crate::index::{AddrIndex, AddrOps};
use crate::op::{Addr, Op};
use crate::trace::Trace;
use std::collections::BTreeMap;

/// Per-address profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrStats {
    /// Total operations touching the address.
    pub ops: usize,
    /// Operations with a read component.
    pub reads: usize,
    /// Operations with a write component.
    pub writes: usize,
    /// Atomic read-modify-writes.
    pub rmws: usize,
    /// Distinct processes touching the address.
    pub sharers: usize,
    /// Distinct processes writing the address.
    pub writers: usize,
    /// Distinct values written.
    pub distinct_values: usize,
    /// Maximum times any single value is written.
    pub max_writes_per_value: usize,
}

impl AddrStats {
    /// The profile of one address's operations.
    fn of(ops: &AddrOps) -> AddrStats {
        let count = |pred: fn(&Op) -> bool| ops.iter().filter(|(_, op)| pred(op)).count();
        AddrStats {
            ops: ops.num_ops(),
            reads: count(Op::is_reading),
            writes: count(Op::is_writing),
            rmws: count(Op::is_rmw),
            sharers: ops.nonempty_procs(),
            writers: ops
                .per_proc()
                .iter()
                .filter(|list| list.iter().any(|(_, op)| op.is_writing()))
                .count(),
            distinct_values: ops.write_counts().len(),
            max_writes_per_value: ops.max_writes_per_value(),
        }
    }

    /// A location written by more than one process (true sharing with
    /// write contention — where coherence protocols earn their keep).
    pub fn is_write_shared(&self) -> bool {
        self.writers > 1
    }

    /// Read-only addresses never constrain schedules beyond the initial
    /// value.
    pub fn is_read_only(&self) -> bool {
        self.writes == 0
    }
}

/// Whole-trace statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of processes with at least one operation.
    pub active_procs: usize,
    /// Total operations.
    pub total_ops: usize,
    /// Per-address profiles.
    pub per_addr: BTreeMap<Addr, AddrStats>,
}

impl TraceStats {
    /// Compute statistics for a trace: one profile per address of its
    /// [`AddrIndex`], including an address that carries only a final
    /// value (a profile with no operations).
    pub fn of(trace: &Trace) -> TraceStats {
        TraceStats {
            active_procs: trace.histories().iter().filter(|h| !h.is_empty()).count(),
            total_ops: trace.num_ops(),
            per_addr: AddrIndex::build(trace)
                .iter()
                .map(|ops| (ops.addr(), AddrStats::of(ops)))
                .collect(),
        }
    }

    /// Addresses written by more than one process.
    pub fn write_shared_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.per_addr
            .iter()
            .filter(|(_, s)| s.is_write_shared())
            .map(|(&a, _)| a)
    }

    /// Fraction of operations that are reads (0.0 when empty).
    pub fn read_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        let reads: usize = self.per_addr.values().map(|s| s.reads).sum();
        reads as f64 / self.total_ops as f64
    }

    /// Render as a `trace` section of the unified run report (the one
    /// shared pretty-printer in [`vermem_util::obs::report`]).
    pub fn to_report(&self) -> vermem_util::obs::report::RunReportSection {
        vermem_util::obs::report::RunReportSection::new("trace")
            .with("procs", self.active_procs)
            .with("ops", self.total_ops)
            .with("addrs", self.per_addr.len())
            .with("write_shared", self.write_shared_addrs().count())
            .with("read_fraction", self.read_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn sample() -> Trace {
        TraceBuilder::new()
            .proc([
                Op::write(0u32, 1u64),
                Op::read(1u32, 0u64),
                Op::rmw(0u32, 1u64, 2u64),
            ])
            .proc([Op::read(0u32, 2u64), Op::write(0u32, 1u64)])
            .proc([])
            .build()
    }

    #[test]
    fn counts_are_right() {
        let stats = TraceStats::of(&sample());
        assert_eq!(stats.active_procs, 2);
        assert_eq!(stats.total_ops, 5);
        let a0 = &stats.per_addr[&Addr(0)];
        assert_eq!(a0.ops, 4);
        assert_eq!(a0.reads, 2); // R + RMW read component
        assert_eq!(a0.writes, 3); // W + RMW + W
        assert_eq!(a0.rmws, 1);
        assert_eq!(a0.sharers, 2);
        assert_eq!(a0.writers, 2);
        assert_eq!(a0.distinct_values, 2); // 1 and 2
        assert_eq!(a0.max_writes_per_value, 2); // value 1 written twice
    }

    #[test]
    fn sharing_predicates() {
        let stats = TraceStats::of(&sample());
        assert!(stats.per_addr[&Addr(0)].is_write_shared());
        assert!(!stats.per_addr[&Addr(1)].is_write_shared());
        assert!(stats.per_addr[&Addr(1)].is_read_only());
        let shared: Vec<Addr> = stats.write_shared_addrs().collect();
        assert_eq!(shared, vec![Addr(0)]);
    }

    #[test]
    fn read_fraction() {
        let stats = TraceStats::of(&sample());
        // 3 reading components of 5 ops.
        assert!((stats.read_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(TraceStats::of(&Trace::new()).read_fraction(), 0.0);
    }

    /// An address that carries only a final value is an address of the
    /// trace, as every per-address view lists it: a profile with no
    /// operations, counted in the report's `addrs`.
    #[test]
    fn final_only_address_is_profiled() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(0u32, 1u64)])
            .proc([Op::read(0u32, 1u64)])
            .final_value(1u32, 5u64)
            .build();
        let stats = TraceStats::of(&t);
        assert_eq!(
            stats.per_addr.keys().copied().collect::<Vec<_>>(),
            t.addresses()
        );
        let only = &stats.per_addr[&Addr(1)];
        assert_eq!(only.ops, 0);
        assert!(only.is_read_only() && !only.is_write_shared());
        assert_eq!((only.distinct_values, only.max_writes_per_value), (0, 0));
        assert!(stats.to_report().to_inline().contains("addrs=2"));
        assert_eq!(stats.write_shared_addrs().count(), 0);
    }

    #[test]
    fn empty_trace() {
        let stats = TraceStats::of(&Trace::new());
        assert_eq!(stats.total_ops, 0);
        assert!(stats.per_addr.is_empty());
    }
}
