//! Instance classification against the Figure 5.3 complexity table.
//!
//! Given a (single-address) VMC instance, determine which restricted case it
//! falls into and therefore which algorithm applies and what the known
//! worst-case complexity is. The two cells the paper leaves open (§7) are
//! reported as [`KnownComplexity::Open`].

use crate::index::AddrOps;
use std::fmt;

/// Operation mix of an instance: simple reads/writes only, RMWs only, or a
/// mixture of both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpMix {
    /// Only `R` and `W` operations.
    SimpleOnly,
    /// Only `RW` (atomic read-modify-write) operations.
    RmwOnly,
    /// Both kinds appear.
    Mixed,
}

/// Known worst-case complexity of a Figure 5.3 cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KnownComplexity {
    /// Solvable in O(n) time.
    Linear,
    /// Solvable in O(n log n) time.
    Linearithmic,
    /// Solvable in O(n^2) time.
    Quadratic,
    /// Solvable in O(n^k) time for k process histories (polynomial for
    /// constant k).
    PolyInNExpK,
    /// NP-complete.
    NpComplete,
    /// Open problem (paper §7).
    Open,
}

impl fmt::Display for KnownComplexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnownComplexity::Linear => write!(f, "O(n)"),
            KnownComplexity::Linearithmic => write!(f, "O(n lg n)"),
            KnownComplexity::Quadratic => write!(f, "O(n^2)"),
            KnownComplexity::PolyInNExpK => write!(f, "O(n^k)"),
            KnownComplexity::NpComplete => write!(f, "NP-Complete"),
            KnownComplexity::Open => write!(f, "? (open, paper §7)"),
        }
    }
}

/// Structural profile of a single-address instance: everything Figure 5.3
/// conditions on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceProfile {
    /// Number of non-empty process histories.
    pub num_procs: usize,
    /// Total operations.
    pub num_ops: usize,
    /// Maximum operations in any single process history.
    pub max_ops_per_proc: usize,
    /// Maximum number of writes of any single value (counting RMW write
    /// components).
    pub max_writes_per_value: usize,
    /// Operation mix.
    pub mix: OpMix,
}

/// The Figure 5.3 row that applies to an instance, in priority order of the
/// tractable special cases our dispatcher exploits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fig53Case {
    /// Every process issues at most one operation.
    OneOpPerProc,
    /// At most two operations per process (complexity open for simple ops;
    /// NP-complete for RMWs).
    TwoOpsPerProc,
    /// Three or more operations in some process.
    ThreePlusOpsPerProc,
    /// Each value written at most once (the read-map is determined).
    OneWritePerValue,
    /// Some value written exactly twice and none more.
    TwoWritesPerValue,
    /// Some value written three or more times.
    ThreePlusWritesPerValue,
}

impl InstanceProfile {
    /// Profile a pre-built per-address index entry in O(procs + values):
    /// everything Figure 5.3 conditions on is already cached on the entry.
    pub fn of_ops(ops: &AddrOps) -> InstanceProfile {
        let mix = if !ops.has_rmw() {
            OpMix::SimpleOnly
        } else if ops.all_rmw() {
            OpMix::RmwOnly
        } else {
            OpMix::Mixed
        };
        InstanceProfile {
            num_procs: ops.nonempty_procs(),
            num_ops: ops.num_ops(),
            max_ops_per_proc: ops.max_ops_per_proc(),
            max_writes_per_value: ops.max_writes_per_value(),
            mix,
        }
    }

    /// The restriction rows of Figure 5.3 that this instance satisfies.
    pub fn cases(&self) -> Vec<Fig53Case> {
        let mut cases = Vec::new();
        match self.max_ops_per_proc {
            0 | 1 => cases.push(Fig53Case::OneOpPerProc),
            2 => cases.push(Fig53Case::TwoOpsPerProc),
            _ => cases.push(Fig53Case::ThreePlusOpsPerProc),
        }
        match self.max_writes_per_value {
            0 | 1 => cases.push(Fig53Case::OneWritePerValue),
            2 => cases.push(Fig53Case::TwoWritesPerValue),
            _ => cases.push(Fig53Case::ThreePlusWritesPerValue),
        }
        cases
    }

    /// The best (lowest) known worst-case complexity for deciding coherence
    /// of this instance using the algorithms in the paper, assuming *no*
    /// auxiliary information (no write order). Mirrors Figure 5.3:
    ///
    /// | restriction | simple R/W | RMW |
    /// |---|---|---|
    /// | 1 op/process | O(n lg n) | O(n^2) |
    /// | 2 ops/process | ? | NP-complete |
    /// | 3+ ops/process | NP-complete | NP-complete |
    /// | 1 write/value | O(n) | O(n lg n) |
    /// | 2 writes/value | NP-complete | ? |
    /// | 3+ writes/value | NP-complete | NP-complete |
    ///
    /// A constant number of processes always gives O(n^k); we report the
    /// sharper special-case bound when one applies.
    pub fn known_complexity(&self) -> KnownComplexity {
        use KnownComplexity::*;
        let rmw = self.mix == OpMix::RmwOnly;
        // Tractable rows first (sharpest bound wins).
        if self.max_writes_per_value <= 1 {
            return if rmw { Linearithmic } else { Linear };
        }
        if self.max_ops_per_proc <= 1 {
            return if rmw { Quadratic } else { Linearithmic };
        }
        // Hard / open rows.
        if self.max_ops_per_proc == 2 && !rmw && self.mix == OpMix::SimpleOnly {
            return Open; // 2 simple ops/process: open problem (§7)
        }
        if rmw && self.max_writes_per_value == 2 {
            return Open; // RMW with ≤2 writes/value: open problem (§7)
        }
        NpComplete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Addr, Op};
    use crate::trace::{Trace, TraceBuilder};

    fn profile(t: &Trace) -> InstanceProfile {
        InstanceProfile::of_ops(&AddrOps::of(t, Addr::ZERO))
    }

    #[test]
    fn profile_counts() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64), Op::w(2u64)])
            .proc([Op::w(1u64)])
            .proc([])
            .build();
        let p = profile(&t);
        assert_eq!(p.num_procs, 2); // empty history not counted
        assert_eq!(p.num_ops, 4);
        assert_eq!(p.max_ops_per_proc, 3);
        assert_eq!(p.max_writes_per_value, 2); // value 1 written twice
        assert_eq!(p.mix, OpMix::SimpleOnly);
    }

    #[test]
    fn mix_detection() {
        let simple = TraceBuilder::new().proc([Op::w(1u64)]).build();
        assert_eq!(profile(&simple).mix, OpMix::SimpleOnly);
        let rmw = TraceBuilder::new().proc([Op::rw(0u64, 1u64)]).build();
        assert_eq!(profile(&rmw).mix, OpMix::RmwOnly);
        let mixed = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 2u64)])
            .build();
        assert_eq!(profile(&mixed).mix, OpMix::Mixed);
    }

    #[test]
    fn one_write_per_value_is_linear() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64), Op::r(3u64)])
            .proc([Op::w(3u64)])
            .build();
        assert_eq!(profile(&t).known_complexity(), KnownComplexity::Linear);
    }

    #[test]
    fn one_op_per_proc_simple_is_nlogn() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(1u64)]) // value written twice, so read-map row doesn't apply
            .proc([Op::r(1u64)])
            .build();
        assert_eq!(
            profile(&t).known_complexity(),
            KnownComplexity::Linearithmic
        );
    }

    #[test]
    fn two_simple_ops_with_two_writes_is_open() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64)])
            .proc([Op::w(1u64), Op::r(1u64)])
            .build();
        assert_eq!(profile(&t).known_complexity(), KnownComplexity::Open);
    }

    #[test]
    fn rmw_two_writes_per_value_is_open() {
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(2u64, 3u64)])
            .proc([Op::rw(1u64, 2u64), Op::rw(3u64, 1u64)])
            .build();
        // value 1 written twice, all RMW
        assert_eq!(profile(&t).known_complexity(), KnownComplexity::Open);
    }

    #[test]
    fn three_ops_two_writes_simple_is_np_complete() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64), Op::w(2u64)])
            .proc([Op::w(1u64), Op::r(2u64), Op::w(2u64)])
            .build();
        assert_eq!(profile(&t).known_complexity(), KnownComplexity::NpComplete);
    }

    #[test]
    fn cases_listing() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64)])
            .proc([Op::w(1u64)])
            .build();
        let p = profile(&t);
        assert_eq!(
            p.cases(),
            vec![Fig53Case::TwoOpsPerProc, Fig53Case::TwoWritesPerValue]
        );
    }
}
