//! Schedules (interleavings) and the polynomial-time certificate checker of
//! Theorem 4.2: given a schedule, decide whether it is a *coherent schedule*
//! (single address, §3) or a serialization of a whole trace: a
//! *sequentially consistent schedule* (Definition 6.1), or the schedule of
//! a weaker serialization model.
//!
//! There is one checker. [`check_coherent_schedule_ops`] checks one
//! address's projection: completeness, duplicates, same-address program
//! order, read values and the final value. [`check_serialization`] routes
//! each scheduled operation to its address, runs that check on every entry
//! of the trace's [`AddrIndex`], and adds one linear pass per process over
//! the cross-address program-order pairs a 3×3 read/write/RMW table
//! ([`Op::class`](crate::Op::class)) preserves. SC's table preserves every
//! pair ([`check_sc_schedule`]); a declared model passes its own.

use crate::index::{AddrIndex, AddrOps};
use crate::op::{Addr, Op, OpRef, Value};
use crate::trace::Trace;
use std::fmt;

/// A schedule: a total order over (a subset of) the operations of a trace,
/// given as [`OpRef`]s into that trace.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    order: Vec<OpRef>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit order of operation references.
    pub fn from_refs(order: impl IntoIterator<Item = OpRef>) -> Self {
        Schedule {
            order: order.into_iter().collect(),
        }
    }

    /// Append the next operation.
    pub fn push(&mut self, op_ref: OpRef) {
        self.order.push(op_ref);
    }

    /// The schedule order.
    pub fn refs(&self) -> &[OpRef] {
        &self.order
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.order.iter()).finish()
    }
}

impl AsRef<[OpRef]> for Schedule {
    fn as_ref(&self) -> &[OpRef] {
        &self.order
    }
}

impl FromIterator<OpRef> for Schedule {
    fn from_iter<T: IntoIterator<Item = OpRef>>(iter: T) -> Self {
        Schedule::from_refs(iter)
    }
}

/// Why a schedule failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A reference points outside the trace.
    DanglingRef(OpRef),
    /// An operation appears more than once.
    DuplicateOp(OpRef),
    /// Not every operation of the trace (restricted to the checked address
    /// set) appears in the schedule.
    MissingOps {
        /// Operations the schedule should cover.
        expected: usize,
        /// Operations it actually covers.
        found: usize,
    },
    /// Program order violated: `later` was scheduled before `earlier`.
    ProgramOrder {
        /// The program-order-earlier operation.
        earlier: OpRef,
        /// The program-order-later operation that was scheduled first.
        later: OpRef,
    },
    /// A read returned a value other than the one last written.
    ReadValue {
        /// The offending read.
        read: OpRef,
        /// The value the schedule makes current at that point.
        expected: Value,
        /// The value the read actually returned.
        actual: Value,
    },
    /// The last write to `addr` did not produce the required final value.
    FinalValue {
        /// The constrained location.
        addr: Addr,
        /// The required final value `d_F`.
        expected: Value,
        /// The value the schedule leaves behind.
        actual: Value,
    },
    /// An operation touches an address outside the checked set (only for the
    /// single-address checker).
    WrongAddress {
        /// The offending operation.
        op: OpRef,
        /// The unexpected address it touches.
        addr: Addr,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::DanglingRef(r) => write!(f, "dangling operation reference {r:?}"),
            ScheduleError::DuplicateOp(r) => write!(f, "operation {r:?} scheduled twice"),
            ScheduleError::MissingOps { expected, found } => {
                write!(f, "schedule covers {found} of {expected} operations")
            }
            ScheduleError::ProgramOrder { earlier, later } => {
                write!(
                    f,
                    "program order violated: {later:?} scheduled before {earlier:?}"
                )
            }
            ScheduleError::ReadValue {
                read,
                expected,
                actual,
            } => write!(
                f,
                "read {read:?} returned {actual:?} but the last write installed {expected:?}"
            ),
            ScheduleError::FinalValue {
                addr,
                expected,
                actual,
            } => write!(
                f,
                "final value of {addr:?} is {actual:?}, required {expected:?}"
            ),
            ScheduleError::WrongAddress { op, addr } => {
                write!(f, "operation {op:?} touches unexpected address {addr:?}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Check that `schedule` is a **coherent schedule** for the operations of
/// `trace` at address `addr` (§3): an interleaving of the per-process
/// projections in which every read returns the value written by the
/// immediately preceding write (reads before the first write return the
/// initial value `d_I`), and — if a final value is configured — the last
/// write writes `d_F`.
///
/// Indexes the address in one O(ops) scan, then runs
/// [`check_coherent_schedule_ops`]; a reference the entry lacks is reported
/// as [`ScheduleError::WrongAddress`] when it names an operation of the
/// trace at another address.
///
/// Every check of several addresses should build one [`crate::AddrIndex`]
/// and call [`check_coherent_schedule_ops`] per entry instead. This
/// wrapper stays only because the `vmcbench` harness links it; it goes
/// when that harness moves to the `_ops` form.
pub fn check_coherent_schedule(
    trace: &Trace,
    addr: Addr,
    schedule: &Schedule,
) -> Result<(), ScheduleError> {
    check_coherent_schedule_ops(&AddrOps::of(trace, addr), schedule).map_err(|e| match e {
        ScheduleError::DanglingRef(r) => match trace.op(r) {
            Some(op) => ScheduleError::WrongAddress {
                op: r,
                addr: op.addr(),
            },
            None => e,
        },
        e => e,
    })
}

/// The certificate checker of Theorem 4.2 on a VMC instance: is `schedule`
/// a coherent schedule of the operations in `ops` (one address's
/// per-process histories, `d_I` and `d_F`)? This is the NP certificate
/// checker from the membership half of the theorem.
///
/// Runs in O(n): a valid schedule takes each process's next operation, so
/// each reference is matched against its process's cursor; only a
/// reference out of program order costs a binary search. A reference the
/// entry does not hold is a [`ScheduleError::DanglingRef`]. Structural
/// errors (in schedule order) take precedence over a wrong read value,
/// which takes precedence over the final value. `schedule` is a
/// [`Schedule`] or a slice of [`OpRef`]s.
pub fn check_coherent_schedule_ops(
    ops: &AddrOps,
    schedule: &(impl AsRef<[OpRef]> + ?Sized),
) -> Result<(), ScheduleError> {
    let refs = schedule.as_ref();
    let per_proc = ops.per_proc();
    // `next[p]`: one past the position of process p's last scheduled op.
    let mut next: Vec<usize> = vec![0; per_proc.len()];
    let mut current = ops.initial();
    let mut wrong_read: Option<ScheduleError> = None;
    for (i, &r) in refs.iter().enumerate() {
        let p = usize::from(r.proc.0);
        let list = per_proc.get(p).ok_or(ScheduleError::DanglingRef(r))?;
        let pos = match list.get(next[p]) {
            Some(&(q, _)) if q == r => next[p],
            _ => list
                .binary_search_by_key(&r.index, |&(q, _)| q.index)
                .map_err(|_| ScheduleError::DanglingRef(r))?,
        };
        if pos < next[p] {
            return Err(if refs[..i].contains(&r) {
                ScheduleError::DuplicateOp(r)
            } else {
                ScheduleError::ProgramOrder {
                    earlier: r,
                    later: list[next[p] - 1].0,
                }
            });
        }
        next[p] = pos + 1;
        let op = list[pos].1;
        if let Some(read) = op.read_value() {
            if read != current && wrong_read.is_none() {
                wrong_read = Some(ScheduleError::ReadValue {
                    read: r,
                    expected: current,
                    actual: read,
                });
            }
        }
        if let Some(written) = op.written_value() {
            current = written;
        }
    }
    if refs.len() != ops.num_ops() {
        return Err(ScheduleError::MissingOps {
            expected: ops.num_ops(),
            found: refs.len(),
        });
    }
    if let Some(e) = wrong_read {
        return Err(e);
    }
    match ops.final_value() {
        Some(expected) if expected != current => Err(ScheduleError::FinalValue {
            addr: ops.addr(),
            expected,
            actual: current,
        }),
        _ => Ok(()),
    }
}

/// Check that `schedule` is a **sequentially consistent schedule** for all
/// operations of `trace` (Definition 6.1): a single interleaving of every
/// process history in which each read returns the value written by the
/// immediately preceding write *to the same address*, with per-address
/// initial and final values honoured. This is [`check_serialization`] with
/// every program-order pair preserved.
pub fn check_sc_schedule(trace: &Trace, schedule: &Schedule) -> Result<(), ScheduleError> {
    check_serialization(trace, &AddrIndex::build(trace), &[[true; 3]; 3], schedule)
}

/// Check that `schedule` serializes `trace`: a permutation of all its
/// operations that is a coherent schedule at every address and keeps each
/// cross-address program-order pair the table preserves.
/// `ppo_cross[x][y]` says whether an operation of class `x` must be
/// scheduled before a program-order-later one of class `y` at another
/// address ([`Op::class`](crate::Op::class): read, write, RMW);
/// same-address pairs are always preserved. `idx` must be
/// `AddrIndex::build(trace)`.
///
/// Each reference is routed to its address, each entry of `idx` checks its
/// projection with [`check_coherent_schedule_ops`], then one pass per
/// process compares each operation's schedule position with the latest
/// position of each earlier class: O(ops + addresses × processes), the
/// cost of building `idx`, with no pairwise scan. A reference to no
/// operation is a [`ScheduleError::DanglingRef`]; otherwise the first
/// error of the first failing address, in ascending address order, comes
/// before any cross-address [`ScheduleError::ProgramOrder`]. So on a
/// schedule with defects at several addresses, the error reported follows
/// address order, not schedule order.
///
/// # Panics
///
/// If `idx` lacks the address of a scheduled operation.
pub fn check_serialization(
    trace: &Trace,
    idx: &AddrIndex,
    ppo_cross: &[[bool; 3]; 3],
    schedule: &Schedule,
) -> Result<(), ScheduleError> {
    // Process p's i-th operation is `start[p] + i` in the flat tables.
    let histories = trace.histories();
    let mut start = Vec::with_capacity(histories.len() + 1);
    start.push(0);
    for h in histories {
        start.push(start[start.len() - 1] + h.len());
    }
    // `at[start[p] + i]`: the schedule position of process p's i-th
    // operation.
    let mut at = vec![0; start[histories.len()]];
    // Each entry's projection, entry after entry, each in schedule order
    // (a counting sort, filled from the back): entry e's is
    // `parts[bounds[e]..bounds[e + 1]]` once filled.
    let entry = |op: Op| idx.position(op.addr()).expect("idx indexes the trace");
    let mut bounds = vec![0; idx.len() + 1];
    for (pos, &r) in schedule.refs().iter().enumerate() {
        let op = trace.op(r).ok_or(ScheduleError::DanglingRef(r))?;
        bounds[entry(op)] += 1;
        at[start[usize::from(r.proc.0)] + r.index as usize] = pos;
    }
    for e in 0..idx.len() {
        bounds[e + 1] += bounds[e];
    }
    let mut parts = vec![OpRef::new(0, 0); schedule.len()];
    for &r in schedule.refs().iter().rev() {
        let e = entry(trace.op(r).expect("routed"));
        bounds[e] -= 1;
        parts[bounds[e]] = r;
    }
    for (e, ops) in idx.iter().enumerate() {
        check_coherent_schedule_ops(ops, &parts[bounds[e]..bounds[e + 1]])?;
    }
    // Every operation is now scheduled exactly once, so `at` is complete.
    for (p, h) in trace.histories().iter().enumerate() {
        let proc = p as u16;
        // Per class: the latest schedule position among this process's
        // operations so far, and that operation's index.
        let mut latest: [Option<(usize, u32)>; 3] = [None; 3];
        for (i, op) in h.iter().enumerate() {
            let (pos, later) = (at[start[p] + i], op.class());
            let passed = (0..3)
                .filter(|&class| ppo_cross[class][later])
                .filter_map(|class| latest[class])
                .find(|&(q, _)| q > pos);
            if let Some((_, earlier)) = passed {
                return Err(ScheduleError::ProgramOrder {
                    earlier: OpRef::new(proc, earlier),
                    later: OpRef::new(proc, i as u32),
                });
            }
            if latest[later].is_none_or(|(q, _)| q < pos) {
                latest[later] = Some((pos, i as u32));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::trace::TraceBuilder;

    /// P0: W(1); P1: R(1). Coherent with order W,R.
    fn simple() -> Trace {
        TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build()
    }

    fn sched(pairs: &[(u16, u32)]) -> Schedule {
        pairs.iter().map(|&(p, i)| OpRef::new(p, i)).collect()
    }

    #[test]
    fn accepts_valid_coherent_schedule() {
        let t = simple();
        assert!(check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0), (1, 0)])).is_ok());
    }

    #[test]
    fn rejects_read_before_write() {
        let t = simple();
        let err = check_coherent_schedule(&t, Addr::ZERO, &sched(&[(1, 0), (0, 0)])).unwrap_err();
        assert!(matches!(err, ScheduleError::ReadValue { .. }));
    }

    #[test]
    fn rejects_incomplete_schedule() {
        let t = simple();
        let err = check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0)])).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::MissingOps {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn rejects_duplicates() {
        let t = simple();
        let err = check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0), (0, 0)])).unwrap_err();
        assert_eq!(err, ScheduleError::DuplicateOp(OpRef::new(0u16, 0)));
    }

    #[test]
    fn rejects_dangling_ref() {
        let t = simple();
        let err = check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0), (4, 0)])).unwrap_err();
        assert_eq!(err, ScheduleError::DanglingRef(OpRef::new(4u16, 0)));
    }

    #[test]
    fn rejects_program_order_violation() {
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::w(2u64)]).build();
        let err = check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 1), (0, 0)])).unwrap_err();
        assert!(matches!(err, ScheduleError::ProgramOrder { .. }));
    }

    #[test]
    fn initial_value_serves_early_reads() {
        let t = TraceBuilder::new()
            .proc([Op::r(7u64), Op::w(1u64)])
            .initial(0u32, 7u64)
            .build();
        assert!(check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0), (0, 1)])).is_ok());
    }

    #[test]
    fn final_value_constraint_enforced() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let err = check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0), (0, 1)])).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::FinalValue {
                addr: Addr::ZERO,
                expected: Value(1),
                actual: Value(2)
            }
        );
    }

    #[test]
    fn rmw_atomicity_checked() {
        // RW(0->1) then RW(1->2) is fine; swapping them is not.
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(1u64, 2u64)])
            .build();
        assert!(check_coherent_schedule(&t, Addr::ZERO, &sched(&[(0, 0), (1, 0)])).is_ok());
        assert!(check_coherent_schedule(&t, Addr::ZERO, &sched(&[(1, 0), (0, 0)])).is_err());
    }

    #[test]
    fn sc_schedule_tracks_addresses_independently() {
        // Classic message passing: P0: W(x,1) W(y,1); P1: R(y,1) R(x,1).
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 1u64)])
            .build();
        let ok = sched(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(check_sc_schedule(&t, &ok).is_ok());
        let bad = sched(&[(0, 1), (1, 0), (1, 1), (0, 0)]);
        assert!(check_sc_schedule(&t, &bad).is_err());
    }

    #[test]
    fn coherent_checker_rejects_foreign_address_ops() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .build();
        let err = check_coherent_schedule(&t, Addr(0), &sched(&[(0, 0), (0, 1)])).unwrap_err();
        assert!(matches!(err, ScheduleError::WrongAddress { .. }));
    }

    /// On a one-address trace an SC schedule is exactly a coherent
    /// schedule: over every small one-address trace, with and without a
    /// final value, the whole-trace checker (routing, then the
    /// cross-address pass) returns what the one-address check returns, on
    /// valid and broken candidate schedules alike.
    #[test]
    fn coherent_checker_equals_sc_checker_on_one_address() {
        use crate::gen::{small_traces, SmallScope};
        let scope = SmallScope {
            max_ops: 4,
            addrs: 1,
            values: 2,
        };
        let (mut checked, mut accepted) = (0usize, 0usize);
        small_traces(&scope, |t| {
            for final_value in [None, Some(0u64), Some(1)] {
                let mut t = t.clone();
                if let Some(f) = final_value {
                    t.set_final(Addr::ZERO, f);
                }
                let proc_major: Vec<OpRef> = t.iter_ops().map(|(r, _)| r).collect();
                let mut round_robin = proc_major.clone();
                round_robin.sort_by_key(|r| (r.index, r.proc));
                let mut reversed = proc_major.clone();
                reversed.sort_by_key(|r| (std::cmp::Reverse(r.proc), r.index));
                let mut duplicated = proc_major.clone();
                duplicated.push(proc_major[0]);
                let mut dropped = proc_major.clone();
                dropped.pop();
                let mut swapped = proc_major.clone();
                swapped.swap(0, 1.min(proc_major.len() - 1));
                for refs in [
                    proc_major,
                    round_robin,
                    reversed,
                    duplicated,
                    dropped,
                    swapped,
                ] {
                    let s = Schedule::from_refs(refs);
                    let coherent = check_coherent_schedule(&t, Addr::ZERO, &s);
                    assert_eq!(coherent, check_sc_schedule(&t, &s), "{t:?} {s:?}");
                    checked += 1;
                    accepted += usize::from(coherent.is_ok());
                }
            }
        });
        assert!(
            accepted > 0 && accepted < checked,
            "{accepted} of {checked}"
        );
    }

    #[test]
    fn sc_final_values_checked_per_address() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(1u32, 2u64)])
            .final_value(1u32, 3u64)
            .build();
        let err = check_sc_schedule(&t, &sched(&[(0, 0), (1, 0)])).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::FinalValue { addr: Addr(1), .. }
        ));
    }
}
