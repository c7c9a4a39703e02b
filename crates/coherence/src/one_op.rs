//! VMC with one simple operation per process (Figure 5.3 row
//! "1 Operation/Process", simple column).
//!
//! With singleton histories there are no program-order constraints at all,
//! so after the static prechecks (every read value written or initial; the
//! final value producible) a coherent schedule can always be *constructed*:
//! reads of `d_I` first, then the writes grouped by value with each group's
//! reads immediately after it, the `d_F` group last. The paper lists
//! O(n lg n); grouping by the entry's value ids gives O(n), plus a sort of
//! the written values.

use crate::backtrack::precheck_ops;
use crate::verdict::Verdict;
use vermem_trace::{AddrOps, OpRef, Schedule};
use vermem_util::csr::Csr;

/// True if every process issues at most one operation in the instance,
/// and all of them are simple reads/writes. Decided in O(procs) from the
/// entry's cached structure.
pub fn applicable_ops(ops: &AddrOps) -> bool {
    !ops.has_rmw() && ops.max_ops_per_proc() <= 1
}

/// Decide coherence of a one-simple-op-per-process instance. After
/// [`precheck_ops`] passes, such an instance is always coherent.
pub fn solve_one_op_ops(indexed: &AddrOps) -> Verdict {
    debug_assert!(
        applicable_ops(indexed),
        "one-op fast path preconditions violated"
    );
    if let Some(v) = precheck_ops(indexed) {
        return Verdict::Incoherent(v);
    }
    let refs: Vec<OpRef> = indexed.iter().map(|(r, _)| r).collect();
    let ids = indexed.ids();
    let values = indexed.values();

    // Reads of d_I issued before any write of it go up front; every other
    // operation joins its value's group. The precheck leaves no read of a
    // value nobody writes, other than d_I before it is written.
    let d_i_written_at = ids
        .iter()
        .position(|i| i.write() == Some(0))
        .unwrap_or(ids.len());
    let up_front = |i: usize| i < d_i_written_at && ids[i].read() == Some(0);
    let writes = (0..ids.len() as u32).filter_map(|i| ids[i as usize].write().map(|w| (w, i)));
    let reads = (0..ids.len() as u32)
        .filter(|&i| ids[i as usize].write().is_none() && !up_front(i as usize))
        .map(|i| (ids[i as usize].read().expect("a read"), i));
    let (writes, reads) = (
        Csr::new(values.len(), writes),
        Csr::new(values.len(), reads),
    );
    // The written values in ascending value order, the final value's group
    // last. If d_F = d_I and nothing writes it, the precheck guaranteed
    // there are no writes at all, and the schedule is reads only.
    let mut order: Vec<u32> = (0..indexed.memory_ids())
        .filter(|&id| indexed.writes_of(id) > 0)
        .collect();
    order.sort_unstable_by_key(|&id| values[id as usize]);
    if let Some(f) = indexed.final_id() {
        if let Some(pos) = order.iter().position(|&id| id == f) {
            let id = order.remove(pos);
            order.push(id);
        }
    }

    let mut schedule: Vec<OpRef> = Vec::with_capacity(refs.len());
    schedule.extend((0..refs.len()).filter(|&i| up_front(i)).map(|i| refs[i]));
    for &id in &order {
        let group = writes.row(id).iter().chain(reads.row(id));
        schedule.extend(group.map(|&i| refs[i as usize]));
    }
    debug_assert_eq!(schedule.len(), refs.len(), "every operation placed");
    Verdict::Coherent(Schedule::from_refs(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{solve_backtracking_ops_with_stats, SearchConfig};
    use vermem_trace::{check_coherent_schedule, Addr, Op, Trace, TraceBuilder};

    fn applicable(t: &Trace, addr: Addr) -> bool {
        applicable_ops(&AddrOps::of(t, addr))
    }

    fn solve_one_op(t: &Trace, addr: Addr) -> Verdict {
        let verdict = solve_one_op_ops(&AddrOps::of(t, addr));
        if let Some(witness) = verdict.schedule() {
            check_coherent_schedule(t, addr, witness).unwrap();
        }
        verdict
    }

    #[test]
    fn applicability() {
        let ok = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        assert!(applicable(&ok, Addr::ZERO));
        let two_ops = TraceBuilder::new().proc([Op::w(1u64), Op::r(1u64)]).build();
        assert!(!applicable(&two_ops, Addr::ZERO));
        let rmw = TraceBuilder::new().proc([Op::rw(0u64, 1u64)]).build();
        assert!(!applicable(&rmw, Addr::ZERO));
    }

    #[test]
    fn coherent_construction() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .proc([Op::r(1u64)])
            .proc([Op::r(2u64)])
            .proc([Op::r(0u64)])
            .build();
        let v = solve_one_op(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn unwritten_value_detected() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(7u64)])
            .build();
        assert!(solve_one_op(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn final_value_group_last() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve_one_op(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn duplicate_value_writes_grouped() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        assert!(solve_one_op(&t, Addr::ZERO).is_coherent());
    }

    #[test]
    fn initial_value_written_and_read() {
        // d_I = 0 is also written; reads of 0 can be served either way.
        let t = TraceBuilder::new()
            .proc([Op::w(0u64)])
            .proc([Op::w(1u64)])
            .proc([Op::r(0u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve_one_op(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn agrees_with_exact_on_random_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(3000 + seed);
            let n = rng.gen_range(1..=6);
            let mut b = TraceBuilder::new();
            for _ in 0..n {
                let v = rng.gen_range(0..3u64);
                b = b.proc([if rng.gen_bool(0.5) {
                    Op::w(v)
                } else {
                    Op::r(v)
                }]);
            }
            let mut t = b.build();
            if rng.gen_bool(0.3) {
                t.set_final(0u32, rng.gen_range(0..3u64));
            }
            let fast = solve_one_op(&t, Addr::ZERO);
            let ops = AddrOps::of(&t, Addr::ZERO);
            let (exact, _) = solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
            assert_eq!(
                fast.is_coherent(),
                exact.is_coherent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }
}
