//! VMC with one simple operation per process (Figure 5.3 row
//! "1 Operation/Process", simple column).
//!
//! With singleton histories there are no program-order constraints at all,
//! so after the static prechecks (every read value written or initial; the
//! final value producible) a coherent schedule can always be *constructed*:
//! reads of `d_I` first, then the writes grouped by value with each group's
//! reads immediately after it, the `d_F` group last. The paper lists
//! O(n lg n); grouping with hashing gives O(n).

use crate::backtrack::precheck_ops;
use crate::verdict::Verdict;
use std::collections::HashMap;
use vermem_trace::{AddrOps, OpRef, Schedule, Value};

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
    let initial = indexed.initial();
    let final_value = indexed.final_value();

    let mut initial_reads: Vec<OpRef> = Vec::new();
    let mut writes_by_value: HashMap<Value, Vec<OpRef>> = HashMap::new();
    let mut reads_by_value: HashMap<Value, Vec<OpRef>> = HashMap::new();
    for (r, op) in indexed.iter() {
        if let Some(v) = op.written_value() {
            writes_by_value.entry(v).or_default().push(r);
        } else {
            let v = op.read_value().expect("simple read");
            if v == initial && !writes_by_value.contains_key(&v) {
                // Tentative: may be re-bucketed below if v gets written.
                initial_reads.push(r);
            } else {
                reads_by_value.entry(v).or_default().push(r);
            }
        }
    }
    // Reads of d_I noted before a write of d_I appeared are still fine up
    // front; but reads of a written d_I collected in reads_by_value need a
    // group. Both placements are valid; only the grouping below matters.
    // Re-bucket initial reads if d_I is written and d_F == d_I is required:
    // keeping them up front is always valid, so no action needed.

    let mut values: Vec<Value> = writes_by_value.keys().copied().collect();
    values.sort_unstable();
    // The final value's group must come last.
    if let Some(f) = final_value {
        if let Some(pos) = values.iter().position(|&v| v == f) {
            let v = values.remove(pos);
            values.push(v);
        }
        // If f == initial and nothing writes it, precheck guaranteed there
        // are no writes at all; `values` is empty and the schedule is reads
        // only.
    }

    let mut refs: Vec<OpRef> = Vec::new();
    refs.extend(initial_reads);
    for &v in &values {
        refs.extend(writes_by_value[&v].iter().copied());
        if let Some(reads) = reads_by_value.get(&v) {
            refs.extend(reads.iter().copied());
        }
    }
    // Reads of values that are never written can only be reads of d_I that
    // were bucketed into reads_by_value because d_I is also written: they
    // are served by the d_I write group, handled above. Any other unwritten
    // value was rejected by precheck.
    for (&v, reads) in &reads_by_value {
        if !writes_by_value.contains_key(&v) {
            debug_assert!(v == initial);
            // d_I never written (else covered above): serve up front.
            let mut all = reads.clone();
            all.extend(refs.iter().copied());
            refs = all;
        }
    }

    Verdict::Coherent(Schedule::from_refs(refs))
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
