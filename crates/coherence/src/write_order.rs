//! VMC with the write order supplied (§5.2): polynomial verification for
//! memory systems augmented to report the order in which writes executed.
//!
//! Given the total order of the write operations, the paper's algorithm
//! seeds the schedule with that order and inserts each read into its
//! feasible window behind a write of the matching value — O(n²) overall.
//! When every operation is a read-modify-write the write order is already a
//! total order of all operations, and a single O(n) scan checks that each
//! read component returns the preceding write component.

use crate::backtrack::precheck_ops;
use crate::verdict::{Verdict, Violation, ViolationKind};
use std::collections::HashMap;
use vermem_trace::{check_coherent_schedule_ops, Addr, AddrOps, OpRef, Schedule, Trace, Value};

/// Decide coherence at `addr` given the order in which the write-capable
/// operations (writes and RMWs) executed. Runs in O(n²); O(n) when every
/// operation is an RMW.
///
/// `write_order` must list exactly the write-capable operations of `trace`
/// at `addr`; an order that omits writes, repeats them, or contradicts
/// program order yields [`ViolationKind::InvalidWriteOrder`].
pub fn solve_with_write_order(trace: &Trace, addr: Addr, write_order: &[OpRef]) -> Verdict {
    let instance = AddrOps::of(trace, addr);
    // Validate coverage: exactly the write-capable ops at this address.
    let mut expected: Vec<OpRef> = instance
        .iter()
        .filter(|(_, op)| op.is_writing())
        .map(|(r, _)| r)
        .collect();
    let mut given: Vec<OpRef> = write_order.to_vec();
    expected.sort_unstable();
    given.sort_unstable();
    if expected != given {
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::InvalidWriteOrder {
                detail: format!(
                    "order lists {} operations, trace has {} write-capable operations \
                     at this address (or the sets differ)",
                    write_order.len(),
                    expected.len()
                ),
            },
        });
    }
    // Validate program order within each process.
    let mut last_index: HashMap<u16, u32> = HashMap::new();
    for &r in write_order {
        if let Some(&prev) = last_index.get(&r.proc.0) {
            if r.index <= prev {
                return Verdict::Incoherent(Violation {
                    addr,
                    kind: ViolationKind::InvalidWriteOrder {
                        detail: format!(
                            "{:?} ordered after {:?} against program order",
                            OpRef {
                                proc: r.proc,
                                index: prev
                            },
                            r
                        ),
                    },
                });
            }
        }
        last_index.insert(r.proc.0, r.index);
    }

    if let Some(v) = precheck_ops(&instance) {
        return Verdict::Incoherent(v);
    }

    let m = write_order.len();
    let initial = instance.initial();

    // value_at_slot[i]: memory value after the first i writes.
    let mut value_at_slot: Vec<Value> = Vec::with_capacity(m + 1);
    value_at_slot.push(initial);
    for &w in write_order {
        let op = trace.op(w).expect("validated");
        value_at_slot.push(op.written_value().expect("write-capable"));
    }

    // RMW read components must observe the value at their own slot.
    // position_of[write ref] = index in write_order.
    let mut position_of: HashMap<OpRef, usize> = HashMap::with_capacity(m);
    for (j, &w) in write_order.iter().enumerate() {
        position_of.insert(w, j);
    }
    for (j, &w) in write_order.iter().enumerate() {
        let op = trace.op(w).expect("validated");
        if let Some(need) = op.read_value() {
            if value_at_slot[j] != need {
                return Verdict::Incoherent(Violation {
                    addr,
                    kind: ViolationKind::UnplaceableRead {
                        read: w,
                        value: need,
                    },
                });
            }
        }
    }

    // Final value: the last write must install it.
    if let Some(f) = instance.final_value() {
        if value_at_slot[m] != f {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::FinalValueUnwritable { value: f },
            });
        }
    }

    // Place pure reads greedily at the earliest feasible slot. reads at
    // slot i are scheduled after the first i writes (before write i).
    let mut reads_at_slot: Vec<Vec<OpRef>> = vec![Vec::new(); m + 1];
    for ops in instance.per_proc() {
        let mut min_slot = 0usize;
        for (k, &(r, op)) in ops.iter().enumerate() {
            if op.is_writing() {
                // Slot just after this write; the write's own position is
                // consistent with earlier placements by construction (min
                // slot never exceeds the next write's position, checked in
                // the read branch below).
                let j = position_of[&r];
                if min_slot > j {
                    return Verdict::Incoherent(Violation {
                        addr,
                        kind: ViolationKind::InvalidWriteOrder {
                            detail: format!(
                                "write {r:?} is ordered before a program-order \
                                 predecessor's required position"
                            ),
                        },
                    });
                }
                min_slot = j + 1;
            } else {
                let need = op.read_value().expect("pure read");
                // Feasible window: [min_slot, max_slot], where max_slot is
                // the position of the next write-capable op of this process.
                let max_slot = ops[k + 1..]
                    .iter()
                    .find(|(_, o)| o.is_writing())
                    .map(|(w, _)| position_of[w])
                    .unwrap_or(m);
                let mut placed = None;
                for (i, &val) in value_at_slot
                    .iter()
                    .enumerate()
                    .take(max_slot + 1)
                    .skip(min_slot)
                {
                    if val == need {
                        placed = Some(i);
                        break;
                    }
                }
                match placed {
                    Some(i) => {
                        reads_at_slot[i].push(r);
                        min_slot = i;
                    }
                    None => {
                        return Verdict::Incoherent(Violation {
                            addr,
                            kind: ViolationKind::UnplaceableRead {
                                read: r,
                                value: need,
                            },
                        });
                    }
                }
            }
        }
    }

    // Assemble the witness schedule.
    let mut refs: Vec<OpRef> = Vec::with_capacity(instance.num_ops());
    for i in 0..=m {
        refs.extend_from_slice(&reads_at_slot[i]);
        if i < m {
            refs.push(write_order[i]);
        }
    }
    let witness = Schedule::from_refs(refs);
    debug_assert!(
        check_coherent_schedule_ops(&instance, &witness).is_ok(),
        "write-order solver produced invalid witness"
    );
    Verdict::Coherent(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{solve_backtracking, SearchConfig};
    use vermem_trace::{check_coherent_schedule, Op, TraceBuilder};

    fn refs(pairs: &[(u16, u32)]) -> Vec<OpRef> {
        pairs.iter().map(|&(p, i)| OpRef::new(p, i)).collect()
    }

    #[test]
    fn simple_coherent_with_order() {
        // P0: W(1) R(2); P1: W(2). Order W(1) then W(2).
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64)])
            .build();
        let v = solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 0), (1, 0)]));
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn wrong_order_detected() {
        // Same trace, but order W(2) then W(1): R(2) can't be placed (it
        // must follow P0's W(1), after which the value is 1 forever).
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64)])
            .build();
        let v = solve_with_write_order(&t, Addr::ZERO, &refs(&[(1, 0), (0, 0)]));
        assert!(matches!(
            v.violation().unwrap().kind,
            ViolationKind::UnplaceableRead { .. }
        ));
    }

    #[test]
    fn order_violating_program_order_rejected() {
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::w(2u64)]).build();
        let v = solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 1), (0, 0)]));
        assert!(matches!(
            v.violation().unwrap().kind,
            ViolationKind::InvalidWriteOrder { .. }
        ));
    }

    #[test]
    fn incomplete_order_rejected() {
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::w(2u64)]).build();
        let v = solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 0)]));
        assert!(matches!(
            v.violation().unwrap().kind,
            ViolationKind::InvalidWriteOrder { .. }
        ));
    }

    #[test]
    fn all_rmw_chain_accepted_and_broken_chain_rejected() {
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(1u64, 2u64)])
            .build();
        let ok = solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 0), (1, 0)]));
        assert!(ok.is_coherent());
        let bad = solve_with_write_order(&t, Addr::ZERO, &refs(&[(1, 0), (0, 0)]));
        assert!(bad.is_incoherent());
    }

    #[test]
    fn final_value_checked_against_last_write() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 2u64)
            .build();
        assert!(solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 0), (1, 0)])).is_coherent());
        assert!(solve_with_write_order(&t, Addr::ZERO, &refs(&[(1, 0), (0, 0)])).is_incoherent());
    }

    #[test]
    fn read_before_any_write_uses_initial() {
        let t = TraceBuilder::new()
            .proc([Op::r(0u64), Op::w(1u64), Op::r(1u64)])
            .build();
        let v = solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 1)]));
        assert!(v.is_coherent());
    }

    #[test]
    fn agrees_with_exact_solver_using_witness_write_order() {
        // For generated coherent traces, extracting the write order from the
        // exact solver's witness must re-verify via the fast path.
        for seed in 0..15 {
            let (t, _) = vermem_trace::gen::gen_hard_coherent(4, 6, 2, seed);
            let exact = solve_backtracking(&t, Addr::ZERO, &SearchConfig::default());
            let witness = exact.schedule().expect("generated coherent");
            let worder: Vec<OpRef> = witness
                .refs()
                .iter()
                .copied()
                .filter(|&r| t.op(r).unwrap().is_writing())
                .collect();
            let fast = solve_with_write_order(&t, Addr::ZERO, &worder);
            assert!(fast.is_coherent(), "seed {seed}");
        }
    }

    #[test]
    fn greedy_placement_handles_shared_slots() {
        // Two reads of the same process in one slot, program order kept.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64), Op::r(1u64)])
            .build();
        let v = solve_with_write_order(&t, Addr::ZERO, &refs(&[(0, 0)]));
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }
}
