//! VMC with a known read-map (Figure 5.3 row "1 Write/Value"): linear-time
//! verification for simple reads/writes when every data value is written at
//! most once, so each read is bound to its unique writer.
//!
//! Every write forms a *block* together with the reads of its value; reads
//! of the (never-rewritten) initial value form a virtual first block. A
//! coherent schedule exists iff the block precedence graph induced by
//! program order is acyclic, because within a block the write simply comes
//! first and reads never change memory state.
//!
//! The entry's value ids are the blocks (block 0 is `d_I`, block `b ≥ 1`
//! the value its one write writes), so the solver reads only
//! [`AddrOps::ids`], the process boundaries and, for the schedule and the
//! violations, the refs. It builds no graph; four passes decide:
//!
//! 1. **Bind.** One pass over the ops gives each op its block, records
//!    each block's write, counts each block's members and program-order
//!    in-degree (one per pair of consecutive same-process ops in different
//!    blocks, plus one from block 0 for every other block), and catches a
//!    read that precedes its own block's write in the same process.
//! 2. **Offsets.** A prefix sum over the member counts.
//! 3. **Group.** A counting sort places each op, with the block of its
//!    program-order successor, in its block's member range, in flat
//!    (process-major, program) order.
//! 4. **Order.** Kahn's algorithm on the blocks, with a LIFO stack. A
//!    popped block is emitted (its write, then its reads in flat order)
//!    and releases its members' successors in member order; block 0 first
//!    releases blocks `1..nb` in ascending order. A block holding `d_F`
//!    is never pushed: it goes last, once everything before it is placed.
//!
//! The release rule fixes the witness: it is the order in which the
//! block graph's edges, grouped by source and listed in flat order, would
//! be walked, so each instance has one schedule.

use crate::backtrack::precheck_ops;
use crate::verdict::{Verdict, Violation, ViolationKind};
use vermem_trace::{AddrOps, OpIds, OpRef, Schedule};

/// True if the read-map fast path applies to the instance: simple
/// reads/writes only, every value written at most once, and no write
/// re-installs the initial value (which would make read binding ambiguous).
/// Decided in O(values) from the entry's cached structure.
pub fn applicable_ops(ops: &AddrOps) -> bool {
    !ops.has_rmw() && ops.max_writes_per_value() <= 1 && ops.writes_of(0) == 0
}

/// Marks an op whose program-order successor is in its own block, or
/// which has none.
const NO_SUCCESSOR: u32 = u32::MAX;

/// An op's block: the value it writes, else the value it reads.
#[inline]
fn block_of(ids: OpIds) -> Option<u32> {
    ids.write().or(ids.read())
}

/// Decide coherence of the instance assuming [`applicable_ops`].
/// O(n + blocks), hashing nothing: the entry's value ids are the blocks.
///
/// # Panics
/// Debug-asserts applicability; behaviour is unspecified otherwise.
pub fn solve_readmap_ops(indexed: &AddrOps) -> Verdict {
    debug_assert!(
        applicable_ops(indexed),
        "read-map fast path preconditions violated"
    );
    let addr = indexed.addr();
    let ids = indexed.ids();
    let per_proc = indexed.per_proc();
    let nblocks = indexed.memory_ids() as usize;

    // A read of a value nobody writes, or a final value nobody produces,
    // is exactly what the static precheck reports, so the precheck runs
    // only to name it.
    let precheck_violation =
        || Verdict::Incoherent(precheck_ops(indexed).expect("an op has no producible value"));
    let final_block = match indexed.final_id() {
        None => u32::MAX,
        // Applicability excludes rewrites of d_I, so a final d_I is
        // producible only when nothing is written; block 0 is then last.
        Some(f) if (f as usize) < nblocks && (f > 0 || nblocks == 1) => f,
        Some(_) => return precheck_violation(),
    };

    // Pass 1: bind. Every value is written at most once and d_I never,
    // so a write's value id is its block, and a read joins the block of
    // its value id. `first_read[b]` is one past the flat index of the
    // first read of block b in the current process, or at most the
    // process's start when it has none there yet.
    let mut write_at: Vec<OpRef> = vec![OpRef::new(0u16, 0); nblocks];
    let mut count: Vec<u32> = vec![0; nblocks + 1];
    let mut indeg: Vec<u32> = vec![1; nblocks];
    indeg[0] = 0;
    let mut first_read: Vec<u32> = vec![0; nblocks];
    // The first read, in flat order, program-order-before its own writer.
    let mut self_cycle: Option<(u32, OpRef, OpRef)> = None;
    let mut final_has_successor = false;
    let mut start = 0u32;
    for list in per_proc {
        let mut prev = NO_SUCCESSOR;
        for (j, (&op_ids, &(r, _))) in ids[start as usize..].iter().zip(list).enumerate() {
            let i = start + j as u32;
            let b = match (op_ids.write(), op_ids.read()) {
                (Some(w), _) => {
                    write_at[w as usize] = r;
                    let read = first_read[w as usize];
                    if read > start && self_cycle.is_none_or(|(k, ..)| read - 1 < k) {
                        let reader = list[(read - 1 - start) as usize].0;
                        self_cycle = Some((read - 1, reader, r));
                    }
                    w
                }
                (None, Some(v)) if (v as usize) < nblocks => {
                    if first_read[v as usize] <= start {
                        first_read[v as usize] = i + 1;
                    }
                    v
                }
                _ => return precheck_violation(),
            };
            count[b as usize] += 1;
            if prev != NO_SUCCESSOR && prev != b {
                indeg[b as usize] += 1;
                final_has_successor |= prev == final_block;
            }
            prev = b;
        }
        start += list.len() as u32;
    }
    if let Some((_, r, w)) = self_cycle {
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::PrecedenceCycle { cycle: vec![r, w] },
        });
    }
    // Final value: its block must have no successor so it can be last.
    if final_has_successor {
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::FinalValueUnwritable {
                value: indexed.final_value().expect("checked"),
            },
        });
    }

    // Pass 2: offsets. `count[b]` becomes the start of block b's range.
    let mut sum = 0;
    for c in &mut count {
        (*c, sum) = (sum, sum + *c);
    }

    // Pass 3: group. Each op lands at its block's cursor with its
    // successor's block; the cursors end one block ahead.
    let mut members: Vec<(OpRef, u32)> = vec![(OpRef::new(0u16, 0), 0); ids.len()];
    let mut start = 0;
    for list in per_proc {
        let proc_ids = &ids[start..start + list.len()];
        for (j, &(r, _)) in list.iter().enumerate() {
            let b = block_of(proc_ids[j]).expect("bound in pass 1");
            let next = proc_ids
                .get(j + 1)
                .and_then(|&n| block_of(n))
                .filter(|&n| n != b)
                .unwrap_or(NO_SUCCESSOR);
            let slot = &mut count[b as usize];
            members[*slot as usize] = (r, next);
            *slot += 1;
        }
        start += list.len();
    }
    count.copy_within(..nblocks, 1);
    count[0] = 0;

    // Pass 4: order. Only block 0 can start at in-degree 0: every other
    // block waits for it.
    let mut stack: Vec<u32> = Vec::with_capacity(nblocks);
    if indeg[0] == 0 && final_block != 0 {
        stack.push(0);
    }
    let mut refs: Vec<OpRef> = Vec::with_capacity(ids.len());
    let mut placed = 0;
    // The final block goes last, once its in-degree is satisfied.
    let mut last = ((final_block as usize) < nblocks).then_some(final_block);
    let release = |b: u32, indeg: &mut [u32], stack: &mut Vec<u32>| {
        indeg[b as usize] -= 1;
        if indeg[b as usize] == 0 && b != final_block {
            stack.push(b);
        }
    };
    while let Some(b) = stack
        .pop()
        .or_else(|| last.take().filter(|&f| indeg[f as usize] == 0))
    {
        placed += 1;
        if b == 0 {
            for c in 1..nblocks as u32 {
                release(c, &mut indeg, &mut stack);
            }
        }
        let write = (b != 0).then(|| write_at[b as usize]);
        refs.extend(write);
        let range = count[b as usize] as usize..count[b as usize + 1] as usize;
        for &(r, next) in &members[range] {
            if Some(r) != write {
                refs.push(r);
            }
            if next != NO_SUCCESSOR {
                release(next, &mut indeg, &mut stack);
            }
        }
    }
    if placed != nblocks {
        let cycle: Vec<OpRef> = (1..nblocks)
            .filter(|&b| indeg[b] > 0)
            .map(|b| write_at[b])
            .collect();
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::PrecedenceCycle { cycle },
        });
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

    fn solve_readmap(t: &Trace, addr: Addr) -> Verdict {
        let verdict = solve_readmap_ops(&AddrOps::of(t, addr));
        if let Some(witness) = verdict.schedule() {
            check_coherent_schedule(t, addr, witness).unwrap();
        }
        verdict
    }

    #[test]
    fn applicability() {
        let ok = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64)])
            .build();
        assert!(applicable(&ok, Addr::ZERO));
        let dup = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(1u64)])
            .build();
        assert!(!applicable(&dup, Addr::ZERO));
        let rmw = TraceBuilder::new().proc([Op::rw(0u64, 1u64)]).build();
        assert!(!applicable(&rmw, Addr::ZERO));
        let rewrites_initial = TraceBuilder::new().proc([Op::w(0u64)]).build();
        assert!(!applicable(&rewrites_initial, Addr::ZERO));
    }

    #[test]
    fn coherent_chain() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        // Blocks {W1,R1-reads}, {W2,...}: P0 needs B1<B2, P1 needs B2<B1 →
        // cycle → incoherent. (Matches exact solver.)
        let v = solve_readmap(&t, Addr::ZERO);
        assert!(matches!(
            v.violation().unwrap().kind,
            ViolationKind::PrecedenceCycle { .. }
        ));
        let ops = AddrOps::of(&t, Addr::ZERO);
        let (exact, _) = solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
        assert!(exact.is_incoherent());
    }

    #[test]
    fn coherent_case_with_witness() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .proc([Op::r(1u64), Op::r(2u64)])
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn read_before_own_writer_incoherent() {
        let t = TraceBuilder::new().proc([Op::r(1u64), Op::w(1u64)]).build();
        let v = solve_readmap(&t, Addr::ZERO);
        assert!(matches!(
            v.violation().unwrap().kind,
            ViolationKind::PrecedenceCycle { .. }
        ));
    }

    #[test]
    fn initial_reads_precede_writes() {
        let t = TraceBuilder::new()
            .proc([Op::w(5u64)])
            .proc([Op::r(0u64), Op::r(5u64)])
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn initial_read_after_write_program_order_incoherent() {
        // P0: W(5) then R(0): the initial-read must precede all writes but
        // follows one in program order.
        let t = TraceBuilder::new().proc([Op::w(5u64), Op::r(0u64)]).build();
        assert!(solve_readmap(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn final_value_placement() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn final_value_with_outgoing_constraint_incoherent() {
        // P0: W(1) then W(2): final must be 1, but W(1) precedes W(2) in
        // program order → W(1)'s block can't be last.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        assert!(solve_readmap(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn agrees_with_exact_on_random_unique_write_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let procs = rng.gen_range(1..=4);
            let mut next_val = 1u64;
            let mut written: Vec<u64> = Vec::new();
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            let v = next_val;
                            next_val += 1;
                            written.push(v);
                            Op::w(v)
                        } else if !written.is_empty() && rng.gen_bool(0.8) {
                            Op::r(written[rng.gen_range(0..written.len())])
                        } else {
                            Op::r(0u64)
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let ops = AddrOps::of(&t, Addr::ZERO);
            if !applicable_ops(&ops) {
                continue;
            }
            let fast = solve_readmap(&t, Addr::ZERO);
            let (exact, _) = solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
            assert_eq!(
                fast.is_coherent(),
                exact.is_coherent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }
}
