//! VMC with a known read-map (Figure 5.3 row "1 Write/Value"): linear-time
//! verification for simple reads/writes when every data value is written at
//! most once, so each read is bound to its unique writer.
//!
//! Every write forms a *block* together with the reads of its value; reads
//! of the (never-rewritten) initial value form a virtual first block. A
//! coherent schedule exists iff the block precedence graph induced by
//! program order is acyclic, because within a block the write simply comes
//! first and reads never change memory state.

use crate::backtrack::precheck_ops;
use crate::verdict::{Verdict, Violation, ViolationKind};
use vermem_trace::{AddrOps, Op, OpRef, Schedule};
use vermem_util::csr::Csr;

/// True if the read-map fast path applies to the instance: simple
/// reads/writes only, every value written at most once, and no write
/// re-installs the initial value (which would make read binding ambiguous).
/// Decided in O(values) from the entry's cached structure.
pub fn applicable_ops(ops: &AddrOps) -> bool {
    !ops.has_rmw() && ops.max_writes_per_value() <= 1 && ops.writes_of(0) == 0
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

    // Flatten the per-address operations (proc-major, program order, so
    // in ascending `OpRef` order). Block 0 is the virtual initial block.
    // Every value is written at most once and d_I never, so the b-th write
    // of the flat order writes value id b (written values are numbered in
    // first-occurrence order): block b ≥ 1 is that write's block, and a
    // read joins the block of its value id.
    let mut ops: Vec<(OpRef, Op)> = Vec::with_capacity(indexed.num_ops());
    ops.extend(indexed.iter());
    let nblocks = indexed.memory_ids() as usize;
    // Flat index of each block's write; block 0 has none.
    let mut write_of_block: Vec<u32> = vec![u32::MAX; nblocks];

    // Each op's block, bound once. A read of a value nobody writes, or a
    // final value nobody produces, is exactly what the static precheck
    // reports, so the precheck runs only to name it.
    let precheck_violation =
        || Verdict::Incoherent(precheck_ops(indexed).expect("an op has no producible value"));
    let mut block: Vec<u32> = Vec::with_capacity(ops.len());
    for (i, ids) in indexed.ids().iter().enumerate() {
        let b = match (ids.write(), ids.read()) {
            (Some(w), _) => {
                write_of_block[w as usize] = i as u32;
                w
            }
            (None, Some(v)) if (v as usize) < nblocks => v,
            _ => return precheck_violation(),
        };
        block.push(b);
    }
    let final_block = match indexed.final_id() {
        None => None,
        // Applicability excludes rewrites of d_I, so a final d_I is
        // producible only when nothing is written; block 0 is then last.
        Some(f) if (f as usize) < nblocks && (f > 0 || nblocks == 1) => Some(f as usize),
        Some(_) => return precheck_violation(),
    };

    // A read program-order-before its own writer is a same-block cycle.
    for (i, &(r, op)) in ops.iter().enumerate() {
        let b = block[i] as usize;
        if op.is_writing() || b == 0 {
            continue;
        }
        let w = ops[write_of_block[b] as usize].0;
        if w.proc == r.proc && r.index < w.index {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::PrecedenceCycle { cycle: vec![r, w] },
            });
        }
    }

    // Block precedence edges, as CSR: block 0 before every other block
    // (initial reads precede the first write), then one edge per pair of
    // consecutive same-process operations in different blocks.
    let po_edges = (1..ops.len())
        .filter(|&i| ops[i - 1].0.proc == ops[i].0.proc && block[i - 1] != block[i])
        .map(|i| (block[i - 1], block[i]));
    let succ = Csr::new(nblocks, (1..nblocks as u32).map(|b| (0, b)).chain(po_edges));
    let succs_of = |b: usize| succ.row(b as u32);
    let mut indeg = vec![0u32; nblocks];
    for &b in succ.items() {
        indeg[b as usize] += 1;
    }

    // Final value: its block must carry no outgoing edges so it can be last.
    if let Some(fb) = final_block {
        if !succs_of(fb).is_empty() {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::FinalValueUnwritable {
                    value: indexed.final_value().expect("checked"),
                },
            });
        }
    }

    // Kahn's algorithm; if a final block is required, emit it last.
    let mut queue: Vec<usize> = Vec::with_capacity(nblocks);
    queue.extend((0..nblocks).filter(|&b| indeg[b] == 0 && Some(b) != final_block));
    let mut order: Vec<usize> = Vec::with_capacity(nblocks);
    while let Some(b) = queue.pop() {
        order.push(b);
        for &next in succs_of(b) {
            let next = next as usize;
            indeg[next] -= 1;
            if indeg[next] == 0 && Some(next) != final_block {
                queue.push(next);
            }
        }
    }
    if let Some(fb) = final_block {
        // fb's in-degree must have been fully satisfied.
        if indeg[fb] == 0 {
            order.push(fb);
        }
    }
    if order.len() != nblocks {
        let mut placed = vec![false; nblocks];
        for &b in &order {
            placed[b] = true;
        }
        let cycle: Vec<OpRef> = (1..nblocks)
            .filter(|&b| !placed[b])
            .map(|b| ops[write_of_block[b] as usize].0)
            .collect();
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::PrecedenceCycle { cycle },
        });
    }

    // Emit the schedule: per block, the write then its reads in (proc,
    // program-order) order, which is the flat order the buckets keep.
    let block_reads = (0..ops.len() as u32)
        .filter(|&i| !ops[i as usize].1.is_writing())
        .map(|i| (block[i as usize], i));
    let reads = Csr::new(nblocks, block_reads);
    let mut refs: Vec<OpRef> = Vec::with_capacity(ops.len());
    for &b in &order {
        if b != 0 {
            refs.push(ops[write_of_block[b] as usize].0);
        }
        refs.extend(reads.row(b as u32).iter().map(|&i| ops[i as usize].0));
    }
    Verdict::Coherent(Schedule::from_refs(refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{solve_backtracking_ops_with_stats, SearchConfig};
    use vermem_trace::{check_coherent_schedule, Addr, Trace, TraceBuilder};

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
