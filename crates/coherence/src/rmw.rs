//! Fast paths for all-RMW instances.
//!
//! In a coherent schedule of read-modify-writes, every operation's read
//! component must return the previous operation's write component (the
//! schedule is a *chain* through value space):
//!
//! * **One RMW per process** (Figure 5.3 row "1 Operation/Process", RMW
//!   column): there are no program-order constraints, so the question is
//!   exactly whether the multigraph with an edge `d_r → d_w` per operation
//!   has an Eulerian path starting at `d_I` (and ending at `d_F` if one is
//!   required). The paper lists O(n²); Hierholzer's algorithm gives O(n).
//! * **Read-map known** (values written at most once, nothing rewrites
//!   `d_I`): the chain is *forced* — from `d_I`, each step has exactly one
//!   candidate continuation — so a single O(n) scan that also checks
//!   program order decides the instance.

use crate::backtrack::precheck_ops;
use crate::verdict::{Verdict, Violation, ViolationKind};
use std::collections::HashMap;
use vermem_trace::{AddrOps, OpRef, Schedule, Value};

/// True if every operation of the instance is an RMW and each process
/// issues at most one of them, from the entry's cached structure.
pub fn one_op_applicable_ops(ops: &AddrOps) -> bool {
    ops.all_rmw() && ops.max_ops_per_proc() <= 1
}

/// True if every operation of the instance is an RMW, every value is
/// written at most once, and no operation re-installs the initial value,
/// from the entry's cached structure.
pub fn readmap_applicable_ops(ops: &AddrOps) -> bool {
    ops.all_rmw() && ops.max_writes_per_value() <= 1 && ops.writes_of(ops.initial()) == 0
}

/// Eulerian-path decision for single-RMW-per-process instances. O(n).
pub fn solve_rmw_one_op_ops(indexed: &AddrOps) -> Verdict {
    debug_assert!(one_op_applicable_ops(indexed));
    let addr = indexed.addr();
    if let Some(v) = precheck_ops(indexed) {
        return Verdict::Incoherent(v);
    }
    let ops: Vec<(OpRef, vermem_trace::Op)> = indexed.iter().collect();
    if ops.is_empty() {
        return match indexed.final_value() {
            Some(f) if f != indexed.initial() => Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::FinalValueUnwritable { value: f },
            }),
            _ => Verdict::Coherent(Schedule::new()),
        };
    }
    let initial = indexed.initial();

    // Out-edges per value: indices of unused ops reading that value.
    let mut out: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, (_, op)) in ops.iter().enumerate() {
        out.entry(op.read_value().expect("rmw"))
            .or_default()
            .push(i);
    }

    // Hierholzer from d_I: walk greedily, splicing detours.
    let mut stack: Vec<Value> = vec![initial];
    let mut path_ops: Vec<usize> = Vec::with_capacity(ops.len());
    let mut walk_ops: Vec<usize> = Vec::new(); // op taken to reach stack[i+1]
    while let Some(&v) = stack.last() {
        if let Some(next) = out.get_mut(&v).and_then(|es| es.pop()) {
            walk_ops.push(next);
            stack.push(ops[next].1.written_value().expect("rmw"));
        } else {
            stack.pop();
            if let Some(op) = walk_ops.pop() {
                path_ops.push(op);
            }
        }
    }
    path_ops.reverse();

    if path_ops.len() != ops.len() {
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::BrokenRmwChain {
                detail: format!(
                    "only {} of {} operations reachable in a chain from the initial value",
                    path_ops.len(),
                    ops.len()
                ),
            },
        });
    }
    // Validate chain continuity (Hierholzer may produce a valid Eulerian
    // path only if one exists; re-check linkage defensively).
    let mut current = initial;
    for &i in &path_ops {
        if ops[i].1.read_value() != Some(current) {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::BrokenRmwChain {
                    detail: "edges do not form a single chain from the initial value".into(),
                },
            });
        }
        current = ops[i].1.written_value().expect("rmw");
    }
    if let Some(f) = indexed.final_value() {
        if current != f {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::FinalValueUnwritable { value: f },
            });
        }
    }
    Verdict::Coherent(Schedule::from_refs(path_ops.iter().map(|&i| ops[i].0)))
}

/// Forced-chain decision for all-RMW instances with a known read-map. O(n).
pub fn solve_rmw_readmap_ops(indexed: &AddrOps) -> Verdict {
    debug_assert!(readmap_applicable_ops(indexed));
    let addr = indexed.addr();
    if let Some(v) = precheck_ops(indexed) {
        return Verdict::Incoherent(v);
    }
    let ops: Vec<(OpRef, vermem_trace::Op)> = indexed.iter().collect();
    let initial = indexed.initial();

    // Each value is written at most once and d_I never rewritten, so at most
    // one reader per value is serviceable; a second reader is immediately
    // incoherent.
    let mut reader_of: HashMap<Value, usize> = HashMap::new();
    for (i, (_, op)) in ops.iter().enumerate() {
        let r = op.read_value().expect("rmw");
        if reader_of.insert(r, i).is_some() {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::BrokenRmwChain {
                    detail: format!("two RMWs read {r:?}, which is available only once"),
                },
            });
        }
    }

    // Follow the forced chain, checking program order as we go. Values along
    // the chain are pairwise distinct (each written once, d_I never
    // rewritten), so no operation can be revisited; the `used` guard is
    // defensive.
    let mut chain: Vec<usize> = Vec::with_capacity(ops.len());
    let mut used = vec![false; ops.len()];
    let mut last_index: HashMap<u16, u32> = HashMap::new();
    let mut current = initial;
    while let Some(&i) = reader_of.get(&current) {
        let (r, op) = ops[i];
        if used[i] {
            break; // value cycle returned to a consumed op
        }
        used[i] = true;
        if let Some(&prev) = last_index.get(&r.proc.0) {
            if r.index <= prev {
                return Verdict::Incoherent(Violation {
                    addr,
                    kind: ViolationKind::BrokenRmwChain {
                        detail: format!("forced chain violates program order at {r:?}"),
                    },
                });
            }
        }
        last_index.insert(r.proc.0, r.index);
        chain.push(i);
        current = op.written_value().expect("rmw");
    }
    if chain.len() != ops.len() {
        return Verdict::Incoherent(Violation {
            addr,
            kind: ViolationKind::BrokenRmwChain {
                detail: format!(
                    "forced chain covers {} of {} operations",
                    chain.len(),
                    ops.len()
                ),
            },
        });
    }
    if let Some(f) = indexed.final_value() {
        if current != f {
            return Verdict::Incoherent(Violation {
                addr,
                kind: ViolationKind::FinalValueUnwritable { value: f },
            });
        }
    }
    Verdict::Coherent(Schedule::from_refs(chain.iter().map(|&i| ops[i].0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{solve_backtracking, SearchConfig};
    use vermem_trace::{check_coherent_schedule, Addr, Op, Trace, TraceBuilder};

    fn one_op_applicable(t: &Trace, addr: Addr) -> bool {
        one_op_applicable_ops(&AddrOps::of(t, addr))
    }

    fn readmap_applicable(t: &Trace, addr: Addr) -> bool {
        readmap_applicable_ops(&AddrOps::of(t, addr))
    }

    /// Run a fast path on the address's entry and check its witness.
    fn checked(t: &Trace, addr: Addr, solve: fn(&AddrOps) -> Verdict) -> Verdict {
        let verdict = solve(&AddrOps::of(t, addr));
        if let Some(witness) = verdict.schedule() {
            check_coherent_schedule(t, addr, witness).unwrap();
        }
        verdict
    }

    fn solve_rmw_one_op(t: &Trace, addr: Addr) -> Verdict {
        checked(t, addr, solve_rmw_one_op_ops)
    }

    fn solve_rmw_readmap(t: &Trace, addr: Addr) -> Verdict {
        checked(t, addr, solve_rmw_readmap_ops)
    }

    #[test]
    fn one_op_applicability() {
        let ok = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([])
            .build();
        assert!(one_op_applicable(&ok, Addr::ZERO));
        let two = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(1u64, 2u64)])
            .build();
        assert!(!one_op_applicable(&two, Addr::ZERO));
        let simple = TraceBuilder::new().proc([Op::w(1u64)]).build();
        assert!(!one_op_applicable(&simple, Addr::ZERO));
    }

    #[test]
    fn eulerian_chain_found() {
        // 0->1, 1->2, 2->0, 0->3: path 0→1→2→0→3.
        let t = TraceBuilder::new()
            .proc([Op::rw(2u64, 0u64)])
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(0u64, 3u64)])
            .proc([Op::rw(1u64, 2u64)])
            .build();
        let v = solve_rmw_one_op(&t, Addr::ZERO);
        let s = v.schedule().expect("eulerian path exists");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn no_eulerian_path_detected() {
        // Two ops both reading 0 with nothing restoring 0.
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(0u64, 2u64)])
            .build();
        assert!(solve_rmw_one_op(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn disconnected_component_detected() {
        // 0->1 plus 5->6: 5 never reachable (5 unreadable caught by precheck
        // since 5 is never written and != d_I).
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(5u64, 6u64)])
            .build();
        assert!(solve_rmw_one_op(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn disconnected_cycle_detected() {
        // 0->1 plus a separate cycle 5->6, 6->5: all values written, but the
        // cycle is unreachable from the main chain... actually 5 IS written
        // (by 6->5) so precheck passes; Eulerian connectivity must catch it.
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(5u64, 6u64)])
            .proc([Op::rw(6u64, 5u64)])
            .build();
        let v = solve_rmw_one_op(&t, Addr::ZERO);
        assert!(matches!(
            v.violation().unwrap().kind,
            ViolationKind::BrokenRmwChain { .. }
        ));
    }

    #[test]
    fn eulerian_final_value_constraint() {
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(1u64, 0u64)])
            .final_value(0u32, 0u64)
            .build();
        assert!(solve_rmw_one_op(&t, Addr::ZERO).is_coherent());
        let t2 = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(1u64, 0u64)])
            .final_value(0u32, 1u64)
            .build();
        assert!(solve_rmw_one_op(&t2, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn forced_chain_respects_program_order() {
        // Chain 0->1->2 but P0 issues them in the wrong program order.
        let bad = TraceBuilder::new()
            .proc([Op::rw(1u64, 2u64), Op::rw(0u64, 1u64)])
            .build();
        assert!(readmap_applicable(&bad, Addr::ZERO));
        assert!(solve_rmw_readmap(&bad, Addr::ZERO).is_incoherent());

        let good = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(1u64, 2u64)])
            .build();
        let v = solve_rmw_readmap(&good, Addr::ZERO);
        check_coherent_schedule(&good, Addr::ZERO, v.schedule().unwrap()).unwrap();
    }

    #[test]
    fn duplicate_readers_incoherent() {
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(0u64, 2u64)])
            .build();
        assert!(readmap_applicable(&t, Addr::ZERO));
        assert!(solve_rmw_readmap(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn one_op_agrees_with_exact_on_random_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=6usize);
            let mut b = TraceBuilder::new();
            for _ in 0..n {
                b = b.proc([Op::rw(rng.gen_range(0..4u64), rng.gen_range(0..4u64))]);
            }
            let t = b.build();
            let fast = solve_rmw_one_op(&t, Addr::ZERO);
            let exact = solve_backtracking(&t, Addr::ZERO, &SearchConfig::default());
            assert_eq!(
                fast.is_coherent(),
                exact.is_coherent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }

    #[test]
    fn readmap_agrees_with_exact_on_random_instances() {
        use vermem_util::rng::{SliceRandom, StdRng};
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(7000 + seed);
            // Build a chain of unique values, then shuffle ops across procs.
            let n = rng.gen_range(1..=6usize);
            let chain: Vec<Op> = (0..n).map(|i| Op::rw(i as u64, (i + 1) as u64)).collect();
            let procs = rng.gen_range(1..=3usize).min(n);
            let mut hist: Vec<Vec<Op>> = vec![Vec::new(); procs];
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            for (pos, &i) in order.iter().enumerate() {
                hist[pos % procs].push(chain[i]);
            }
            let mut b = TraceBuilder::new();
            for h in hist {
                b = b.proc(h);
            }
            let t = b.build();
            if !readmap_applicable(&t, Addr::ZERO) {
                continue;
            }
            let fast = solve_rmw_readmap(&t, Addr::ZERO);
            let exact = solve_backtracking(&t, Addr::ZERO, &SearchConfig::default());
            assert_eq!(
                fast.is_coherent(),
                exact.is_coherent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }
}
