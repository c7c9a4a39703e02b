//! Per-address operation index.
//!
//! The paper's §3 definition makes coherence a *per-address* property, so
//! every solver starts by restricting the trace to one address. Doing that
//! with `trace.iter_ops().filter(|(_, op)| op.addr() == addr)` costs
//! O(total ops) *per address* — O(addrs × ops) for a whole-execution
//! verification, and each solver historically repeated the scan several
//! times (applicability check, precheck, op collection).
//!
//! [`AddrIndex::build`] performs **one** pass over the trace and produces,
//! for every touched address, an [`AddrOps`]: the per-process operation
//! lists (with original [`OpRef`]s), the per-value write counts, the
//! initial/final values and the structural facts the Figure 5.3
//! classifier and the solver dispatcher condition on. Whole-execution
//! setup therefore drops from quadratic-in-addresses to O(ops), and the
//! per-address solves of the parallel engine share one immutable index.

use crate::op::{Addr, Op, OpRef, Value};
use crate::trace::Trace;
use std::collections::BTreeMap;
use vermem_util::hash::FxHashMap;

/// All operations of one address, organised for the VMC solvers: one
/// program-ordered `(OpRef, Op)` list per process (refs point into the
/// *original* trace), plus per-value write counts and cached structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrOps {
    addr: Addr,
    initial: Value,
    final_value: Option<Value>,
    per_proc: Vec<Vec<(OpRef, Op)>>,
    write_counts: BTreeMap<Value, usize>,
    num_ops: usize,
    rmw_ops: usize,
}

impl AddrOps {
    fn new(
        addr: Addr,
        initial: Value,
        final_value: Option<Value>,
        per_proc: Vec<Vec<(OpRef, Op)>>,
    ) -> AddrOps {
        AddrOps {
            addr,
            initial,
            final_value,
            per_proc,
            write_counts: BTreeMap::new(),
            num_ops: 0,
            rmw_ops: 0,
        }
    }

    /// An empty entry for `addr` of `trace`, with each per-process list
    /// pre-sized to an exact capacity (the [`AddrIndex::build`] counting
    /// pass), so filling it never reallocates.
    fn with_capacities(trace: &Trace, addr: Addr, caps: &[u32]) -> AddrOps {
        debug_assert_eq!(caps.len(), trace.num_procs());
        let per_proc = caps.iter().map(|&c| Vec::with_capacity(c as usize));
        AddrOps::new(
            addr,
            trace.initial(addr),
            trace.final_value(addr),
            per_proc.collect(),
        )
    }

    fn push(&mut self, r: OpRef, op: Op) {
        debug_assert_eq!(op.addr(), self.addr);
        self.per_proc[r.proc.0 as usize].push((r, op));
        self.num_ops += 1;
        if op.is_rmw() {
            self.rmw_ops += 1;
        }
        if let Some(v) = op.written_value() {
            *self.write_counts.entry(v).or_insert(0) += 1;
        }
    }

    /// Assemble an [`AddrOps`] directly from per-process `(OpRef, Op)`
    /// lists, without a backing [`Trace`]. This is how the streaming
    /// engine re-materialises an address for exact verification: the refs
    /// must be the operations' original program-order identities and each
    /// list must be in program order, exactly as [`AddrIndex::build`]
    /// would have produced them, so the resulting value is
    /// indistinguishable (`==`) from the batch-built index entry.
    pub fn from_parts(
        addr: Addr,
        initial: Value,
        final_value: Option<Value>,
        per_proc: Vec<Vec<(OpRef, Op)>>,
    ) -> AddrOps {
        let lists = per_proc.iter().map(|list| Vec::with_capacity(list.len()));
        let mut ops = AddrOps::new(addr, initial, final_value, lists.collect());
        for (p, list) in per_proc.into_iter().enumerate() {
            for (r, op) in list {
                debug_assert_eq!(usize::from(r.proc.0), p, "ref/process mismatch");
                ops.push(r, op);
            }
        }
        ops
    }

    /// Index the operations of `trace` at one `addr` (a single O(ops)
    /// scan). Prefer [`AddrIndex::build`] when several addresses are
    /// needed — it indexes them all in the same single scan.
    pub fn of(trace: &Trace, addr: Addr) -> AddrOps {
        let per_proc = vec![Vec::new(); trace.num_procs()];
        let mut ops = AddrOps::new(addr, trace.initial(addr), trace.final_value(addr), per_proc);
        for (r, op) in trace.iter_ops() {
            if op.addr() == addr {
                ops.push(r, op);
            }
        }
        ops
    }

    /// The indexed address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The initial value `d_I` of the address.
    pub fn initial(&self) -> Value {
        self.initial
    }

    /// The required final value `d_F`, if configured.
    pub fn final_value(&self) -> Option<Value> {
        self.final_value
    }

    /// Per-process operation lists (index = process id), each in program
    /// order, with refs into the original trace.
    pub fn per_proc(&self) -> &[Vec<(OpRef, Op)>] {
        &self.per_proc
    }

    /// All `(OpRef, Op)` pairs, by process then program order — the same
    /// order as `trace.iter_ops()` filtered to this address.
    pub fn iter(&self) -> impl Iterator<Item = (OpRef, Op)> + '_ {
        self.per_proc.iter().flatten().copied()
    }

    /// Number of operations at this address.
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    /// True if no operation touches this address.
    pub fn is_empty(&self) -> bool {
        self.num_ops == 0
    }

    /// How many times each value is written (RMW write components count).
    pub fn write_counts(&self) -> &BTreeMap<Value, usize> {
        &self.write_counts
    }

    /// How many operations write `value`.
    pub fn writes_of(&self, value: Value) -> usize {
        self.write_counts.get(&value).copied().unwrap_or(0)
    }

    /// Maximum number of writes of any single value.
    pub fn max_writes_per_value(&self) -> usize {
        self.write_counts.values().copied().max().unwrap_or(0)
    }

    /// Longest per-process operation list.
    pub fn max_ops_per_proc(&self) -> usize {
        self.per_proc.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of processes with at least one operation here.
    pub fn nonempty_procs(&self) -> usize {
        self.per_proc.iter().filter(|v| !v.is_empty()).count()
    }

    /// True if every operation is an atomic read-modify-write (vacuously
    /// true when empty, matching the historical applicability checks).
    pub fn all_rmw(&self) -> bool {
        self.rmw_ops == self.num_ops
    }

    /// True if at least one operation is an RMW.
    pub fn has_rmw(&self) -> bool {
        self.rmw_ops > 0
    }
}

/// A per-address index over a whole trace: one [`AddrOps`] per touched
/// address, sorted by address, built in a single pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrIndex {
    entries: Vec<AddrOps>,
}

impl AddrIndex {
    /// Index every address of `trace` in O(ops + addrs·procs). The address
    /// set and order match [`Trace::addresses`] exactly.
    ///
    /// Two passes, zero reallocation: the first pass only *counts* ops per
    /// `(address, process)` into one flat buffer, the second fills
    /// exact-capacity per-process vectors. The historical single-pass
    /// build grew every per-process `Vec` by doubling, so large traces
    /// paid O(ops) redundant element moves plus one realloc chain per
    /// `(address, process)` pair; now every element is written exactly
    /// once into its final slot.
    pub fn build(trace: &Trace) -> AddrIndex {
        let procs = trace.num_procs();
        let mut slot: FxHashMap<Addr, usize> = FxHashMap::default();
        // Discovery order of addresses; `counts[slot * procs + p]` is the
        // number of ops of process `p` at that address.
        let mut discovered: Vec<Addr> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for (r, op) in trace.iter_ops() {
            let addr = op.addr();
            let i = *slot.entry(addr).or_insert_with(|| {
                discovered.push(addr);
                counts.resize(counts.len() + procs, 0);
                discovered.len() - 1
            });
            counts[i * procs + r.proc.0 as usize] += 1;
        }
        let mut entries: Vec<AddrOps> = discovered
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                AddrOps::with_capacities(trace, addr, &counts[i * procs..(i + 1) * procs])
            })
            .collect();
        for (r, op) in trace.iter_ops() {
            let i = slot[&op.addr()];
            entries[i].push(r, op);
        }
        entries.sort_unstable_by_key(AddrOps::addr);
        AddrIndex { entries }
    }

    /// Number of distinct addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace touches no address.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed addresses, sorted ascending.
    pub fn addresses(&self) -> impl Iterator<Item = Addr> + '_ {
        self.entries.iter().map(AddrOps::addr)
    }

    /// The entries, sorted by address.
    pub fn iter(&self) -> impl Iterator<Item = &AddrOps> {
        self.entries.iter()
    }

    /// The `i`-th entry in address order.
    pub fn entry(&self, i: usize) -> &AddrOps {
        &self.entries[i]
    }

    /// Look up one address (binary search).
    pub fn get(&self, addr: Addr) -> Option<&AddrOps> {
        self.entries
            .binary_search_by_key(&addr, AddrOps::addr)
            .ok()
            .map(|i| &self.entries[i])
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
                Op::write(2u32, 5u64),
                Op::read(0u32, 1u64),
            ])
            .proc([Op::rmw(2u32, 5u64, 6u64), Op::write(0u32, 1u64)])
            .proc([])
            .initial(0u32, 9u64)
            .final_value(2u32, 6u64)
            .build()
    }

    #[test]
    fn build_matches_trace_addresses() {
        let t = sample();
        let idx = AddrIndex::build(&t);
        assert_eq!(idx.addresses().collect::<Vec<_>>(), t.addresses());
        assert_eq!(idx.len(), 2);
        assert!(idx.get(Addr(1)).is_none());
    }

    #[test]
    fn entries_match_single_address_builds() {
        let t = sample();
        let idx = AddrIndex::build(&t);
        for addr in t.addresses() {
            assert_eq!(idx.get(addr).unwrap(), &AddrOps::of(&t, addr));
        }
    }

    #[test]
    fn per_address_structure() {
        let t = sample();
        let a0 = AddrOps::of(&t, Addr(0));
        assert_eq!(a0.num_ops(), 3);
        assert_eq!(a0.initial(), Value(9));
        assert_eq!(a0.final_value(), None);
        assert_eq!(a0.writes_of(Value(1)), 2);
        assert_eq!(a0.max_writes_per_value(), 2);
        assert_eq!(a0.max_ops_per_proc(), 2);
        assert_eq!(a0.nonempty_procs(), 2);
        assert!(!a0.has_rmw());

        let a2 = AddrOps::of(&t, Addr(2));
        assert_eq!(a2.final_value(), Some(Value(6)));
        assert_eq!(a2.initial(), Value::INITIAL);
        assert!(a2.has_rmw());
        assert!(!a2.all_rmw());
        assert_eq!(a2.writes_of(Value(5)), 1);
        assert_eq!(a2.writes_of(Value(6)), 1);

        // An RMW's write component counts as a write of its value.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 2u64)])
            .proc([Op::w(2u64)])
            .build();
        let counts = AddrOps::of(&t, Addr::ZERO).write_counts().clone();
        assert_eq!(counts, BTreeMap::from([(Value(1), 1), (Value(2), 2)]));
    }

    #[test]
    fn iter_order_matches_filtered_iter_ops() {
        let t = sample();
        for addr in t.addresses() {
            let from_index: Vec<(OpRef, Op)> = AddrOps::of(&t, addr).iter().collect();
            let from_scan: Vec<(OpRef, Op)> =
                t.iter_ops().filter(|(_, op)| op.addr() == addr).collect();
            assert_eq!(from_index, from_scan, "{addr:?}");
        }
    }

    #[test]
    fn refs_point_into_original_trace() {
        let t = sample();
        let idx = AddrIndex::build(&t);
        for ops in idx.iter() {
            for (r, op) in ops.iter() {
                assert_eq!(t.op(r), Some(op));
            }
        }
    }

    #[test]
    fn empty_trace_and_empty_address() {
        let idx = AddrIndex::build(&Trace::new());
        assert!(idx.is_empty());
        let t = sample();
        let none = AddrOps::of(&t, Addr(77));
        assert!(none.is_empty());
        assert!(none.all_rmw()); // vacuous, as for the solvers
        assert_eq!(none.max_writes_per_value(), 0);
    }

    #[test]
    fn from_parts_is_indistinguishable_from_batch_index() {
        let t = sample();
        let idx = AddrIndex::build(&t);
        for addr in t.addresses() {
            let e = idx.get(addr).unwrap();
            let rebuilt =
                AddrOps::from_parts(addr, e.initial(), e.final_value(), e.per_proc().to_vec());
            assert_eq!(&rebuilt, e);
        }
    }

    #[test]
    fn random_traces_index_consistently() {
        use crate::gen::{gen_sc_trace, GenConfig};
        for seed in 0..10u64 {
            let (t, _) = gen_sc_trace(&GenConfig {
                procs: 4,
                total_ops: 60,
                addrs: 5,
                seed,
                ..Default::default()
            });
            let idx = AddrIndex::build(&t);
            assert_eq!(idx.addresses().collect::<Vec<_>>(), t.addresses());
            for addr in t.addresses() {
                let e = idx.get(addr).unwrap();
                assert_eq!(e, &AddrOps::of(&t, addr));
            }
        }
    }
}
