//! Per-address operation index.
//!
//! The paper's §3 definition makes coherence a *per-address* property, so
//! every solver starts by restricting the trace to one address. Doing that
//! with `trace.iter_ops().filter(|(_, op)| op.addr() == addr)` costs
//! O(total ops) *per address* — O(addrs × ops) for a whole-execution
//! verification, and each solver historically repeated the scan several
//! times (applicability check, precheck, op collection).
//!
//! [`AddrIndex::build`] performs two passes over the trace and produces,
//! for every address of [`Trace::addresses`], an [`AddrOps`]: the
//! per-process operation lists (with original [`OpRef`]s), the initial and
//! final values, the structural facts the Figure 5.3 classifier and the
//! solver dispatcher condition on, and one dense **value numbering** of
//! the VMC instance (Definition 4.1):
//!
//! * id 0 is `d_I`;
//! * next come the written values (RMW write parts included), in
//!   first-occurrence order over [`AddrOps::iter`];
//! * then the values only read (RMW read parts included), in
//!   first-occurrence order;
//! * then `d_F`, if no operation mentions it and it is not `d_I`.
//!
//! So ids `0..memory_ids()` are exactly the values memory can ever hold,
//! and a read whose id is at or past [`AddrOps::memory_ids`] has no
//! writer. The entry keeps the `id → Value` table, the write count of each
//! id and each operation's `(read id, write id)`, so the precheck, the
//! Figure 5.3 fast paths, the closure and the serialization machine index
//! `Vec`s by id and never hash a [`Value`]. The only value-keyed map is
//! the build-time interning map, dropped when the build returns. Every
//! table is O(ops + values) per address.
//!
//! Whole-execution setup is O(ops + addrs·procs), and the per-address
//! solves of the parallel engine share one immutable index.

use crate::op::{Addr, Op, OpRef, Value};
use crate::trace::Trace;
use vermem_util::hash::FxHashMap;

/// The build-time interning map, `value → id`.
type Interner = FxHashMap<Value, u32>;

/// The build-time numbering scratch, one per build, reused entry by entry:
/// the interning map, and the `id → Value` table and per-id write counts
/// it grows, which each entry copies out at their exact size.
struct Numbering {
    interner: Interner,
    values: Vec<Value>,
    writes: Vec<u32>,
}

impl Numbering {
    /// Scratch for entries of up to `ops` operations.
    fn with_capacity(ops: usize) -> Numbering {
        // `d_I`, `d_F` and one value per operation: only an entry whose
        // RMWs read values nothing writes can need more, and then grows.
        let n = ops + 2;
        Numbering {
            interner: Interner::with_capacity_and_hasher(n, Default::default()),
            values: Vec::with_capacity(n),
            writes: Vec::with_capacity(n),
        }
    }

    /// The id of `v`, numbering it next if it is new.
    fn number(&mut self, v: Value) -> u32 {
        let values = &mut self.values;
        *self.interner.entry(v).or_insert_with(|| {
            values.push(v);
            (values.len() - 1) as u32
        })
    }
}

/// The value ids of one operation (see [`AddrOps::ids`]): the id of the
/// value it reads and of the value it writes, either absent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpIds {
    read: u32,
    write: u32,
}

impl OpIds {
    /// Marks an absent component.
    const NONE: u32 = u32::MAX;

    /// The id of the value read (reads and RMWs).
    #[inline]
    pub fn read(self) -> Option<u32> {
        (self.read != OpIds::NONE).then_some(self.read)
    }

    /// The id of the value written (writes and RMWs).
    #[inline]
    pub fn write(self) -> Option<u32> {
        (self.write != OpIds::NONE).then_some(self.write)
    }
}

/// All operations of one address, organised for the VMC solvers: one
/// program-ordered `(OpRef, Op)` list per process (refs point into the
/// *original* trace), the instance's value numbering (module docs) and
/// cached structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrOps {
    addr: Addr,
    initial: Value,
    final_value: Option<Value>,
    per_proc: Vec<Vec<(OpRef, Op)>>,
    /// `id → Value`.
    values: Vec<Value>,
    /// How many operations write each id.
    writes: Vec<u32>,
    /// Each operation's value ids, in [`AddrOps::iter`] order.
    ids: Vec<OpIds>,
    /// Ids below this are `d_I` or written.
    memory_ids: u32,
    final_id: Option<u32>,
    max_writes: u32,
    rmw_ops: usize,
}

impl AddrOps {
    /// The entry for `per_proc`, its values numbered (module docs) with
    /// the scratch `numbering` in two passes over its operations. The
    /// first interns the written values and counts each one's writes and
    /// the RMWs; the values numbered by then are `d_I` and the written
    /// ones, so `memory_ids` is their count. The second numbers the values
    /// only read, then `d_F`. The entry's value table and write counts are
    /// copied out of the scratch at their exact size.
    fn new(
        addr: Addr,
        initial: Value,
        final_value: Option<Value>,
        per_proc: Vec<Vec<(OpRef, Op)>>,
        numbering: &mut Numbering,
    ) -> AddrOps {
        numbering.interner.clear();
        numbering.values.clear();
        numbering.writes.clear();
        numbering.number(initial);
        numbering.writes.push(0);
        let mut rmw_ops = 0;
        let mut ids = Vec::with_capacity(per_proc.iter().map(Vec::len).sum());
        for &(_, op) in per_proc.iter().flatten() {
            let mut write = OpIds::NONE;
            if let Some(v) = op.written_value() {
                write = numbering.number(v);
                // Only written values are numbered so far: a fresh id is
                // the next count.
                let writes = &mut numbering.writes;
                if write as usize == writes.len() {
                    writes.push(0);
                }
                writes[write as usize] += 1;
                rmw_ops += usize::from(op.read_value().is_some());
            }
            ids.push(OpIds {
                read: OpIds::NONE,
                write,
            });
        }
        let memory_ids = numbering.values.len() as u32;
        for (&(_, op), op_ids) in per_proc.iter().flatten().zip(&mut ids) {
            if let Some(v) = op.read_value() {
                op_ids.read = numbering.number(v);
            }
        }
        let final_id = final_value.map(|v| numbering.number(v));
        let values = numbering.values.clone();
        let mut writes = Vec::with_capacity(values.len());
        writes.extend_from_slice(&numbering.writes);
        writes.resize(values.len(), 0);
        let max_writes = writes.iter().copied().max().unwrap_or(0);
        AddrOps {
            addr,
            initial,
            final_value,
            per_proc,
            values,
            writes,
            ids,
            memory_ids,
            final_id,
            max_writes,
            rmw_ops,
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
        for (p, list) in per_proc.iter().enumerate() {
            for (r, op) in list {
                debug_assert_eq!(usize::from(r.proc.0), p, "ref/process mismatch");
                debug_assert_eq!(op.addr(), addr);
            }
        }
        let n: usize = per_proc.iter().map(Vec::len).sum();
        AddrOps::new(
            addr,
            initial,
            final_value,
            per_proc,
            &mut Numbering::with_capacity(n),
        )
    }

    /// Index the operations of `trace` at one `addr` (a single O(ops)
    /// scan). Prefer [`AddrIndex::build`] when several addresses are
    /// needed — it indexes them all in the same two passes.
    pub fn of(trace: &Trace, addr: Addr) -> AddrOps {
        let mut per_proc = vec![Vec::new(); trace.num_procs()];
        for (r, op) in trace.iter_ops() {
            if op.addr() == addr {
                per_proc[r.proc.0 as usize].push((r, op));
            }
        }
        AddrOps::from_parts(addr, trace.initial(addr), trace.final_value(addr), per_proc)
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

    /// Each operation's value ids, in [`AddrOps::iter`] order.
    pub fn ids(&self) -> &[OpIds] {
        &self.ids
    }

    /// The value numbering, `id → Value` (module docs): id 0 is `d_I`.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Ids `0..memory_ids()` are `d_I` and the written values: the values
    /// memory can ever hold. Later ids are only read, or only `d_F`.
    pub fn memory_ids(&self) -> u32 {
        self.memory_ids
    }

    /// How many operations write value id `id` (RMW write components
    /// count).
    pub fn writes_of(&self, id: u32) -> usize {
        self.writes[id as usize] as usize
    }

    /// The id of `d_F`, if configured.
    pub fn final_id(&self) -> Option<u32> {
        self.final_id
    }

    /// Number of operations at this address.
    pub fn num_ops(&self) -> usize {
        self.ids.len()
    }

    /// True if no operation touches this address.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Maximum number of writes of any single value.
    pub fn max_writes_per_value(&self) -> usize {
        self.max_writes as usize
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
        self.rmw_ops == self.num_ops()
    }

    /// True if at least one operation is an RMW.
    pub fn has_rmw(&self) -> bool {
        self.rmw_ops > 0
    }
}

/// A per-address index over a whole trace: one [`AddrOps`] per address of
/// [`Trace::addresses`] (touched, or carrying only a final value), sorted
/// by address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrIndex {
    entries: Vec<AddrOps>,
}

impl AddrIndex {
    /// Index every address of `trace` in O(ops + addrs·procs). The address
    /// set and order match [`Trace::addresses`] exactly.
    ///
    /// Two passes over the trace, zero reallocation: the first pass finds
    /// each op's address slot and keeps it; a pass over the kept slots
    /// *counts* ops per `(address, process)` into one flat buffer; the
    /// second pass over the trace reads the kept slots, so it probes no
    /// map, and fills exact-capacity
    /// per-process vectors, so every element is written exactly once into
    /// its final slot. Each entry is then numbered (module docs) with one
    /// numbering scratch (the interning map and the tables it grows),
    /// pre-sized to the largest entry and reused entry by entry, so it
    /// stays as small as one address's values and is dropped on return.
    pub fn build(trace: &Trace) -> AddrIndex {
        let procs = trace.num_procs();
        let mut slot: FxHashMap<Addr, u32> = FxHashMap::default();
        // Discovery order of addresses, and each op's address slot.
        let mut discovered: Vec<Addr> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(trace.num_ops());
        for (_, op) in trace.iter_ops() {
            let addr = op.addr();
            let i = *slot.entry(addr).or_insert_with(|| {
                discovered.push(addr);
                (discovered.len() - 1) as u32
            });
            slots.push(i);
        }
        // An address that only carries a declared final value is an
        // instance with no operations: its `d_F` alone decides it.
        for &addr in trace.final_values().keys() {
            if !slot.contains_key(&addr) {
                discovered.push(addr);
            }
        }
        // `counts[slot * procs + p]` is the number of ops of process `p`
        // at that address; process p's ops are the p-th run of `slots`.
        let mut counts = vec![0u32; discovered.len() * procs];
        let mut run = slots.as_slice();
        for (p, h) in trace.histories().iter().enumerate() {
            let (ops, rest) = run.split_at(h.len());
            for &i in ops {
                counts[i as usize * procs + p] += 1;
            }
            run = rest;
        }
        let caps = |i: usize| &counts[i * procs..(i + 1) * procs];
        let mut lists: Vec<Vec<Vec<(OpRef, Op)>>> = (0..discovered.len())
            .map(|i| {
                caps(i)
                    .iter()
                    .map(|&c| Vec::with_capacity(c as usize))
                    .collect()
            })
            .collect();
        for ((r, op), &i) in trace.iter_ops().zip(&slots) {
            lists[i as usize][r.proc.0 as usize].push((r, op));
        }
        let largest = (0..discovered.len())
            .map(|i| caps(i).iter().sum::<u32>())
            .max();
        let mut numbering = Numbering::with_capacity(largest.unwrap_or(0) as usize);
        let mut entries: Vec<AddrOps> = discovered
            .into_iter()
            .zip(lists)
            .map(|(addr, per_proc)| {
                let (initial, fin) = (trace.initial(addr), trace.final_value(addr));
                AddrOps::new(addr, initial, fin, per_proc, &mut numbering)
            })
            .collect();
        entries.sort_unstable_by_key(AddrOps::addr);
        AddrIndex { entries }
    }

    /// Number of distinct addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace has no address (no operation, no final value).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed addresses, sorted ascending.
    pub fn addresses(&self) -> impl Iterator<Item = Addr> + '_ {
        self.entries.iter().map(AddrOps::addr)
    }

    /// The entries, sorted by address.
    pub fn iter(&self) -> std::slice::Iter<'_, AddrOps> {
        self.entries.iter()
    }

    /// The `i`-th entry in address order.
    pub fn entry(&self, i: usize) -> &AddrOps {
        &self.entries[i]
    }

    /// Look up one address (binary search).
    pub fn get(&self, addr: Addr) -> Option<&AddrOps> {
        self.position(addr).map(|i| &self.entries[i])
    }

    /// The position of `addr`'s entry in address order (binary search).
    pub(crate) fn position(&self, addr: Addr) -> Option<usize> {
        self.entries.binary_search_by_key(&addr, AddrOps::addr).ok()
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
        assert_eq!(a0.values(), &[Value(9), Value(1)]);
        assert_eq!(a0.writes_of(1), 2);
        assert_eq!(a0.max_writes_per_value(), 2);
        assert_eq!(a0.max_ops_per_proc(), 2);
        assert_eq!(a0.nonempty_procs(), 2);
        assert!(!a0.has_rmw());

        let a2 = AddrOps::of(&t, Addr(2));
        assert_eq!(a2.final_value(), Some(Value(6)));
        assert_eq!(a2.initial(), Value::INITIAL);
        assert!(a2.has_rmw());
        assert!(!a2.all_rmw());
        assert_eq!(a2.values(), &[Value(0), Value(5), Value(6)]);
        assert_eq!((a2.writes_of(1), a2.writes_of(2)), (1, 1));
        assert_eq!(a2.final_id(), Some(2));

        // An RMW's write component counts as a write of its value, and
        // its read component as a read.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 2u64)])
            .proc([Op::w(2u64)])
            .build();
        let a = AddrOps::of(&t, Addr::ZERO);
        assert_eq!(a.values(), &[Value(0), Value(1), Value(2)]);
        assert_eq!((a.writes_of(1), a.writes_of(2)), (1, 2));
        let ids: Vec<_> = a.ids().iter().map(|i| (i.read(), i.write())).collect();
        assert_eq!(ids, [(None, Some(1)), (Some(1), Some(2)), (None, Some(2))]);
    }

    #[test]
    fn written_values_are_numbered_before_values_only_read() {
        // R(5) comes first, but 5 is also written, so it takes a written
        // id; 7 is only read and 8 only final.
        let t = TraceBuilder::new()
            .proc([Op::r(5u64), Op::r(7u64), Op::w(3u64)])
            .proc([Op::w(5u64), Op::rw(7u64, 0u64)])
            .final_value(0u32, 8u64)
            .build();
        let a = AddrOps::of(&t, Addr::ZERO);
        assert_eq!(a.values(), &[0u64, 3, 5, 7, 8].map(Value));
        assert_eq!(a.memory_ids(), 3);
        assert_eq!(a.writes_of(0), 1); // d_I is rewritten by the RMW
        assert_eq!(a.final_id(), Some(4));
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
    fn final_only_address_is_an_entry_without_ops() {
        let mut t = sample();
        t.set_final(1u32, 3u64);
        let idx = AddrIndex::build(&t);
        assert_eq!(idx.addresses().collect::<Vec<_>>(), t.addresses());
        let only = idx.get(Addr(1)).unwrap();
        assert!(only.is_empty());
        assert_eq!(only.final_value(), Some(Value(3)));
        assert_eq!(only.per_proc().len(), t.num_procs());
        assert_eq!(only, &AddrOps::of(&t, Addr(1)));
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
        assert_eq!(
            (none.values(), none.memory_ids()),
            (&[Value::INITIAL][..], 1)
        );
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

    /// Check `e`'s numbering against the definition (module docs),
    /// recomputed by linear search, and its per-op ids and write counts
    /// against a recount.
    fn check_numbering(e: &AddrOps) {
        let mut reference = vec![e.initial()];
        let number = |reference: &mut Vec<Value>, v: Value| {
            if !reference.contains(&v) {
                reference.push(v);
            }
        };
        for (_, op) in e.iter() {
            if let Some(v) = op.written_value() {
                number(&mut reference, v);
            }
        }
        let memory = reference.len();
        for (_, op) in e.iter() {
            if let Some(v) = op.read_value() {
                number(&mut reference, v);
            }
        }
        if let Some(f) = e.final_value() {
            number(&mut reference, f);
        }
        assert_eq!(e.values(), reference, "{:?}", e.addr());
        assert_eq!(e.values()[0], e.initial());
        assert_eq!(e.memory_ids() as usize, memory);
        assert_eq!(
            e.final_id().map(|f| e.values()[f as usize]),
            e.final_value()
        );

        let value = |id: u32| e.values()[id as usize];
        let mut recount = vec![0; e.values().len()];
        assert_eq!(e.ids().len(), e.num_ops());
        for ((_, op), ids) in e.iter().zip(e.ids()) {
            assert_eq!(ids.read().map(value), op.read_value());
            assert_eq!(ids.write().map(value), op.written_value());
            if let Some(w) = ids.write() {
                recount[w as usize] += 1;
            }
        }
        for (id, &count) in recount.iter().enumerate() {
            assert_eq!(e.writes_of(id as u32), count);
            // Written ids come before the ids only read (or only final);
            // d_I may or may not be rewritten.
            if id > 0 {
                assert_eq!(id < memory, count > 0, "id {id}");
            }
        }
        assert_eq!(e.max_writes_per_value(), recount.into_iter().max().unwrap());
    }

    /// Check every entry of `t`'s index, and that the single-address and
    /// from-parts builds number it identically.
    fn check_trace(t: &Trace) {
        let idx = AddrIndex::build(t);
        assert_eq!(idx.addresses().collect::<Vec<_>>(), t.addresses());
        for e in idx.iter() {
            check_numbering(e);
            assert_eq!(e, &AddrOps::of(t, e.addr()));
            let parts = AddrOps::from_parts(
                e.addr(),
                e.initial(),
                e.final_value(),
                e.per_proc().to_vec(),
            );
            assert_eq!(&parts, e);
        }
    }

    #[test]
    fn numbering_property_over_small_scope_and_generated_traces() {
        use crate::gen::{gen_sc_trace, small_traces, GenConfig, SmallScope};
        let scope = SmallScope {
            max_ops: 3,
            addrs: 2,
            values: 3,
        };
        let mut traces = 0;
        small_traces(&scope, |t| {
            traces += 1;
            check_trace(t);
            // Finals: one on a touched address (possibly a value nobody
            // mentions), and one on an address no operation touches.
            let mut t = t.clone();
            t.set_final(0u32, 1u64);
            t.set_final(1u32, 2u64);
            t.set_final(5u32, 4u64);
            t.set_initial(1u32, 2u64);
            check_trace(&t);
        });
        assert_eq!(traces, 15_255);
        for seed in 0..20u64 {
            let (mut t, _) = gen_sc_trace(&GenConfig {
                procs: 4,
                total_ops: 80,
                addrs: 4,
                rmw_fraction: 0.2,
                value_reuse: 0.5,
                seed,
                ..Default::default()
            });
            check_trace(&t);
            t.set_final(9u32, 3u64);
            check_trace(&t);
        }
    }
}
