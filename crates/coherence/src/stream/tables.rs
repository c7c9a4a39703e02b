//! The ingest-path storage of the streaming engine.
//!
//! The per-event hot path touches four per-address tables (the placement
//! index, the per-process cursor map, the deferred read queues, the
//! write-count class map) plus two router-level maps (the per-shard address
//! table and the first-touch initial/final lookup). All of them are dense:
//! open-addressing Fx-hash maps ([`DenseMap`]), slab-allocated bucket lists
//! with free-list + arena reuse ([`Slab`], [`Arena`]), and plain
//! per-process vectors. Steady-state ingest performs no heap allocation and
//! no SipHash — every structure reaches its working-set high-water mark and
//! then only reuses memory (asserted by the counting-allocator harness in
//! `tests/stream_alloc.rs`).

use super::{AddrStream, PendingRead};
use std::collections::{BTreeMap, VecDeque};
use vermem_trace::{Addr, Value};
use vermem_util::densemap::{Arena, DenseMap, Slab};

/// Cursor sentinel: the process has not placed a read or committed a write
/// yet. Slots count committed writes, so a real cursor never reaches it.
const NO_CURSOR: usize = usize::MAX;

/// Dense, index-addressed per-address tables for the greedy placement
/// monitor.
///
/// Slot lists are sorted ascending (slots commit in ascending order and
/// retire from the bottom); cursors use *presence* semantics — a process
/// has no cursor until its first placed read or own write, and
/// [`DenseTables::cursor_floor`] is the minimum over present cursors only.
pub(crate) struct DenseTables {
    /// `value → index into `buckets`` on the Fx hash stream.
    slot_lists: DenseMap<u64, u32>,
    /// The sorted live-slot list of each value with live slots.
    buckets: Slab<VecDeque<usize>>,
    /// Emptied bucket lists, shelved with their capacity for reuse.
    bucket_arena: Arena<VecDeque<usize>>,
    /// Per-process cursor, [`NO_CURSOR`] = absent.
    cursors: Vec<usize>,
    /// Per-process deferred reads.
    deferred: Vec<Vec<PendingRead>>,
    /// `value → times written` on the Fx hash stream.
    write_counts: DenseMap<u64, u32>,
}

impl DenseTables {
    /// Fresh tables for an address with `procs` processes, seeded with
    /// `initial` current at slot 0.
    pub(crate) fn new(procs: usize, initial: Value) -> Self {
        let mut t = DenseTables {
            slot_lists: DenseMap::new(),
            buckets: Slab::new(),
            bucket_arena: Arena::new(),
            cursors: vec![NO_CURSOR; procs],
            deferred: vec![Vec::new(); procs],
            write_counts: DenseMap::new(),
        };
        // Slot 0 carries the initial value.
        t.commit_slot(initial, 0);
        t
    }

    /// Earliest live slot in `min..=max_slot` where `value` is current.
    #[inline]
    pub(crate) fn place(&self, max_slot: usize, value: Value, min: usize) -> Option<usize> {
        let &idx = self.slot_lists.get(value.0)?;
        let slots = self.buckets.get(idx).expect("indexed bucket is live");
        let i = slots.partition_point(|&s| s < min);
        slots.get(i).copied().filter(|&s| s <= max_slot)
    }

    /// Record that `slot` committed `value` (strictly ascending slots).
    pub(crate) fn commit_slot(&mut self, value: Value, slot: usize) {
        match self.slot_lists.get(value.0) {
            Some(&idx) => self
                .buckets
                .get_mut(idx)
                .expect("indexed bucket is live")
                .push_back(slot),
            None => {
                let mut bucket = self.bucket_arena.alloc();
                bucket.push_back(slot);
                let idx = self.buckets.insert(bucket);
                self.slot_lists.insert(value.0, idx);
            }
        }
    }

    /// Drop retired `slot` (the globally lowest live slot) for `value`.
    pub(crate) fn retire_slot(&mut self, value: Value, slot: usize) {
        let Some(&idx) = self.slot_lists.get(value.0) else {
            return;
        };
        let bucket = self.buckets.get_mut(idx).expect("indexed bucket is live");
        debug_assert_eq!(bucket.front().copied(), Some(slot));
        bucket.pop_front();
        if bucket.is_empty() {
            self.slot_lists.remove(value.0);
            let bucket = self.buckets.remove(idx).expect("just emptied");
            self.bucket_arena.free(bucket);
        }
    }

    /// The cursor of `proc`, if it has one.
    #[inline]
    pub(crate) fn cursor(&self, proc: u16) -> Option<usize> {
        let c = self.cursors[usize::from(proc)];
        (c != NO_CURSOR).then_some(c)
    }

    /// Set (creating if absent) the cursor of `proc`.
    #[inline]
    pub(crate) fn set_cursor(&mut self, proc: u16, slot: usize) {
        debug_assert_ne!(slot, NO_CURSOR);
        self.cursors[usize::from(proc)] = slot;
    }

    /// Minimum over *present* cursors; `0` when no process has one.
    pub(crate) fn cursor_floor(&self) -> usize {
        self.cursors
            .iter()
            .copied()
            .filter(|&c| c != NO_CURSOR)
            .min()
            .unwrap_or(0)
    }

    /// The deferred reads of `proc`, in program order.
    #[inline]
    pub(crate) fn pending(&self, proc: u16) -> &[PendingRead] {
        &self.deferred[usize::from(proc)]
    }

    /// Append a deferred read for `proc`.
    #[inline]
    pub(crate) fn pending_push(&mut self, proc: u16, pr: PendingRead) {
        self.deferred[usize::from(proc)].push(pr);
    }

    /// Remove the first `n` deferred reads of `proc`.
    pub(crate) fn pending_pop_front(&mut self, proc: u16, n: usize) {
        self.deferred[usize::from(proc)].drain(..n);
    }

    /// Move `proc`'s queue out wholesale (for drain-and-report loops that
    /// also need `&mut self`); pair with [`DenseTables::pending_restore`]
    /// to hand the emptied queue's capacity back.
    pub(crate) fn pending_take(&mut self, proc: u16) -> Vec<PendingRead> {
        std::mem::take(&mut self.deferred[usize::from(proc)])
    }

    /// Put a queue taken by [`DenseTables::pending_take`] back in place.
    pub(crate) fn pending_restore(&mut self, proc: u16, queue: Vec<PendingRead>) {
        self.deferred[usize::from(proc)] = queue;
    }

    /// Push the processes that hold deferred reads, ascending, onto `out`.
    pub(crate) fn pending_procs(&self, out: &mut Vec<u16>) {
        for (p, queue) in self.deferred.iter().enumerate() {
            if !queue.is_empty() {
                out.push(p as u16);
            }
        }
    }

    /// Increment and return the number of times `value` has been written.
    #[inline]
    pub(crate) fn bump_write(&mut self, value: Value) -> u32 {
        let count = self.write_counts.get_or_insert_with(value.0, || 0);
        *count += 1;
        *count
    }
}

/// Router-level tables on the Fx hash stream: declared initial/final
/// values plus the first-touch address set.
#[derive(Default)]
pub(crate) struct DenseRouter {
    initials: DenseMap<u32, Value>,
    finals: DenseMap<u32, Value>,
    seen: DenseMap<u32, ()>,
}

impl DenseRouter {
    /// Record a declared initial value.
    pub(crate) fn set_initial(&mut self, addr: Addr, value: Value) {
        self.initials.insert(addr.0, value);
    }

    /// Record a declared final value.
    pub(crate) fn set_final(&mut self, addr: Addr, value: Value) {
        self.finals.insert(addr.0, value);
    }

    /// First touch of `addr`: record it and return its
    /// `(initial, declared final)`; `None` on every later touch.
    #[inline]
    pub(crate) fn first_touch(&mut self, addr: Addr) -> Option<(Value, Option<Value>)> {
        if self.seen.insert(addr.0, ()).is_some() {
            return None;
        }
        Some((
            self.initials.get(addr.0).copied().unwrap_or(Value::INITIAL),
            self.finals.get(addr.0).copied(),
        ))
    }
}

/// The per-shard address table.
#[derive(Default)]
pub(crate) struct DenseAddrMap(DenseMap<u32, AddrStream>);

impl DenseAddrMap {
    /// The state of `addr`, if the shard has seen it.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<&AddrStream> {
        self.0.get(addr.0)
    }

    /// The state of `addr`, created by `make` on first touch.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        addr: Addr,
        make: impl FnOnce() -> AddrStream,
    ) -> &mut AddrStream {
        self.0.get_or_insert_with(addr.0, make)
    }

    /// Move every entry into `out` (the end-of-stream merge).
    pub(crate) fn drain_into(&mut self, out: &mut BTreeMap<Addr, AddrStream>) {
        for (key, state) in self.0.drain() {
            out.insert(Addr(key), state);
        }
    }
}
