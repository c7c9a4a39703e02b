//! The router-level storage of the streaming engine.
//!
//! Besides the per-address placement monitor
//! (`crate::online::PlacementMonitor`) and write-count class map, the
//! per-event hot path touches two router-level maps: the per-shard address
//! table and the first-touch initial/final lookup. All of them are dense:
//! open-addressing Fx-hash maps ([`DenseMap`]), slab-allocated bucket lists
//! with free-list + arena reuse, and plain per-process vectors.
//! Steady-state ingest performs no heap allocation and no SipHash — every
//! structure reaches its working-set high-water mark and then only reuses
//! memory (asserted by the counting-allocator harness in
//! `tests/stream_alloc.rs`).

use super::AddrStream;
use std::collections::BTreeMap;
use vermem_trace::{Addr, Value};
use vermem_util::densemap::DenseMap;

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
