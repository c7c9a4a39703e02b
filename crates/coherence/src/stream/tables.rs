//! The router-level storage of the streaming engine.
//!
//! Per event, the hot path probes two hash tables: the router's intern
//! table here, once, to learn the address's shard lane and lane-local
//! dense id, and the address's value table inside the placement monitor
//! (`crate::online::PlacementMonitor`), which commits a write and detects a
//! value written twice in one probe. A shard keeps its addresses in a
//! plain `Vec` indexed by that id, and the replay pass tests membership
//! with a per-id flag. Everything is dense: open-addressing Fx-hash maps
//! ([`DenseMap`]), slab-allocated bucket lists with free-list + arena
//! reuse, and plain per-process and per-id vectors. Steady-state ingest
//! performs no heap allocation and no SipHash — every structure reaches
//! its working-set high-water mark and then only reuses memory (asserted
//! by the counting-allocator harness in `tests/stream_alloc.rs`).

use vermem_trace::{Addr, Value};
use vermem_util::densemap::DenseMap;

/// One interned address: its router id (first-touch order over the whole
/// stream), its shard lane, and its dense id within that lane.
#[derive(Clone, Copy)]
struct Interned {
    id: u32,
    lane: u32,
    local: u32,
}

/// Router-level tables on the Fx hash stream: declared initial/final
/// values plus the address intern table.
#[derive(Default)]
pub(crate) struct DenseRouter {
    initials: DenseMap<u32, Value>,
    finals: DenseMap<u32, Value>,
    ids: DenseMap<u32, Interned>,
    /// Addresses interned so far per lane.
    lane_len: Vec<u32>,
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

    /// The addresses that carry a declared final value but no operation,
    /// as `(addr, initial, final)`. Each is a VMC instance with no
    /// operations, laid out at end of stream. O(final values).
    pub(crate) fn final_only(&self) -> impl Iterator<Item = (Addr, Value, Value)> + '_ {
        self.finals
            .iter()
            .filter(|&(a, _)| !self.ids.contains(a))
            .map(|(a, &f)| {
                let initial = self.initials.get(a).copied().unwrap_or(Value::INITIAL);
                (Addr(a), initial, f)
            })
    }

    /// Addresses interned so far; router ids are `0..len()`.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The router id of `addr`, if the stream has touched it.
    #[inline]
    pub(crate) fn id(&self, addr: Addr) -> Option<u32> {
        self.ids.get(addr.0).map(|i| i.id)
    }

    /// Route `addr` over `lanes` shard lanes (`0` = one inline shard):
    /// returns its lane, its lane-local dense id, and on first touch only
    /// its `(initial, declared final)`.
    #[inline]
    pub(crate) fn intern(
        &mut self,
        addr: Addr,
        lanes: usize,
    ) -> (usize, u32, Option<(Value, Option<Value>)>) {
        let mut first = false;
        let next_id = self.ids.len() as u32;
        let lane_len = &mut self.lane_len;
        let interned = *self.ids.get_or_insert_with(addr.0, || {
            first = true;
            let lane = if lanes == 0 { 0 } else { shard_of(addr, lanes) };
            if lane_len.len() <= lane {
                lane_len.resize(lane + 1, 0);
            }
            let local = lane_len[lane];
            lane_len[lane] += 1;
            Interned {
                id: next_id,
                lane: lane as u32,
                local,
            }
        });
        let meta = first.then(|| {
            (
                self.initials.get(addr.0).copied().unwrap_or(Value::INITIAL),
                self.finals.get(addr.0).copied(),
            )
        });
        (interned.lane as usize, interned.local, meta)
    }
}

/// Deterministic address→shard assignment (Fibonacci-hash the address).
fn shard_of(addr: Addr, shards: usize) -> usize {
    let h = u64::from(addr.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}
