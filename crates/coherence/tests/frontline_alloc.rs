//! Counting-allocator harness for the per-address frontline.
//!
//! Every VMC instance carries one value numbering ([`AddrOps::values`]),
//! so the read-map fast path and the closure frontline index their
//! per-value tables by dense id and allocate per call, not per value.
//! This binary installs a counting `#[global_allocator]` and asserts that
//! the number of allocations of one `solve_readmap_ops` call and of one
//! `closure::analyze_ops` call is the same on instances that differ only
//! in how many distinct values they use. Each family keeps the operation
//! count and the shape of every read's serving candidates fixed while the
//! distinct values grow from 4 to 128.
//!
//! The binary is `harness = false` (see `stream_alloc.rs`): libtest's own
//! threads allocate and would race the process-global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vermem_coherence::closure::{self, ClosureOutcome};
use vermem_coherence::readmap::{applicable_ops, solve_readmap_ops};
use vermem_trace::{Addr, AddrOps, Op, TraceBuilder};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Distinct values per instance, smallest first.
const VALUES: [u64; 6] = [4, 8, 16, 32, 64, 128];
const PROCS: u64 = 4;
/// Write/read pairs per process.
const PAIRS: u64 = 32;

/// Allocations made by `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    drop(out);
    delta
}

/// Read-map instances: process 0 writes `k` distinct values once each,
/// in order, and three more processes read them in the same order, for
/// 256 operations in all. Every instance is coherent.
fn readmap_instance(k: u64) -> AddrOps {
    let total = PROCS * 2 * PAIRS;
    let readers = PROCS - 1;
    let mut b = TraceBuilder::new().proc((1..=k).map(Op::w));
    for p in 0..readers {
        let reads = (total - k) / readers + u64::from(p < (total - k) % readers);
        b = b.proc((0..reads).map(|j| Op::r(1 + j * k / reads)));
    }
    AddrOps::of(&b.build(), Addr::ZERO)
}

/// Closure instances: each process repeats `W(v) R(v)` over its own
/// share of `k` values, so every value is written by one process only and
/// every read has exactly one serving candidate (its own write) whatever
/// `k` is; 256 operations in all.
fn closure_instance(k: u64) -> AddrOps {
    let per_proc = k / PROCS;
    let mut b = TraceBuilder::new();
    for p in 0..PROCS {
        b = b.proc((0..PAIRS).flat_map(|j| {
            let v = 1 + p + PROCS * (j % per_proc);
            [Op::w(v), Op::r(v)]
        }));
    }
    AddrOps::of(&b.build(), Addr::ZERO)
}

/// Warm every instance once (the closure keeps per-thread scratch that
/// grows to the largest instance), then count one more call on each and
/// require the same count at every value count.
fn check<T>(name: &str, instances: &[AddrOps], call: impl Fn(&AddrOps) -> T) {
    for ops in instances {
        assert_eq!(ops.num_ops() as u64, PROCS * 2 * PAIRS);
        drop(call(ops));
    }
    let counts: Vec<u64> = instances
        .iter()
        .map(|ops| allocs_of(|| call(ops)))
        .collect();
    for (ops, &count) in instances.iter().zip(&counts) {
        assert_eq!(
            count,
            counts[0],
            "{name}: {count} allocations with {} values, {} with {}",
            ops.values().len(),
            counts[0],
            instances[0].values().len()
        );
    }
    println!(
        "frontline_alloc: {name} allocates {} times per call at {:?} distinct values — ok",
        counts[0], VALUES
    );
}

fn main() {
    let readmap: Vec<AddrOps> = VALUES.iter().map(|&k| readmap_instance(k)).collect();
    for (ops, &k) in readmap.iter().zip(&VALUES) {
        assert!(applicable_ops(ops));
        assert!(solve_readmap_ops(ops).is_coherent());
        assert_eq!(ops.values().len() as u64, k + 1);
    }
    check("solve_readmap_ops", &readmap, solve_readmap_ops);

    let frontline: Vec<AddrOps> = VALUES.iter().map(|&k| closure_instance(k)).collect();
    for (ops, &k) in frontline.iter().zip(&VALUES) {
        assert_eq!(ops.values().len() as u64, k + 1);
        let (outcome, _) = closure::analyze_ops(ops);
        assert!(
            matches!(outcome, ClosureOutcome::Coherent(_)),
            "{outcome:?}"
        );
    }
    check("closure::analyze_ops", &frontline, closure::analyze_ops);
}
