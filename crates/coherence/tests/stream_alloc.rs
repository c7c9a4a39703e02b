//! Counting-allocator harness for the streaming hot path.
//!
//! The streaming engine promises that steady-state ingest performs *no*
//! heap allocation: every table, bucket, queue, scratch buffer, and
//! retention vector reaches its working-set high-water mark during warmup
//! and then only reuses memory. This binary installs a counting
//! `#[global_allocator]` and asserts exactly that on a single-threaded
//! (`jobs = 1`) engine — warm up on the front of a long stream, then
//! require the allocation counter to stay put across the middle chunks —
//! for two streams: reads of one value, and value churn that keeps the
//! placement monitor opening and clearing slot buckets.
//! (The library crates `forbid(unsafe_code)`; the allocator shim lives
//! here, in an integration-test binary, where the forbid does not apply.)
//!
//! The binary is `harness = false`: libtest's own threads (output
//! capture, timing) allocate and would race the process-global counter,
//! so the whole check runs as a plain single-threaded `main()`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use vermem_coherence::{StreamConfig, StreamVerifier, VmcVerifier};
use vermem_trace::binary::encode_event_stream;
use vermem_trace::{Op, ProcId};

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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Ingest `events` through a single-threaded engine with a 16-slot
/// window: warm up on the first quarter of the chunks, count allocations
/// over the middle half, then ingest the rest and end the input. Returns
/// the engine, the allocation count and the number of measured events.
fn ingest_measured(events: &[(ProcId, Op)]) -> (StreamVerifier, u64, u64) {
    let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), events);
    let mut engine = StreamVerifier::new(StreamConfig {
        window: Some(16),
        jobs: 1,
        temporal: false,
        verifier: VmcVerifier::new(),
        recorder: None,
        ..Default::default()
    });

    const CHUNK: usize = 4096;
    let chunks: Vec<&[u8]> = bytes.chunks(CHUNK).collect();
    let warmup = chunks.len() / 4;
    let measured = chunks.len() * 3 / 4;

    for piece in &chunks[..warmup] {
        engine.ingest(piece).expect("stream decodes");
    }
    let warm_events = engine.events();
    assert!(warm_events > 10_000, "warmup must cover real ingest volume");

    let before = allocs();
    for piece in &chunks[warmup..measured] {
        engine.ingest(piece).expect("stream decodes");
    }
    let delta = allocs() - before;
    let measured_events = engine.events() - warm_events;
    assert!(
        measured_events > 50_000,
        "measured span must be substantial"
    );

    for piece in &chunks[measured..] {
        engine.ingest(piece).expect("stream decodes");
    }
    engine.end_input().expect("clean end of stream");
    assert_eq!(engine.events(), events.len() as u64);
    (engine, delta, measured_events)
}

fn main() {
    // Phase 1, a steady-state workload: one write, then a long run of
    // reads of that value alternating between two processes. Every read
    // places immediately (no deferred queues grow), the value table stays
    // at fixed size, and window retirement drains the retention buffer in
    // place — so after warmup the per-event path has nothing left to
    // grow.
    let mut events: Vec<(ProcId, Op)> = vec![(ProcId(0), Op::w(1u64))];
    for i in 0..200_000usize {
        events.push((ProcId((i % 2) as u16), Op::r(1u64)));
    }
    let (engine, delta, measured_events) = ingest_measured(&events);
    assert_eq!(
        delta, 0,
        "steady-state ingest allocated {delta} times over {measured_events} events"
    );
    assert!(!engine.needs_replay(), "sealed workload needs no replay");
    let report = engine.finish();
    assert!(report.is_coherent(), "workload is coherent by construction");
    println!("stream_alloc: {measured_events} steady-state events allocated 0 times — ok");

    // Phase 2, bucket churn: write/read pairs of 64 unique values (so the
    // window retires the retention buffer), then write/read pairs cycling
    // through ten values. With a 16-slot window each value keeps moving
    // between one live slot (inline in its value row) and two (a bucket),
    // so the monitor opens and clears a bucket every few events; a cleared
    // bucket's index must be reused before the bucket vector grows.
    let mut events: Vec<(ProcId, Op)> = Vec::new();
    let values = (1..=64u64).chain((0..100_000u64).map(|i| 100 + i % 10));
    for v in values {
        events.push((ProcId(0), Op::w(v)));
        events.push((ProcId(1), Op::r(v)));
    }
    let (_, delta, measured_events) = ingest_measured(&events);
    assert_eq!(
        delta, 0,
        "bucket churn allocated {delta} times over {measured_events} events"
    );
    println!("stream_alloc: {measured_events} bucket-churn events allocated 0 times — ok");
}
