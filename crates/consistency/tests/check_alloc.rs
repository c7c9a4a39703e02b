//! Counting-allocator harness for one compiled check.
//!
//! A `verify_axiom` call allocates its answer, not its search: the
//! exact-search kernel borrows its visited-state memo, its key scratch and
//! its one flat move stack from a per-thread arena, and the index, the
//! serialization machine and the schedule certificate size their tables
//! once. This binary installs a counting `#[global_allocator]` and asserts
//! two things:
//!
//! 1. A warm `run_search` over a `CompiledMachine` allocates the same
//!    number of times on every instance of a family whose state count
//!    grows more than tenfold (and whose search depth grows with it).
//! 2. A consistent SC `verify_axiom` call on the `models-batch` shape
//!    (3 processes, 36 operations, 3 addresses) allocates at most
//!    [`SC_CALL_BUDGET`] times. On failure it prints the split: index,
//!    machine, search and certificate.
//!
//! It then prints, informationally, the mean allocations per warm call of
//! each declared model over a generated corpus of that shape, and last
//! checks that the `kernel.memo.key_allocs` counter still counts one
//! search's long-key prefixes.
//!
//! The binary is `harness = false` (see `frontline_alloc.rs` in
//! `vermem-coherence`): libtest's own threads allocate and would race the
//! process-global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vermem_coherence::kernel::{run_search, KernelConfig, KernelOutcome};
use vermem_coherence::machine::{BufferKind, CompiledMachine};
use vermem_coherence::Tier;
use vermem_consistency::{verify_axiom, AxiomConfig, ModelId};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::{
    check_serialization, Addr, AddrIndex, AddrOps, Op, Schedule, Trace, TraceBuilder,
};
use vermem_util::obs;

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

/// The most allocations one consistent SC check of the `models-batch`
/// shape may make.
const SC_CALL_BUDGET: u64 = 50;
/// Processes, operations and addresses of a `models-batch` trace.
const SHAPE: (usize, usize, usize) = (3, 36, 3);
/// Writes per writer process in the search family, smallest first.
const WRITES: [u64; 5] = [2, 3, 4, 6, 8];

/// Allocations made by `f`, and its result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// A refuted one-address instance whose search visits a lattice: three
/// processes write `n` fresh values each, and a fourth reads process 0's
/// last value and then its first, which no schedule serves.
fn search_instance(n: u64) -> AddrOps {
    let mut b = TraceBuilder::new();
    for p in 0..3 {
        b = b.proc((0..n).map(|j| Op::w(1 + p * n + j)));
    }
    b = b.proc([Op::r(n), Op::r(1)]);
    AddrOps::of(&b.build(), Addr::ZERO)
}

/// A warm search allocates the same amount on every instance of the
/// family, however many states it visits and however deep it goes.
fn search_is_flat() {
    let instances: Vec<AddrOps> = WRITES.iter().map(|&n| search_instance(n)).collect();
    let search = |ops: &AddrOps| {
        let mut sys = CompiledMachine::new([ops], BufferKind::Atomic);
        allocs_of(|| run_search(&mut sys, &KernelConfig::default(), None))
    };
    // Warm the arena on every instance, the largest last.
    for ops in &instances {
        search(ops);
    }
    let mut counts = Vec::new();
    let mut states = Vec::new();
    for ops in &instances {
        let (count, (outcome, stats)) = search(ops);
        assert_eq!(outcome, KernelOutcome::Refuted);
        counts.push(count);
        states.push(stats.states);
    }
    assert!(
        states[states.len() - 1] >= 10 * states[0],
        "the family must grow tenfold: {states:?} states"
    );
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "run_search: {counts:?} allocations at {states:?} states"
    );
    println!(
        "check_alloc: a warm run_search allocates {} times at {states:?} states — ok",
        counts[0]
    );
}

fn models_batch_trace(seed: u64, value_reuse: f64) -> Trace {
    gen_sc_trace(&GenConfig {
        procs: SHAPE.0,
        total_ops: SHAPE.1,
        addrs: SHAPE.2,
        value_reuse,
        seed,
        ..Default::default()
    })
    .0
}

/// The allocations of one SC check's parts, in the order the check runs
/// them: index, machine, search and certificate.
fn sc_split(trace: &Trace) -> [u64; 4] {
    let (index, idx) = allocs_of(|| AddrIndex::build(trace));
    let (machine, mut sys) = allocs_of(|| CompiledMachine::new(idx.iter(), BufferKind::Atomic));
    let (search, (outcome, _)) = allocs_of(|| run_search(&mut sys, &KernelConfig::default(), None));
    let KernelOutcome::Accepted(order) = outcome else {
        panic!("an SC execution has an SC order")
    };
    let (certificate, ok) = allocs_of(|| {
        let schedule = Schedule::from_refs(order);
        check_serialization(trace, &idx, &[[true; 3]; 3], &schedule).is_ok()
    });
    assert!(ok);
    [index, machine, search, certificate]
}

/// Consistent SC checks the exact tier decides stay within the budget.
fn sc_call_is_lean() {
    let cfg = AxiomConfig::default();
    let traces: Vec<Trace> = (1..=40)
        .map(|seed| models_batch_trace(seed, 0.3))
        .filter(|t| {
            let report = verify_axiom(t, ModelId::Sc, &cfg);
            report.verdict.is_consistent() && report.tier == Tier::Exact
        })
        .collect();
    assert!(traces.len() >= 20, "{} exact SC traces", traces.len());
    let mut worst = 0;
    for trace in &traces {
        let (count, report) = allocs_of(|| verify_axiom(trace, ModelId::Sc, &cfg));
        assert!(report.verdict.is_consistent());
        if count > SC_CALL_BUDGET {
            let [index, machine, search, certificate] = sc_split(trace);
            panic!(
                "a consistent SC check made {count} allocations (budget {SC_CALL_BUDGET}): \
                 index {index}, machine {machine}, search {search}, certificate {certificate}"
            );
        }
        worst = worst.max(count);
    }
    let split = sc_split(&traces[0]);
    println!(
        "check_alloc: {} consistent SC checks allocate at most {worst} times \
         (index, machine, search, certificate of the first: {split:?}) — ok",
        traces.len()
    );
}

/// Mean allocations per warm call of every model over a generated corpus
/// of the `models-batch` shape: traces whose writes reuse values, and
/// traces with unique write values. Informational.
fn per_model_table() {
    let cfg = AxiomConfig::default();
    let traces: Vec<Trace> = (1..=40)
        .map(|seed| models_batch_trace(seed, 0.3))
        .chain((1..=10).map(|seed| models_batch_trace(seed, 0.0)))
        .collect();
    for id in ModelId::ALL {
        let mut total = 0;
        for trace in &traces {
            verify_axiom(trace, id, &cfg);
            total += allocs_of(|| verify_axiom(trace, id, &cfg)).0;
        }
        println!(
            "check_alloc: {:<9} {:>7.1} allocations per call over {} traces",
            id.name(),
            total as f64 / traces.len() as f64,
            traces.len()
        );
    }
}

/// `kernel.memo.key_allocs` counts one search's long-key prefixes, not
/// its thread's: the same search twice on one thread reports the same
/// count each time. Runs last, since recording allocates.
fn key_allocs_stay_per_search() {
    // 70 processes, each writing and reading its own address: the
    // frontier and memory fields fill four words, so every key lands in
    // the memo's long tier, and the search goes straight down.
    let trace = (0..70u32)
        .fold(TraceBuilder::new(), |b, p| {
            b.proc([Op::write(p, 1u64), Op::read(p, 1u64)])
        })
        .build();
    let idx = AddrIndex::build(&trace);
    let key_allocs = || {
        let mut sys = CompiledMachine::new(idx.iter(), BufferKind::Atomic);
        let before = obs::snapshot()
            .counters
            .get("kernel.memo.key_allocs")
            .copied();
        let (outcome, _) = run_search(&mut sys, &KernelConfig::default(), None);
        assert!(matches!(outcome, KernelOutcome::Accepted(_)));
        let after = obs::snapshot().counters["kernel.memo.key_allocs"];
        after - before.unwrap_or(0)
    };
    obs::set_enabled(true);
    let counts = [key_allocs(), key_allocs(), key_allocs()];
    obs::set_enabled(false);
    assert!(counts[0] > 0, "the keys must reach the long tier");
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "kernel.memo.key_allocs per search: {counts:?}"
    );
    println!(
        "check_alloc: kernel.memo.key_allocs reads {} on each of three searches — ok",
        counts[0]
    );
}

fn main() {
    search_is_flat();
    sc_call_is_lean();
    per_model_table();
    key_allocs_stay_per_search();
}
