//! Pinned digests of [`AddrIndex::build`] over seeded trace corpora.
//!
//! Every entry of every corpus trace's index is rendered with its `Debug`
//! text (the per-process lists and refs, `d_I`, `d_F`, the value
//! numbering, the write counts, every operation's value ids and the cached
//! structure) and folded into one FNV-1a digest per family, next to counts
//! that show the corpus reaches the shapes the numbering must handle:
//!
//! * `gen`: `gen_sc_trace` executions over six addresses with RMWs and
//!   value reuse, each with an idle process declared in the middle, a
//!   final value on an address no operation touches, a final value on a
//!   touched address, and an initial value that some operation writes
//!   again (a write of `d_I`);
//! * `corrupt`: the same executions with a read of a value nobody writes
//!   injected (values that are only read);
//! * `unique`: longer executions of unique writes over eight addresses,
//!   the read-map class that dominates bulk captures;
//! * `small`: every trace of the small scope, with and without final and
//!   initial values on touched and untouched addresses.
//!
//! The table was recorded before the index's fill pass stopped probing
//! the address map and its numbering went from four passes to two; a
//! change to the index that moves any entry fails here.

use vermem_trace::gen::{
    gen_sc_trace, inject_violation, small_traces, GenConfig, SmallScope, ViolationKind,
};
use vermem_trace::{Addr, AddrIndex, ProcessHistory, Trace};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Counts and digest of one family's indexes.
#[derive(Default)]
struct Family {
    traces: u64,
    entries: u64,
    ops: u64,
    final_only: u64,
    initial_rewritten: u64,
    rmw: u64,
    only_read: u64,
    idle_procs: u64,
    digest: u64,
}

impl Family {
    fn new() -> Family {
        Family {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Family::default()
        }
    }

    fn add(&mut self, trace: &Trace) {
        self.traces += 1;
        self.idle_procs += trace.histories().iter().filter(|h| h.is_empty()).count() as u64;
        for e in AddrIndex::build(trace).iter() {
            self.entries += 1;
            self.ops += e.num_ops() as u64;
            self.final_only += u64::from(e.is_empty() && e.final_value().is_some());
            self.initial_rewritten += u64::from(e.writes_of(0) > 0);
            self.rmw += u64::from(e.has_rmw());
            let read_ids =
                e.values().len() as u32 - u32::from(e.final_id() >= Some(e.memory_ids()));
            self.only_read += u64::from(read_ids > e.memory_ids());
            self.digest = fnv(self.digest, format!("{e:?}\n").as_bytes());
        }
    }

    fn line(&self, name: &str) -> String {
        format!(
            "{name} traces={} entries={} ops={} final-only={} d_I-rewritten={} rmw={} \
             only-read={} idle-procs={} digest={:016x}\n",
            self.traces,
            self.entries,
            self.ops,
            self.final_only,
            self.initial_rewritten,
            self.rmw,
            self.only_read,
            self.idle_procs,
            self.digest
        )
    }
}

/// `gen_sc_trace` over six addresses with RMWs and value reuse.
fn gen_trace(seed: u64) -> Trace {
    gen_sc_trace(&GenConfig {
        procs: 4,
        total_ops: 160,
        addrs: 6,
        rmw_fraction: 0.2,
        value_reuse: 0.4,
        seed,
        ..Default::default()
    })
    .0
}

/// `trace` with an idle process declared after process 1, a final value
/// on untouched address 40 and on address 0, and address 1's initial
/// value set to the first value written there.
fn decorate(trace: &Trace) -> Trace {
    let mut histories = trace.histories().to_vec();
    histories.insert(2.min(histories.len()), ProcessHistory::new());
    let mut out = Trace::from_histories(histories);
    for (&addr, &v) in trace.initial_values() {
        out.set_initial(addr, v);
    }
    for (&addr, &v) in trace.final_values() {
        out.set_final(addr, v);
    }
    let first_write = |addr: Addr| {
        trace
            .iter_ops()
            .find_map(|(_, op)| op.written_value().filter(|_| op.addr() == addr))
    };
    if let Some(v) = first_write(Addr(1)) {
        out.set_initial(1u32, v);
    }
    if let Some(v) = trace
        .iter_ops()
        .filter(|(_, op)| op.addr() == Addr::ZERO)
        .find_map(|(_, op)| op.read_value())
    {
        out.set_final(0u32, v);
    }
    out.set_final(40u32, 7u64);
    out
}

#[test]
fn index_entries_match_pinned_digests() {
    let mut gen = Family::new();
    let mut corrupt = Family::new();
    for seed in 1..=40 {
        let trace = gen_trace(seed);
        gen.add(&trace);
        gen.add(&decorate(&trace));
        for k in 0..3 {
            if let Some((bad, _)) =
                inject_violation(&trace, ViolationKind::CorruptReadValue, seed * 3 + k)
            {
                corrupt.add(&decorate(&bad));
            }
        }
    }
    let mut unique = Family::new();
    for seed in 1..=8 {
        let (trace, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 2000,
            addrs: 8,
            value_reuse: 0.0,
            seed,
            ..Default::default()
        });
        unique.add(&trace);
    }
    let mut small = Family::new();
    let scope = SmallScope {
        max_ops: 3,
        addrs: 2,
        values: 3,
    };
    small_traces(&scope, |t| {
        small.add(t);
        let mut t = t.clone();
        t.set_final(0u32, 1u64);
        t.set_final(5u32, 4u64);
        t.set_initial(1u32, 2u64);
        small.add(&t);
    });
    let table =
        gen.line("gen") + &corrupt.line("corrupt") + &unique.line("unique") + &small.line("small");
    assert!(
        table == include_str!("golden/index_digest.txt"),
        "an index entry changed; the new table is:\n{table}"
    );
}
