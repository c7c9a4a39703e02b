//! Pinned FNV-1a digests of every field of a [`CapturedExecution`]: the
//! trace (via [`format_trace`]), the write order, the event log, the final
//! memory and the run statistics.
//!
//! The runs cover the machine in SC mode and in TSO mode (store buffer
//! capacity 1 and 4, drain probability 0.1 and 0.3), every [`FaultKind`]
//! in both modes, programs that use every RMW kind and fences, small
//! caches that force evictions, and the three simulator shapes the
//! `vmcbench` workloads prepare their inputs from. A change to the
//! simulator that moves any draw of the scheduler, any commit or any
//! counter changes a digest; the table is only re-recorded for an
//! intended behaviour change.

use std::fmt::Write as _;
use vermem_sim::{
    random_program, CapturedExecution, FaultKind, FaultPlan, Instr, Machine, MachineConfig,
    Program, RmwKind, WorkloadConfig,
};
use vermem_trace::fmt::format_trace;
use vermem_trace::{Op, ProcId, Value};

/// FNV-1a over `bytes`.
fn fnv_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv_bytes(words.into_iter().flat_map(u64::to_le_bytes))
}

/// An event: its process, a kind tag, the address and the value(s).
fn event_words(&(proc, op): &(ProcId, Op)) -> Vec<u64> {
    let p = u64::from(proc.0);
    match op {
        Op::Read { addr, value } => vec![p, 0, addr.0.into(), value.0],
        Op::Write { addr, value } => vec![p, 1, addr.0.into(), value.0],
        Op::Rmw { addr, read, write } => vec![p, 2, addr.0.into(), read.0, write.0],
    }
}

/// `trace write_order event_log final_memory stats`, each a 16-digit hex
/// FNV-1a digest.
fn digest(cap: &CapturedExecution) -> String {
    let s = cap.stats;
    let stats = [s.hits, s.misses, s.invalidations, s.writebacks, s.drains];
    let write_order = cap.write_order.iter().flat_map(|(addr, order)| {
        let refs = order.iter().flat_map(|r| [r.proc.0.into(), r.index.into()]);
        [addr.0.into(), order.len() as u64].into_iter().chain(refs)
    });
    [
        fnv_bytes(format_trace(&cap.trace).bytes()),
        fnv(write_order),
        fnv(cap.event_log.iter().flat_map(event_words)),
        fnv(cap.final_memory.iter().flat_map(|(a, v)| [a.0.into(), v.0])),
        fnv(stats.into_iter().chain([s.steps])),
    ]
    .map(|d| format!("{d:016x}"))
    .join(" ")
}

fn program(cpus: usize, instrs: usize, addrs: usize, rmw: f64, seed: u64) -> Program {
    random_program(&WorkloadConfig {
        cpus,
        instrs_per_cpu: instrs,
        addrs,
        write_fraction: 0.45,
        rmw_fraction: rmw,
        seed,
    })
}

/// A random program in which every fifth instruction becomes, in turn, a
/// swap, a succeeding-or-failing compare-and-swap or a fence, so every
/// RMW kind and the fence path run.
fn mixed_program(seed: u64) -> Program {
    let mut streams = program(3, 40, 3, 0.1, seed).streams().to_vec();
    for stream in &mut streams {
        for (i, instr) in stream.iter_mut().enumerate() {
            let (Instr::Read(a) | Instr::Write(a, _) | Instr::Rmw(a, _)) = *instr else {
                continue;
            };
            let v = i as u64;
            *instr = match (i % 5, i / 5 % 3) {
                (4, 0) => Instr::Rmw(a, RmwKind::Swap(Value(1000 + v))),
                (4, 1) => Instr::Rmw(
                    a,
                    RmwKind::CompareAndSwap {
                        expected: Value(v % 3),
                        new: Value(2000 + v),
                    },
                ),
                (4, _) => Instr::Fence,
                _ => continue,
            };
        }
    }
    Program::from_streams(streams)
}

/// The fault kinds `vmcbench` arms, in its order.
const FAULTS: [FaultKind; 4] = [
    FaultKind::CorruptFill {
        cpu: 1,
        xor: 0xDEAD_0000,
    },
    FaultKind::LostWrite { cpu: 0 },
    FaultKind::StaleFill { cpu: 1 },
    FaultKind::DropInvalidation { victim_cpu: 2 },
];

/// A machine: (cache lines, store buffer (capacity, drain)).
type Setup = (usize, Option<(usize, f64)>);
const SC: Setup = (8, None);
const TSO: Setup = (8, Some((4, 0.3)));

/// A run of `p` on `setup` with `fault` armed.
fn run(p: &Program, seed: u64, setup: Setup, fault: Option<FaultPlan>) -> CapturedExecution {
    let ((cache_lines, tso), faults) = (setup, fault.into_iter().collect());
    let (store_buffer_capacity, drain_probability) = tso.unwrap_or((4, 0.3));
    Machine::run(
        p,
        MachineConfig {
            cache_lines,
            store_buffers: tso.is_some(),
            store_buffer_capacity,
            drain_probability,
            seed,
            faults,
        },
    )
}

/// Every pinned run, in table order: `(label, capture)`.
fn runs() -> Vec<(String, CapturedExecution)> {
    let mut out = Vec::new();
    for seed in [1, 2, 3] {
        let (p, mixed) = (program(3, 60, 3, 0.1, seed), mixed_program(seed));
        let mut cases = vec![
            ("snoop-sc".to_string(), &p, SC, None),
            ("snoop-sc-evict".to_string(), &p, (2, None), None),
        ];
        for (cap, drain) in [(1, 0.1), (1, 0.3), (4, 0.1), (4, 0.3)] {
            let label = format!("snoop-tso cap={cap} drain={drain}");
            cases.push((label, &p, (8, Some((cap, drain))), None));
        }
        cases.extend([
            ("snoop-mixed".to_string(), &mixed, SC, None),
            ("snoop-tso-mixed".to_string(), &mixed, TSO, None),
        ]);
        for (i, kind) in FAULTS.into_iter().enumerate() {
            cases.extend([
                (format!("snoop-fault{i}"), &p, SC, Some(kind)),
                (format!("snoop-tso-fault{i}"), &p, TSO, Some(kind)),
            ]);
        }
        for (label, p, setup, fault) in cases {
            let cap = run(
                p,
                seed,
                setup,
                fault.map(|kind| FaultPlan { kind, at_step: 8 }),
            );
            out.push((format!("{label} seed={seed}"), cap));
        }
        // vmcbench's shapes: a random 4-CPU program, the machine seeded
        // with the program's seed, and the `seed`-th fault armed: verify-
        // batch's RMW and faulty captures, and serve-ingest's simulator
        // streams with and without a fault.
        let kind = FAULTS[seed as usize % FAULTS.len()];
        for (label, instrs, addrs, rmw, fault_at) in [
            ("bench-rmw", 75, 4, 0.1, None),
            ("bench-faulty", 1000, 8, 0.0, Some(8)),
            ("bench-serve", 12_000, 16, 0.0, None),
            ("bench-serve-fault", 12_000, 16, 0.0, Some(20_000)),
        ] {
            let p = program(4, instrs, addrs, rmw, seed);
            let cap = run(
                &p,
                seed,
                SC,
                fault_at.map(|at_step| FaultPlan { kind, at_step }),
            );
            out.push((format!("{label} seed={seed}"), cap));
        }
    }
    out
}

#[test]
fn captures_match_pinned_digests() {
    let mut table = String::new();
    for (label, cap) in runs() {
        let _ = writeln!(table, "{label}: {}", digest(&cap));
    }
    assert!(
        table == include_str!("golden/capture_digest.txt"),
        "a capture changed; the new table is:\n{table}"
    );
}
