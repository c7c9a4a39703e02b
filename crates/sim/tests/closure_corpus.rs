//! Pinned digests of the closure frontline on the traffic `vmcbench`'s
//! `verify-batch` workload serves.
//!
//! Two families, 40 seeds each, built by the in-tree generators only:
//!
//! * `rmw-capture`: MESI-simulator captures of random 4-CPU programs with
//!   75 instructions per CPU over 4 addresses, 45% writes and 10%
//!   read-modify-writes, the machine seeded with the program's seed;
//! * `gen-reuse`: `gen_sc_trace` executions of 320 operations over 8
//!   addresses in which a write reuses an earlier value with probability
//!   0.3.
//!
//! Every address the dispatcher sends to the general tier (the Figure 5.3
//! fast paths do not apply) runs through `closure::analyze_ops`. Its
//! outcome in full (witness schedule, violation, or every op's `[lo, hi]`
//! window) and its `SearchStats` are rendered as one line, and each
//! family's lines are folded into one FNV-1a digest next to the outcome
//! counts. `frontline.txt` (coherence crate) pins boundary instances;
//! this table pins the bulk traffic, so a change to the closure's
//! fixpoint that moves any window, witness or counter on it shows here.

use std::fmt::Write as _;
use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::{Algorithm, VmcVerifier};
use vermem_sim::{random_program, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::{AddrOps, Trace};

const SEEDS: u64 = 40;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rmw_capture(seed: u64) -> Trace {
    let program = random_program(&WorkloadConfig {
        cpus: 4,
        instrs_per_cpu: 75,
        addrs: 4,
        write_fraction: 0.45,
        rmw_fraction: 0.1,
        seed,
    });
    let config = MachineConfig {
        seed,
        ..Default::default()
    };
    Machine::run(&program, config).trace
}

fn gen_reuse(seed: u64) -> Trace {
    gen_sc_trace(&GenConfig {
        procs: 4,
        total_ops: 320,
        addrs: 8,
        value_reuse: 0.3,
        seed,
        ..Default::default()
    })
    .0
}

/// The closure's outcome on `ops` in full, with its stats.
fn render(ops: &AddrOps) -> String {
    let (outcome, stats) = analyze_ops(ops);
    let mut line = match &outcome {
        ClosureOutcome::Coherent(s) => format!("Coherent {s:?}"),
        ClosureOutcome::Violation(v) => format!("Violation {v:?}"),
        ClosureOutcome::Escalate(table) => {
            let mut w = String::from("Escalate");
            for (p, h) in ops.per_proc().iter().enumerate() {
                for j in 0..h.len() as u32 {
                    let (lo, hi) = table.window(p, j);
                    write!(w, " {p}.{j}:{lo}-{hi}").unwrap();
                }
            }
            w
        }
    };
    write!(line, " | {stats:?}").unwrap();
    line
}

/// One table line for a family: addresses seen, closure-bound addresses,
/// the three outcome counts and the digest of every rendered outcome.
fn family(name: &str, trace_of: impl Fn(u64) -> Trace) -> String {
    let verifier = VmcVerifier::new();
    let (mut addrs, mut bound, mut counts) = (0, 0, [0u32; 3]);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for seed in 1..=SEEDS {
        let trace = trace_of(seed);
        for addr in trace.addresses() {
            addrs += 1;
            let ops = AddrOps::of(&trace, addr);
            if verifier.select_ops(&ops) != Algorithm::Backtracking {
                continue;
            }
            bound += 1;
            let line = render(&ops);
            counts[match line.split(' ').next() {
                Some("Coherent") => 0,
                Some("Violation") => 1,
                _ => 2,
            }] += 1;
            digest = fnv(digest, format!("{seed} {addr:?} {line}\n").as_bytes());
        }
    }
    let [coherent, violation, escalate] = counts;
    format!(
        "{name} seeds={SEEDS} addrs={addrs} closure={bound} coherent={coherent} \
         violation={violation} escalate={escalate} digest={digest:016x}\n"
    )
}

#[test]
fn closure_outcomes_on_bench_shaped_traffic_match_pinned_digests() {
    let table = family("rmw-capture", rmw_capture) + &family("gen-reuse", gen_reuse);
    assert!(
        table == include_str!("golden/closure_corpus.txt"),
        "a closure outcome changed; the new table is:\n{table}"
    );
}
