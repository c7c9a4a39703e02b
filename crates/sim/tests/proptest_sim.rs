//! Property tests for the simulators: for *arbitrary* programs, the
//! snooping machine without store buffers is sequentially consistent, the
//! TSO machine satisfies TSO, the directory machine is SC, and both
//! capture write orders that re-verify through the §5.2 fast path.

use vermem_consistency::{verify_axiom, AxiomConfig, ConsistencyVerdict, ModelId};
use vermem_sim::{
    DirectoryConfig, DirectoryMachine, Instr, Machine, MachineConfig, Program, RmwKind,
};
use vermem_trace::{Addr, AddrIndex, Trace, Value};
use vermem_util::prop::PropConfig;
use vermem_util::rng::StdRng;
use vermem_util::{prop_assert, prop_check};

fn arb_instr(rng: &mut StdRng, addrs: u32, next_val: &mut u64) -> Instr {
    let addr = Addr(rng.gen_range(0..addrs));
    match rng.gen_range(0..10u8) {
        0..=3 => Instr::Read(addr),
        4..=6 => {
            let v = *next_val;
            *next_val += 1;
            Instr::Write(addr, Value(v))
        }
        7 => Instr::Rmw(addr, RmwKind::Increment),
        8 => Instr::Rmw(addr, RmwKind::Swap(Value(1_000_000 + u64::from(addr.0)))),
        _ => Instr::Fence,
    }
}

/// 1–3 CPUs, each with up to `size` (≤ 12) instructions; distinct write
/// values so read provenance is unambiguous.
fn arb_program(rng: &mut StdRng, size: usize) -> Program {
    let mut next_val = 1u64;
    let cpus = rng.gen_range(1..4usize);
    let streams: Vec<Vec<Instr>> = (0..cpus)
        .map(|_| {
            let len = rng.gen_range(0..=size.min(12));
            (0..len).map(|_| arb_instr(rng, 3, &mut next_val)).collect()
        })
        .collect();
    Program::from_streams(streams)
}

/// The default (compiled) decision of `trace` under `id`.
fn decide(trace: &Trace, id: ModelId) -> ConsistencyVerdict {
    verify_axiom(trace, id, &AxiomConfig::default()).verdict
}

fn arb_case(rng: &mut StdRng, size: usize, max_seed: u64) -> (Program, u64) {
    let program = arb_program(rng, size);
    (program, rng.gen_range(0..max_seed))
}

#[test]
fn snooping_sc_machine_is_sequentially_consistent() {
    prop_check!(
        PropConfig::with_cases(64),
        |rng, size| arb_case(rng, size, 1000),
        |(program, seed): &(Program, u64)| {
            let cap = Machine::run(
                program,
                MachineConfig {
                    seed: *seed,
                    ..Default::default()
                },
            );
            let v = decide(&cap.trace, ModelId::Sc);
            prop_assert!(v.is_consistent(), "trace: {:?}", cap.trace);
            Ok(())
        }
    );
}

#[test]
fn tso_machine_satisfies_tso() {
    prop_check!(
        PropConfig::with_cases(64),
        |rng, size| arb_case(rng, size, 1000),
        |(program, seed): &(Program, u64)| {
            let cap = Machine::run(
                program,
                MachineConfig {
                    store_buffers: true,
                    seed: *seed,
                    ..Default::default()
                },
            );
            let v = decide(&cap.trace, ModelId::Tso);
            prop_assert!(v.is_consistent(), "trace: {:?}", cap.trace);
            Ok(())
        }
    );
}

#[test]
fn directory_machine_is_sequentially_consistent() {
    prop_check!(
        PropConfig::with_cases(64),
        |rng, size| arb_case(rng, size, 1000),
        |(program, seed): &(Program, u64)| {
            let cap = DirectoryMachine::run(
                program,
                DirectoryConfig {
                    seed: *seed,
                    ..Default::default()
                },
            );
            let v = decide(&cap.trace, ModelId::Sc);
            prop_assert!(v.is_consistent(), "trace: {:?}", cap.trace);
            Ok(())
        }
    );
}

#[test]
fn write_orders_reverify_on_both_machines() {
    prop_check!(
        PropConfig::with_cases(64),
        |rng, size| arb_case(rng, size, 500),
        |(program, seed): &(Program, u64)| {
            let snoop = Machine::run(
                program,
                MachineConfig {
                    seed: *seed,
                    ..Default::default()
                },
            );
            let index = AddrIndex::build(&snoop.trace);
            for (addr, order) in &snoop.write_order {
                let ops = index.get(*addr).unwrap();
                prop_assert!(vermem_coherence::solve_with_write_order(ops, order).is_coherent());
            }
            let dir = DirectoryMachine::run(
                program,
                DirectoryConfig {
                    seed: *seed,
                    ..Default::default()
                },
            );
            let index = AddrIndex::build(&dir.trace);
            for (addr, order) in &dir.write_order {
                let ops = index.get(*addr).unwrap();
                prop_assert!(vermem_coherence::solve_with_write_order(ops, order).is_coherent());
            }
            Ok(())
        }
    );
}

#[test]
fn tiny_caches_stay_coherent() {
    prop_check!(
        PropConfig::with_cases(64),
        |rng, size| arb_case(rng, size, 200),
        |(program, seed): &(Program, u64)| {
            // A single-line cache maximizes evictions and writebacks.
            let cap = Machine::run(
                program,
                MachineConfig {
                    cache_lines: 1,
                    seed: *seed,
                    ..Default::default()
                },
            );
            prop_assert!(vermem_coherence::verify_execution(&cap.trace).is_coherent());
            Ok(())
        }
    );
}
