//! Violation explanation: shrink a large faulty execution down to the
//! handful of operations that actually conflict (a 1-minimal incoherent
//! core), the way a protocol engineer would want a failing trace reported.
//!
//! ```sh
//! cargo run --release --example minimal_core
//! ```

use vermem::coherence::{minimize_incoherent_core, verify_execution, ExplainConfig};
use vermem::sim::{random_program, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem::trace::{Addr, AddrOps};

fn main() {
    // Run a random workload with a corrupted cache fill: some read returns
    // a value nothing ever wrote.
    let mut shown = false;
    for seed in 0..50 {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: 30,
            addrs: 1,
            write_fraction: 0.45,
            rmw_fraction: 0.0,
            seed,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed,
                faults: vec![FaultPlan {
                    kind: FaultKind::CorruptFill {
                        cpu: 2,
                        xor: 0xBAD0,
                    },
                    at_step: 10,
                }],
                ..Default::default()
            },
        );
        if verify_execution(&cap.trace).is_coherent() {
            continue; // this seed's fault was masked; try another
        }

        println!(
            "faulty run (seed {seed}): {} operations, final value = {:?}",
            cap.trace.num_ops(),
            cap.final_memory.get(&Addr(0)).map(|v| v.0)
        );

        let instance = AddrOps::of(&cap.trace, Addr(0));
        let core = minimize_incoherent_core(&instance, &ExplainConfig::default())
            .expect("run is incoherent");
        println!(
            "minimal incoherent core: {} of {} operations —",
            core.len(),
            cap.trace.num_ops()
        );
        for (r, op) in core.ops.iter() {
            println!("  {r:?}  {op}");
        }
        println!("cause: {}", core.violation);
        shown = true;
        break;
    }
    assert!(shown, "no seed produced a detectable violation");
}
