//! Kernel parity on *captured* executions: traces recorded from the MESI
//! simulator (healthy and fault-injected) must get the same verdict from
//! each kernel-backed operational engine (SC, TSO, PSO) as from the
//! axiomatic SAT oracle — with feasibility pruning on or off.

use vermem_consistency::{
    solve_model_sat, verify_model_operational, ConsistencyVerdict, KernelConfig, MemoryModel,
};
use vermem_sim::{random_program, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::Trace;

const OPERATIONAL: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

fn knob_grid() -> [KernelConfig; 2] {
    [true, false].map(|feasibility| KernelConfig {
        feasibility,
        ..Default::default()
    })
}

/// Assert operational/axiomatic parity on one capture; returns whether it
/// is sequentially consistent.
fn assert_capture_parity(trace: &Trace, ctx: &str) -> bool {
    let mut sc = false;
    for model in OPERATIONAL {
        let oracle = solve_model_sat(trace, model).is_consistent();
        if model == MemoryModel::Sc {
            sc = oracle;
        }
        for cfg in knob_grid() {
            let (verdict, _stats) = verify_model_operational(trace, model, &cfg);
            assert!(
                !matches!(verdict, ConsistencyVerdict::Unknown { .. }),
                "{ctx}: {model} unbudgeted capture run returned Unknown"
            );
            assert_eq!(
                verdict.is_consistent(),
                oracle,
                "{ctx}: {model} drift on capture under {cfg:?}"
            );
        }
    }
    sc
}

fn capture(seed: u64, faults: Vec<FaultPlan>) -> Trace {
    Machine::run(
        &random_program(&WorkloadConfig {
            cpus: 3,
            instrs_per_cpu: 9,
            addrs: 3,
            write_fraction: 0.45,
            rmw_fraction: 0.1,
            seed,
        }),
        MachineConfig {
            seed,
            faults,
            ..Default::default()
        },
    )
    .trace
}

#[test]
fn healthy_captures_keep_kernel_parity() {
    for seed in 0..5u64 {
        let t = capture(1_000 + seed, vec![]);
        let sc = assert_capture_parity(&t, &format!("healthy seed {seed}"));
        assert!(
            sc,
            "fault-free MESI runs are sequentially consistent (seed {seed})"
        );
    }
}

#[test]
fn fault_injected_captures_keep_kernel_parity() {
    let kinds = [
        FaultKind::CorruptFill {
            cpu: 1,
            xor: 0xBAD_0000,
        },
        FaultKind::LostWrite { cpu: 0 },
        FaultKind::StaleFill { cpu: 1 },
        FaultKind::DropInvalidation { victim_cpu: 2 },
    ];
    let mut violating = 0u32;
    for (k, kind) in kinds.into_iter().enumerate() {
        for seed in 0..4u64 {
            let t = capture(2_000 + seed, vec![FaultPlan { kind, at_step: 6 }]);
            if !assert_capture_parity(&t, &format!("fault {k} seed {seed}")) {
                violating += 1;
            }
        }
    }
    assert!(
        violating >= 3,
        "too few SC-violating captures to exercise the refutation path: {violating}/16"
    );
}
