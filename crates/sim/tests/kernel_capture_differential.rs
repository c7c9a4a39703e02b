//! Kernel parity on *captured* executions: traces recorded from the MESI
//! simulator (healthy and fault-injected) must get the same verdict from
//! each buffer-lowered compiled machine (SC, TSO, PSO) as from the
//! serialization oracle.
//! (Coherence-only runs on the per-address lowering, the VMC dispatcher;
//! its parity is checked by `consistency/tests/kernel_differential.rs`.)

use vermem_consistency::oracle::serializes;
use vermem_consistency::{verify_axiom, AxiomConfig, ConsistencyVerdict, ModelId};
use vermem_sim::{random_program, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::Trace;

const BUFFER_LOWERED: [ModelId; 3] = [ModelId::Sc, ModelId::Tso, ModelId::Pso];

/// Assert operational/axiomatic parity on one capture; returns whether it
/// is sequentially consistent.
fn assert_capture_parity(trace: &Trace, ctx: &str) -> bool {
    let mut sc = false;
    for model in BUFFER_LOWERED {
        let oracle = serializes(trace, model);
        if model == ModelId::Sc {
            sc = oracle;
        }
        let verdict = verify_axiom(trace, model, &AxiomConfig::default()).verdict;
        assert!(
            !matches!(verdict, ConsistencyVerdict::Unknown { .. }),
            "{ctx}: {} unbudgeted capture run returned Unknown",
            model.name()
        );
        assert_eq!(
            verdict.is_consistent(),
            oracle,
            "{ctx}: {} drift on capture",
            model.name()
        );
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
