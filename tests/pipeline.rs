//! Cross-crate integration: simulator → trace → coherence → consistency.

use vermem::coherence::{verify_execution, ExecutionVerdict};
use vermem::consistency::{
    merge_coherent_schedules, verify_axiom, verify_vscc, AxiomConfig, ConsistencyVerdict,
    MergeOutcome, ModelId, SettledBy,
};
use vermem::sim::{
    ping_pong, producer_consumer, random_program, shared_counter, Machine, MachineConfig,
    WorkloadConfig,
};
use vermem::trace::{check_coherent_schedule_ops, check_sc_schedule, AddrIndex};

/// The default (compiled) decision of `trace` under `id`.
fn decide(trace: &vermem::trace::Trace, id: ModelId) -> ConsistencyVerdict {
    verify_axiom(trace, id, &AxiomConfig::default()).verdict
}

#[test]
fn full_pipeline_on_random_workloads() {
    for seed in 0..10 {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: 25,
            addrs: 3,
            write_fraction: 0.4,
            rmw_fraction: 0.15,
            seed,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed,
                ..Default::default()
            },
        );

        // Coherence with witnesses.
        let ExecutionVerdict::Coherent(schedules) = verify_execution(&cap.trace) else {
            panic!("healthy machine produced incoherent trace (seed {seed})");
        };
        let index = AddrIndex::build(&cap.trace);
        for (&addr, s) in &schedules {
            check_coherent_schedule_ops(index.get(addr).unwrap(), s).unwrap();
        }

        // SC (the machine without store buffers is SC).
        let sc = decide(&cap.trace, ModelId::Sc);
        check_sc_schedule(&cap.trace, sc.schedule().expect("SC machine")).unwrap();

        // The coherent witnesses merge into an SC schedule or the exact
        // solver already proved SC; the VSCC pipeline agrees.
        let report = verify_vscc(&cap.trace);
        assert!(report.verdict.is_consistent(), "seed {seed}");
    }
}

#[test]
fn producer_consumer_workload_is_sc() {
    let program = producer_consumer(2, 4);
    let cap = Machine::run(
        &program,
        MachineConfig {
            seed: 3,
            ..Default::default()
        },
    );
    let report = verify_vscc(&cap.trace);
    assert!(report.verdict.is_consistent());
    assert!(report.coherence.is_ok());
}

#[test]
fn shared_counter_increments_serialize() {
    let cap = Machine::run(&shared_counter(4, 6), MachineConfig::default());
    // All-RMW address: the dispatcher uses an RMW fast path or search; the
    // chain of 24 increments must verify and end at 24.
    assert!(verify_execution(&cap.trace).is_coherent());
    assert_eq!(
        cap.final_memory.get(&vermem::trace::Addr(0)),
        Some(&vermem::trace::Value(24))
    );
}

#[test]
fn tso_machine_traces_satisfy_tso_but_may_violate_sc() {
    let mut sc_violations = 0;
    for seed in 0..20 {
        let program = random_program(&WorkloadConfig {
            cpus: 3,
            instrs_per_cpu: 20,
            addrs: 2,
            write_fraction: 0.5,
            rmw_fraction: 0.0,
            seed,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                store_buffers: true,
                drain_probability: 0.15,
                seed,
                ..Default::default()
            },
        );
        let tso = decide(&cap.trace, ModelId::Tso);
        assert!(
            tso.is_consistent(),
            "TSO machine must satisfy TSO (seed {seed})"
        );
        if decide(&cap.trace, ModelId::Sc).is_violating() {
            sc_violations += 1;
        }
    }
    assert!(
        sc_violations > 0,
        "store buffers should violate SC on some runs"
    );
}

#[test]
fn vsc_conflict_merge_respects_hardware_write_order() {
    let program = ping_pong(10);
    let cap = Machine::run(
        &program,
        MachineConfig {
            seed: 5,
            ..Default::default()
        },
    );
    let ExecutionVerdict::Coherent(schedules) = verify_execution(&cap.trace) else {
        panic!("ping-pong must be coherent");
    };
    match merge_coherent_schedules(&cap.trace, &schedules) {
        MergeOutcome::Merged(s) => check_sc_schedule(&cap.trace, &s).unwrap(),
        MergeOutcome::Cyclic { .. } => {
            // The particular witnesses may not merge (§6.3); the exact
            // solver must still find SC for the SC-mode machine.
            assert!(decide(&cap.trace, ModelId::Sc).is_consistent());
        }
    }
}

#[test]
fn vscc_misleading_merge_exercises_exact_fallback() {
    let (trace, adversarial) = vermem::consistency::vscc::misleading_merge_example();
    // Feed the adversarial coherent schedules to the merge: cyclic.
    assert!(matches!(
        merge_coherent_schedules(&trace, &adversarial),
        MergeOutcome::Cyclic { .. }
    ));
    // The pipeline (which picks its own witnesses) must still answer SC
    // correctly, whichever stage settles it.
    let report = verify_vscc(&trace);
    assert!(report.verdict.is_consistent());
    assert!(matches!(
        report.settled_by,
        SettledBy::FastMerge | SettledBy::ExactFallback
    ));
}
