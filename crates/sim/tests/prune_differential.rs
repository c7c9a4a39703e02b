//! Differential suite for the search's pruning switch under the parallel
//! per-address engine: with pruning on and off and at every thread count
//! in {1, 2, 8}, the execution verdict (and the first violation when
//! incoherent) must match the unpruned sequential baseline — on generated
//! traces, healthy MESI simulator captures, and fault-injected incoherent
//! captures.

use vermem_coherence::{
    verify_execution_par, verify_execution_with, ExecutionVerdict, SearchConfig, VmcVerifier,
};
use vermem_sim::{random_program, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::Trace;

const JOBS: [usize; 3] = [1, 2, 8];

fn verifier_with(prune: bool) -> VmcVerifier {
    VmcVerifier {
        search: SearchConfig {
            prune,
            ..Default::default()
        },
        ..VmcVerifier::new()
    }
}

/// Assert the full prune-parity contract on one trace; returns whether it
/// is coherent (per the unpruned baseline).
fn assert_prune_parity(trace: &Trace, ctx: &str) -> bool {
    let baseline = verify_execution_with(trace, &verifier_with(false));
    for prune in [false, true] {
        let verifier = verifier_with(prune);
        let seq = verify_execution_with(trace, &verifier);
        match (&baseline, &seq) {
            (ExecutionVerdict::Coherent(_), ExecutionVerdict::Coherent(_)) => {}
            (ExecutionVerdict::Incoherent(a), ExecutionVerdict::Incoherent(b)) => {
                assert_eq!(a, b, "{ctx}: first-violation drift with prune={prune}");
            }
            (a, b) => panic!("{ctx}: verdict class drift with prune={prune}: {a:?} vs {b:?}"),
        }
        // The parallel engine must agree with its own sequential run at
        // every thread count, stats included (thread-count invariance).
        let par1 = verify_execution_par(trace, &verifier, 1);
        assert_eq!(par1.verdict, seq, "{ctx}: jobs=1 drift with prune={prune}");
        for jobs in JOBS {
            let par = verify_execution_par(trace, &verifier, jobs);
            assert_eq!(
                par.verdict, seq,
                "{ctx}: verdict drift at jobs={jobs} with prune={prune}"
            );
            assert_eq!(
                par.stats, par1.stats,
                "{ctx}: stats drift at jobs={jobs} with prune={prune}"
            );
        }
    }
    baseline.is_coherent()
}

#[test]
fn generated_traces_keep_prune_parity_at_every_thread_count() {
    for seed in 0..4u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 120,
            addrs: 5,
            value_reuse: 0.5,
            seed,
            ..Default::default()
        });
        let coherent = assert_prune_parity(&t, &format!("gen seed {seed}"));
        assert!(coherent, "SC-generated traces are coherent by construction");
    }
}

#[test]
fn healthy_sim_captures_keep_prune_parity_at_every_thread_count() {
    for seed in 0..4u64 {
        let cap = Machine::run(
            &random_program(&WorkloadConfig {
                cpus: 4,
                instrs_per_cpu: 30,
                addrs: 4,
                write_fraction: 0.45,
                rmw_fraction: 0.1,
                seed,
            }),
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        let coherent = assert_prune_parity(&cap.trace, &format!("healthy sim seed {seed}"));
        assert!(coherent, "fault-free runs must verify (seed {seed})");
    }
}

#[test]
fn fault_injected_captures_keep_prune_parity_at_every_thread_count() {
    let kinds = [
        FaultKind::CorruptFill {
            cpu: 1,
            xor: 0xDEAD_0000,
        },
        FaultKind::LostWrite { cpu: 0 },
        FaultKind::StaleFill { cpu: 1 },
        FaultKind::DropInvalidation { victim_cpu: 2 },
    ];
    let mut incoherent_runs = 0;
    for (k, kind) in kinds.into_iter().enumerate() {
        for seed in 0..5u64 {
            let cap = Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu: 25,
                    addrs: 4,
                    write_fraction: 0.5,
                    rmw_fraction: 0.0,
                    seed: 700 + seed,
                }),
                MachineConfig {
                    seed,
                    faults: vec![FaultPlan { kind, at_step: 8 }],
                    ..Default::default()
                },
            );
            if !assert_prune_parity(&cap.trace, &format!("fault {k} seed {seed}")) {
                incoherent_runs += 1;
            }
        }
    }
    assert!(
        incoherent_runs >= 4,
        "too few incoherent executions to exercise the violation path: {incoherent_runs}/20"
    );
}
