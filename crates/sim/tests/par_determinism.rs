//! Differential determinism suite for the parallel per-address engine:
//! [`vermem_coherence::verify_execution_par`] must return a verdict (and
//! aggregated search stats) *bit-identical* to the sequential engine at
//! every thread count — on healthy property-generated traces, on MESI
//! simulator captures, and on fault-injected incoherent executions where
//! early cancellation actually fires.

use vermem_coherence::{verify_execution_par, verify_execution_with, VmcVerifier};
use vermem_sim::{random_program, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::Trace;

const JOBS: [usize; 3] = [1, 2, 8];

/// Assert the full determinism contract on one trace: verdict equals the
/// sequential engine's and the stats are thread-count invariant.
fn assert_deterministic(trace: &Trace, verifier: &VmcVerifier, ctx: &str) -> bool {
    let seq = verify_execution_with(trace, verifier);
    let baseline = verify_execution_par(trace, verifier, 1);
    assert_eq!(
        baseline.verdict, seq,
        "{ctx}: jobs=1 differs from sequential"
    );
    for jobs in JOBS {
        let par = verify_execution_par(trace, verifier, jobs);
        assert_eq!(par.verdict, seq, "{ctx}: verdict drift at jobs={jobs}");
        assert_eq!(
            par.stats, baseline.stats,
            "{ctx}: stats drift at jobs={jobs}"
        );
        assert_eq!(par.addresses, trace.addresses().len(), "{ctx}");
    }
    seq.is_coherent()
}

#[test]
fn generated_sc_traces_are_deterministic_across_thread_counts() {
    let verifier = VmcVerifier::new();
    let cases = (0..12u64).map(|seed| (160, 7, seed));
    for (total_ops, addrs, seed) in cases.chain([(8192, 64, 8192 ^ 64)]) {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops,
            addrs,
            value_reuse: 0.5,
            seed,
            ..Default::default()
        });
        let ctx = format!("gen {total_ops} ops seed {seed}");
        let coherent = assert_deterministic(&t, &verifier, &ctx);
        assert!(coherent, "SC-generated traces are coherent by construction");
    }
}

#[test]
fn healthy_sim_captures_are_deterministic_across_thread_counts() {
    let verifier = VmcVerifier::new();
    let cases = (0..8u64).map(|seed| (40, 5, seed, seed));
    for (instrs_per_cpu, addrs, seed, machine_seed) in
        cases.chain([(1024, 16, 4096, MachineConfig::default().seed)])
    {
        let cap = Machine::run(
            &random_program(&WorkloadConfig {
                cpus: 4,
                instrs_per_cpu,
                addrs,
                write_fraction: 0.45,
                rmw_fraction: 0.1,
                seed,
            }),
            MachineConfig {
                seed: machine_seed,
                ..Default::default()
            },
        );
        let coherent =
            assert_deterministic(&cap.trace, &verifier, &format!("healthy sim seed {seed}"));
        assert!(coherent, "fault-free runs must verify (seed {seed})");
    }
}

#[test]
fn fault_injected_incoherent_captures_are_deterministic_across_thread_counts() {
    // Fault-injected runs exercise the cancellation path: the first failing
    // address must be reported identically at every thread count. Sweep
    // fault classes and require that a healthy share of runs actually
    // produce incoherent executions, so the incoherent branch is covered.
    let verifier = VmcVerifier::new();
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
        for seed in 0..10u64 {
            let cap = Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu: 30,
                    addrs: 4,
                    write_fraction: 0.5,
                    rmw_fraction: 0.0,
                    seed: 500 + seed,
                }),
                MachineConfig {
                    seed,
                    faults: vec![FaultPlan { kind, at_step: 8 }],
                    ..Default::default()
                },
            );
            let coherent =
                assert_deterministic(&cap.trace, &verifier, &format!("fault {k} seed {seed}"));
            if !coherent {
                incoherent_runs += 1;
            }
        }
    }
    assert!(
        incoherent_runs >= 5,
        "too few incoherent executions to exercise cancellation: {incoherent_runs}/40"
    );
}

#[test]
fn multi_violation_capture_reports_first_failing_address_at_every_thread_count() {
    // Corrupt fills across many addresses tend to produce violations at
    // several addresses at once; the parallel engine must still report the
    // same (first) one as the sequential engine.
    let verifier = VmcVerifier::new();
    let mut checked = 0;
    for seed in 0..20u64 {
        let cap = Machine::run(
            &random_program(&WorkloadConfig {
                cpus: 4,
                instrs_per_cpu: 50,
                addrs: 8,
                write_fraction: 0.55,
                rmw_fraction: 0.0,
                seed: 900 + seed,
            }),
            MachineConfig {
                seed,
                faults: vec![
                    FaultPlan {
                        kind: FaultKind::CorruptFill {
                            cpu: 0,
                            xor: 0xBAD0_0000,
                        },
                        at_step: 6,
                    },
                    FaultPlan {
                        kind: FaultKind::CorruptFill {
                            cpu: 2,
                            xor: 0x0BAD_0000,
                        },
                        at_step: 14,
                    },
                ],
                ..Default::default()
            },
        );
        let seq = verify_execution_with(&cap.trace, &verifier);
        if seq.is_coherent() {
            continue;
        }
        checked += 1;
        for jobs in JOBS {
            let par = verify_execution_par(&cap.trace, &verifier, jobs);
            assert_eq!(par.verdict, seq, "seed {seed} jobs {jobs}");
        }
    }
    assert!(
        checked >= 3,
        "too few incoherent double-fault runs: {checked}"
    );
}
