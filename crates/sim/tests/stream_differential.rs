//! Differential suite for the streaming engine (`coherence::stream`): the
//! sharded bounded-memory verifier must produce **bit-identical** results
//! to the batch `verify_execution_par` — same verdict, same first
//! violation, same aggregated `SearchStats`, same `TierStats` — on every
//! input family (litmus, generated, healthy MESI captures, fault-injected
//! captures), at jobs ∈ {1, 2, 8} and window ∈ {16, 256, unbounded}.
//!
//! Batch traces are streamed through their v2 (proc-major) encoding;
//! simulator captures are additionally streamed through the v3 temporal
//! event log (`vermem_sim::event_stream_bytes`) — the feed a real memory
//! system would emit — which must agree with the batch verdict too.

use vermem_coherence::{
    verify_execution_par, ExecutionReport, RecorderConfig, StreamConfig, VmcVerifier,
};
use vermem_sim::{
    event_stream_bytes, random_program, FaultKind, FaultPlan, Machine, MachineConfig,
    WorkloadConfig,
};
use vermem_trace::binary::encode_trace;
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::Trace;

const JOBS: [usize; 3] = [1, 2, 8];
const WINDOWS: [Option<usize>; 3] = [Some(16), Some(256), None];

fn stream_config(window: Option<usize>, jobs: usize, temporal: bool) -> StreamConfig {
    StreamConfig {
        window,
        jobs,
        temporal,
        verifier: VmcVerifier::new(),
        recorder: None,
        ..Default::default()
    }
}

/// Stream `bytes` at every (jobs, window) combination and require
/// bit-identical agreement with the batch report on `trace`.
fn assert_stream_parity(trace: &Trace, bytes: &[u8], temporal: bool, ctx: &str) -> ExecutionReport {
    let batch = verify_execution_par(trace, &VmcVerifier::new(), 1);
    for jobs in JOBS {
        for window in WINDOWS {
            let report =
                vermem_coherence::verify_stream_bytes(bytes, stream_config(window, jobs, temporal))
                    .unwrap_or_else(|e| panic!("{ctx}: stream decode failed: {e}"));
            assert!(
                report.verdict.matches_batch(&batch.verdict),
                "{ctx}: verdict drift at jobs={jobs} window={window:?}: \
                 stream {:?} vs batch {:?}",
                report.verdict,
                batch.verdict
            );
            assert_eq!(
                report.stats, batch.stats,
                "{ctx}: stats drift at jobs={jobs} window={window:?}"
            );
            assert_eq!(
                report.tiers, batch.tiers,
                "{ctx}: tier accounting drift at jobs={jobs} window={window:?}"
            );
            assert_eq!(
                report.addresses, batch.addresses,
                "{ctx}: address count drift at jobs={jobs} window={window:?}"
            );
        }
    }
    batch
}

#[test]
fn litmus_traces_stream_bit_identically() {
    for test in vermem_consistency::litmus::all_litmus_tests() {
        let bytes = encode_trace(&test.trace);
        assert_stream_parity(&test.trace, &bytes, false, &format!("litmus {}", test.name));
    }
}

#[test]
fn generated_traces_stream_bit_identically() {
    for seed in 0..4u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 120,
            addrs: 5,
            value_reuse: 0.5,
            seed,
            ..Default::default()
        });
        let bytes = encode_trace(&t);
        let batch = assert_stream_parity(&t, &bytes, false, &format!("gen seed {seed}"));
        assert!(batch.is_coherent(), "SC-generated traces are coherent");
    }
}

#[test]
fn healthy_sim_captures_stream_bit_identically() {
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
        // v2 proc-major file encoding…
        let v2 = encode_trace(&cap.trace);
        let batch = assert_stream_parity(&cap.trace, &v2, false, &format!("healthy v2 {seed}"));
        assert!(batch.is_coherent(), "fault-free runs verify (seed {seed})");
        // …and the v3 temporal event log the machine actually emitted.
        let v3 = event_stream_bytes(&cap).expect("SC capture streams");
        assert_stream_parity(&cap.trace, &v3, true, &format!("healthy v3 {seed}"));
    }
}

#[test]
fn fault_injected_captures_stream_bit_identically() {
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
            let v2 = encode_trace(&cap.trace);
            let batch = assert_stream_parity(&cap.trace, &v2, false, &format!("fault {k}/{seed}"));
            let v3 = event_stream_bytes(&cap).expect("SC capture streams");
            assert_stream_parity(&cap.trace, &v3, true, &format!("fault {k}/{seed} v3"));
            if !batch.is_coherent() {
                incoherent_runs += 1;
            }
        }
    }
    assert!(
        incoherent_runs >= 4,
        "too few incoherent executions to exercise the violation path: {incoherent_runs}/20"
    );
}

#[test]
fn flight_recorder_never_perturbs_stream_results() {
    // The forensic flight recorder is a write-only side channel: with the
    // per-shard ring and certificate capture enabled, verdict, stats, tier
    // accounting and address counts stay bit-identical to the batch report
    // (and hence to the recorder-off stream) at every thread count —
    // exercised on both healthy and fault-injected temporal streams.
    for seed in 0..3u64 {
        for faulty in [false, true] {
            let faults = if faulty {
                vec![FaultPlan {
                    kind: FaultKind::CorruptFill {
                        cpu: 1,
                        xor: 0xDEAD_0000,
                    },
                    at_step: 6,
                }]
            } else {
                Vec::new()
            };
            let cap = Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu: 25,
                    addrs: 3,
                    write_fraction: 0.5,
                    rmw_fraction: 0.0,
                    seed: 500 + seed,
                }),
                MachineConfig {
                    seed,
                    faults,
                    ..Default::default()
                },
            );
            let v3 = event_stream_bytes(&cap).expect("SC capture streams");
            let batch = verify_execution_par(&cap.trace, &VmcVerifier::new(), 1);
            for jobs in JOBS {
                let cfg = StreamConfig {
                    recorder: Some(RecorderConfig::default()),
                    ..stream_config(Some(64), jobs, true)
                };
                let report = vermem_coherence::verify_stream_bytes(&v3, cfg).expect("decode");
                let ctx = format!("recorder seed {seed} faulty {faulty} jobs {jobs}");
                assert!(
                    report.verdict.matches_batch(&batch.verdict),
                    "{ctx}: verdict drift: stream {:?} vs batch {:?}",
                    report.verdict,
                    batch.verdict
                );
                assert_eq!(report.stats, batch.stats, "{ctx}: stats drift");
                assert_eq!(report.tiers, batch.tiers, "{ctx}: tier drift");
                assert_eq!(report.addresses, batch.addresses, "{ctx}: address drift");
                if faulty && !report.detections.is_empty() {
                    assert!(
                        !report.forensics.is_empty(),
                        "{ctx}: detections without forensic bundles"
                    );
                }
            }
        }
    }
}

#[test]
fn temporal_streams_of_faulty_runs_surface_detections() {
    // At least one fault-injected temporal stream must produce a detection
    // event with a measurable issue→detect latency — the p99 receipt's
    // data source.
    let mut detections = 0usize;
    let mut latencies = 0usize;
    for seed in 0..6u64 {
        let cap = Machine::run(
            &random_program(&WorkloadConfig {
                cpus: 4,
                instrs_per_cpu: 25,
                addrs: 3,
                write_fraction: 0.5,
                rmw_fraction: 0.0,
                seed: 900 + seed,
            }),
            MachineConfig {
                seed,
                faults: vec![FaultPlan {
                    kind: FaultKind::CorruptFill {
                        cpu: 1,
                        xor: 0xBEEF_0000,
                    },
                    at_step: 6,
                }],
                ..Default::default()
            },
        );
        let v3 = event_stream_bytes(&cap).expect("SC capture streams");
        let report = vermem_coherence::verify_stream_bytes(&v3, stream_config(Some(64), 1, true))
            .expect("decode");
        detections += report.detections.len();
        latencies += report.detect_latencies_us.len();
        if !report.detections.is_empty() {
            assert!(report.p99_detect_latency_us().is_some());
        }
    }
    assert!(detections > 0, "no fault surfaced a streaming detection");
    assert!(latencies >= detections, "every detection carries a latency");
}
