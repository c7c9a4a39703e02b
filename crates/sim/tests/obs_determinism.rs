//! Differential determinism for the observability layer: turning metrics
//! and trace recording **on must not change anything the verifier or the
//! simulator computes** — verdicts, aggregated [`SearchStats`] (including
//! the always-on memo hit/miss counts), captured traces, event logs, or
//! the frozen PRNG streams behind them. Obs is a write-only side channel.
//!
//! The obs toggle is process-global, so this whole suite lives in one
//! `#[test]` (integration tests in a file share a process and would race
//! on the toggle otherwise). The CLI and unit suites run in their own
//! processes and are unaffected.

use vermem_coherence::{
    verify_execution_par, verify_execution_with, RecorderConfig, StreamConfig, VmcVerifier,
};
use vermem_sim::{
    event_stream_bytes, random_program, FaultKind, FaultPlan, Machine, MachineConfig,
    WorkloadConfig,
};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::Trace;
use vermem_util::obs;

const JOBS: [usize; 3] = [1, 2, 8];

/// Run `f` with obs disabled, then again with obs enabled (discarding what
/// it records), and return both results for comparison.
fn differential<T>(mut f: impl FnMut() -> T) -> (T, T) {
    obs::set_enabled(false);
    let off = f();
    obs::set_enabled(true);
    let on = f();
    obs::set_enabled(false);
    obs::reset();
    (off, on)
}

fn check_trace(trace: &Trace, verifier: &VmcVerifier, ctx: &str) {
    let seq = verify_execution_with(trace, verifier);
    for jobs in JOBS {
        let (off, on) = differential(|| verify_execution_par(trace, verifier, jobs));
        assert_eq!(
            off.verdict, seq,
            "{ctx}: obs-off verdict drift, jobs={jobs}"
        );
        assert_eq!(on.verdict, seq, "{ctx}: obs-on verdict drift, jobs={jobs}");
        assert_eq!(
            off.stats, on.stats,
            "{ctx}: SearchStats changed with obs on, jobs={jobs}"
        );
        assert_eq!(off.addresses, on.addresses, "{ctx}: jobs={jobs}");
        assert_eq!(off.jobs, on.jobs, "{ctx}: jobs={jobs}");
    }
}

#[test]
fn obs_toggle_changes_no_observable_result() {
    let verifier = VmcVerifier::new();

    // 1. Property-generated coherent traces.
    for seed in 0..6u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 120,
            addrs: 5,
            value_reuse: 0.5,
            seed,
            ..Default::default()
        });
        check_trace(&t, &verifier, &format!("gen seed {seed}"));
    }

    // 2. The MESI simulator's PRNG stream is frozen: the same seed must
    //    capture the identical trace and event log whether obs records the
    //    run or not (obs never consumes simulator randomness).
    let mut incoherent = 0;
    for seed in 0..6u64 {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: 40,
            addrs: 4,
            write_fraction: 0.5,
            rmw_fraction: 0.05,
            seed,
        });
        let healthy = MachineConfig {
            seed,
            ..Default::default()
        };
        let (off, on) = differential(|| Machine::run(&program, healthy.clone()));
        assert_eq!(off.trace, on.trace, "sim trace drift, seed {seed}");
        assert_eq!(
            off.event_log, on.event_log,
            "sim event log drift, seed {seed}"
        );
        assert_eq!(off.stats, on.stats, "sim stats drift, seed {seed}");
        check_trace(&off.trace, &verifier, &format!("sim seed {seed}"));

        // 3. Fault-injected (mostly incoherent) captures: the early-cancel
        //    path of the parallel engine must stay deterministic under obs.
        let faulty = MachineConfig {
            seed,
            faults: vec![FaultPlan {
                kind: FaultKind::CorruptFill {
                    cpu: 1,
                    xor: 0xBEEF_0000,
                },
                at_step: 8,
            }],
            ..Default::default()
        };
        let (off, on) = differential(|| Machine::run(&program, faulty.clone()));
        assert_eq!(off.trace, on.trace, "faulty trace drift, seed {seed}");
        if !verify_execution_with(&off.trace, &verifier).is_coherent() {
            incoherent += 1;
        }
        check_trace(&off.trace, &verifier, &format!("faulty sim seed {seed}"));

        // 4. The live-telemetry stack: streaming the same temporal event
        //    log with the global obs toggle on AND the flight recorder
        //    enabled must leave the stream verdict, stats and tier
        //    accounting bit-identical to the plain obs-off run.
        let cap = Machine::run(&program, faulty.clone());
        let v3 = event_stream_bytes(&cap).expect("SC capture streams");
        for jobs in JOBS {
            let plain_cfg = || StreamConfig {
                window: Some(64),
                jobs,
                temporal: true,
                verifier: VmcVerifier::new(),
                recorder: None,
                ..Default::default()
            };
            let live_cfg = || StreamConfig {
                recorder: Some(RecorderConfig::default()),
                ..plain_cfg()
            };
            let (off, on) = differential(|| {
                (
                    vermem_coherence::verify_stream_bytes(&v3, plain_cfg()).expect("decodes"),
                    vermem_coherence::verify_stream_bytes(&v3, live_cfg()).expect("decodes"),
                )
            });
            for (label, report) in [("plain", &off.1), ("obs-on plain", &on.0), ("live", &on.1)] {
                let ctx = format!("live obs seed {seed} jobs {jobs} ({label})");
                assert_eq!(off.0.verdict, report.verdict, "{ctx}: verdict drift");
                assert_eq!(off.0.stats, report.stats, "{ctx}: stats drift");
                assert_eq!(off.0.tiers, report.tiers, "{ctx}: tier drift");
                assert_eq!(off.0.addresses, report.addresses, "{ctx}: address drift");
            }
        }
    }
    assert!(
        incoherent >= 2,
        "too few incoherent runs to exercise cancellation under obs: {incoherent}/6"
    );
}
