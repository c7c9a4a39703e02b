//! Differential suite for the tiered verifier (PR 6): the default
//! `closure,exact` pipeline must produce **bit-identical** results to the
//! `exact`-only ablation — same verdict, same witnesses, same first
//! violation, same aggregated `SearchStats` — on every input family
//! (litmus, generated, healthy MESI captures, fault-injected captures) and
//! at every thread count in {1, 2, 8}. The only permitted difference is
//! the per-tier accounting itself: the frontline may decide strictly more
//! addresses than the ablation, never fewer.

use vermem_coherence::{
    verify_execution_par, verify_execution_with, ExecutionReport, SearchConfig, TierConfig,
    VmcVerifier,
};
use vermem_sim::{random_program, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::gen::{gen_sc_trace, GenConfig};
use vermem_trace::Trace;

const JOBS: [usize; 3] = [1, 2, 8];

fn tiered() -> VmcVerifier {
    VmcVerifier {
        tier: TierConfig::tiered(),
        ..VmcVerifier::new()
    }
}

fn exact_only() -> VmcVerifier {
    VmcVerifier {
        tier: TierConfig::exact_only(),
        ..VmcVerifier::new()
    }
}

/// Assert the full tier-parity contract on one trace; returns the tiered
/// jobs=1 report for family-level accounting.
fn assert_tier_parity(trace: &Trace, ctx: &str) -> ExecutionReport {
    // Sequential engines agree bit-for-bit, witnesses included: the
    // frontline computes exactly what the exact search's own pre-passes
    // would have computed.
    let seq_tiered = verify_execution_with(trace, &tiered());
    let seq_exact = verify_execution_with(trace, &exact_only());
    assert_eq!(seq_tiered, seq_exact, "{ctx}: sequential verdict drift");

    let base_tiered = verify_execution_par(trace, &tiered(), 1);
    let base_exact = verify_execution_par(trace, &exact_only(), 1);
    assert_eq!(base_tiered.verdict, seq_tiered, "{ctx}: par jobs=1 drift");
    assert_eq!(
        base_tiered.stats, base_exact.stats,
        "{ctx}: tiered stats diverged from exact-only"
    );
    assert_eq!(base_tiered.verdict, base_exact.verdict, "{ctx}");
    // Accounting sanity: both pipelines account every address they
    // processed, and the frontline never decides fewer than the ablation.
    assert_eq!(base_tiered.tiers.total(), base_exact.tiers.total(), "{ctx}");
    assert!(
        base_tiered.tiers.frontline_decided >= base_exact.tiers.frontline_decided,
        "{ctx}: frontline decided fewer addresses than the exact ablation"
    );

    for jobs in JOBS {
        for (label, verifier, base) in [
            ("closure,exact", tiered(), &base_tiered),
            ("exact", exact_only(), &base_exact),
        ] {
            let par = verify_execution_par(trace, &verifier, jobs);
            assert_eq!(
                par.verdict, base.verdict,
                "{ctx}: verdict drift at jobs={jobs} under tier={label}"
            );
            assert_eq!(
                par.stats, base.stats,
                "{ctx}: stats drift at jobs={jobs} under tier={label}"
            );
            assert_eq!(
                par.tiers, base.tiers,
                "{ctx}: tier accounting drift at jobs={jobs} under tier={label}"
            );
        }
    }
    base_tiered
}

#[test]
fn litmus_traces_keep_tier_parity_at_every_thread_count() {
    for test in vermem_consistency::litmus::all_litmus_tests() {
        let report = assert_tier_parity(&test.trace, &format!("litmus {}", test.name));
        // Litmus traces are tiny and single-writer-heavy: the frontline
        // must decide all of them without touching the exact tier.
        assert_eq!(
            report.tiers.escalated, 0,
            "litmus {} escalated unexpectedly",
            test.name
        );
    }
}

#[test]
fn generated_traces_keep_tier_parity_at_every_thread_count() {
    for seed in 0..4u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 120,
            addrs: 5,
            value_reuse: 0.5,
            seed,
            ..Default::default()
        });
        let report = assert_tier_parity(&t, &format!("gen seed {seed}"));
        assert!(
            report.is_coherent(),
            "SC-generated traces are coherent by construction"
        );
    }
}

#[test]
fn healthy_sim_captures_keep_tier_parity_at_every_thread_count() {
    let mut frontline = 0u64;
    let mut total = 0u64;
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
        let report = assert_tier_parity(&cap.trace, &format!("healthy sim seed {seed}"));
        assert!(
            report.is_coherent(),
            "fault-free runs must verify (seed {seed})"
        );
        frontline += report.tiers.frontline_decided;
        total += report.tiers.total();
    }
    // The headline claim of the tier split (also gated on the committed
    // bench receipt by scripts/verify.sh): healthy captures are decided
    // overwhelmingly in polynomial time.
    assert!(
        frontline * 10 >= total * 9,
        "frontline decided only {frontline}/{total} healthy-sim addresses (< 90%)"
    );
}

#[test]
fn fault_injected_captures_keep_tier_parity_at_every_thread_count() {
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
            let report = assert_tier_parity(&cap.trace, &format!("fault {k} seed {seed}"));
            if !report.is_coherent() {
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
fn tier_parity_holds_with_window_pruning_disabled() {
    // `--prune=none` turns the window inference off globally; the
    // frontline honours the knob (it *is* the window pass), so both tier
    // pipelines collapse to the identical unpruned search.
    let with_prune_none = |tier: TierConfig| VmcVerifier {
        search: SearchConfig {
            prune: false,
            ..Default::default()
        },
        tier,
        ..VmcVerifier::new()
    };
    for seed in 0..3u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3,
            total_ops: 80,
            addrs: 4,
            value_reuse: 0.6,
            seed: 40 + seed,
            ..Default::default()
        });
        let a = verify_execution_par(&t, &with_prune_none(TierConfig::tiered()), 2);
        let b = verify_execution_par(&t, &with_prune_none(TierConfig::exact_only()), 2);
        assert_eq!(a.verdict, b.verdict, "seed {seed}");
        assert_eq!(a.stats, b.stats, "seed {seed}");
        assert_eq!(
            a.tiers, b.tiers,
            "seed {seed}: with windows off no closure runs"
        );
    }
}
