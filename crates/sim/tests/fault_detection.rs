//! End-to-end dynamic verification (the paper's §1 motivation): run the
//! MESI machine, inject protocol faults, and check that the coherence
//! verifier catches what a broken memory system produces — with no false
//! positives on healthy runs.

use vermem_coherence::{solve_with_write_order, verify_execution, Verdict};
use vermem_sim::{
    random_program, CapturedExecution, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig,
};
use vermem_trace::AddrIndex;

fn workload(seed: u64) -> vermem_sim::Program {
    random_program(&WorkloadConfig {
        cpus: 3,
        instrs_per_cpu: 30,
        addrs: 2,
        write_fraction: 0.45,
        rmw_fraction: 0.0,
        seed,
    })
}

#[test]
fn healthy_runs_never_flag() {
    for seed in 0..30 {
        let cap = Machine::run(
            &workload(seed),
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        assert!(
            verify_execution(&cap.trace).is_coherent(),
            "false positive on a fault-free run (seed {seed})"
        );
    }
}

#[test]
fn healthy_tso_runs_never_flag() {
    for seed in 0..30 {
        let cap = Machine::run(
            &workload(1000 + seed),
            MachineConfig {
                store_buffers: true,
                seed,
                ..Default::default()
            },
        );
        assert!(
            verify_execution(&cap.trace).is_coherent(),
            "false positive on a fault-free TSO run (seed {seed})"
        );
    }
}

/// Runs a shared-counter (all-RMW) workload with one fault plan; RMW
/// chains pin orderings tightly, so protocol faults that merely leave
/// stale data become observable violations.
fn detected_counter(kind: FaultKind, seed: u64) -> bool {
    let program = vermem_sim::shared_counter(3, 8);
    let cap = Machine::run(
        &program,
        MachineConfig {
            seed,
            faults: vec![FaultPlan { kind, at_step: 6 }],
            ..Default::default()
        },
    );
    !verify_execution(&cap.trace).is_coherent()
}

/// Runs the workload with one fault plan; returns whether the verifier
/// flagged the execution.
fn detected(kind: FaultKind, seed: u64) -> bool {
    let cap = Machine::run(
        &workload(seed),
        MachineConfig {
            seed,
            faults: vec![FaultPlan { kind, at_step: 10 }],
            ..Default::default()
        },
    );
    !verify_execution(&cap.trace).is_coherent()
}

#[test]
fn corrupt_fill_is_detected() {
    let mut hits = 0;
    for seed in 0..25 {
        if detected(
            FaultKind::CorruptFill {
                cpu: 1,
                xor: 0xDEAD_0000,
            },
            seed,
        ) {
            hits += 1;
        }
    }
    // A corrupted fill yields a never-written value: detected whenever the
    // fault actually fires and the value is consumed.
    assert!(hits >= 10, "corrupt-fill detection too low: {hits}/25");
}

#[test]
fn drop_invalidation_is_detected_sometimes() {
    let mut hits = 0;
    for seed in 0..40 {
        if detected_counter(FaultKind::DropInvalidation { victim_cpu: 2 }, seed) {
            hits += 1;
        }
    }
    // Stale lines only matter if subsequently read while observably stale.
    assert!(hits > 0, "dropped invalidations never detected");
}

#[test]
fn lost_write_is_detected_sometimes() {
    let mut hits = 0;
    for seed in 0..40 {
        if detected(FaultKind::LostWrite { cpu: 0 }, seed) {
            hits += 1;
        }
    }
    assert!(hits > 0, "lost writes never detected");
}

/// A lost write hits the CPU's next committed write, an RMW's included:
/// on the all-RMW counter a dropped increment leaves two RMWs reading the
/// same value, which no coherent schedule explains.
#[test]
fn lost_rmw_write_is_detected() {
    let hits = (1..=50)
        .filter(|&seed| detected_counter(FaultKind::LostWrite { cpu: 1 }, seed))
        .count();
    assert!(hits > 0, "lost RMW writes never detected in 50 runs");
}

#[test]
fn stale_fill_is_detected_sometimes() {
    let mut hits = 0;
    for seed in 0..40 {
        if detected_counter(FaultKind::StaleFill { cpu: 1 }, seed) {
            hits += 1;
        }
    }
    assert!(hits > 0, "stale fills never detected");
}

#[test]
fn write_order_capture_verifies_healthy_runs_in_polynomial_time() {
    // §5.2: with the machine's committed write order, verification is the
    // O(n²) insertion algorithm rather than exponential search.
    for seed in 0..20 {
        let cap = Machine::run(
            &workload(2000 + seed),
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        let index = AddrIndex::build(&cap.trace);
        for (addr, order) in &cap.write_order {
            let verdict = solve_with_write_order(index.get(*addr).unwrap(), order);
            assert!(
                matches!(verdict, Verdict::Coherent(_)),
                "write-order fast path must accept healthy runs (seed {seed}, {addr:?})"
            );
        }
    }
}

/// True iff every address verifies under the machine's committed write
/// order (§5.2), over one index of the trace.
fn write_orders_verify(cap: &CapturedExecution) -> bool {
    let index = AddrIndex::build(&cap.trace);
    cap.write_order
        .iter()
        .all(|(addr, order)| solve_with_write_order(index.get(*addr).unwrap(), order).is_coherent())
}

#[test]
fn write_order_capture_flags_faulty_runs() {
    let mut hits = 0;
    for seed in 0..25 {
        let cap = Machine::run(
            &workload(3000 + seed),
            MachineConfig {
                seed,
                faults: vec![FaultPlan {
                    kind: FaultKind::CorruptFill { cpu: 0, xor: 0xBAD },
                    at_step: 5,
                }],
                ..Default::default()
            },
        );
        let flagged = !write_orders_verify(&cap) || !verify_execution(&cap.trace).is_coherent();
        if flagged {
            hits += 1;
        }
    }
    assert!(hits >= 15, "write-order path detection too low: {hits}/25");
}

#[test]
fn detection_agrees_between_exact_and_write_order_paths_on_healthy_runs() {
    for seed in 0..15 {
        let cap = Machine::run(
            &workload(4000 + seed),
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        let exact = verify_execution(&cap.trace).is_coherent();
        let fast = write_orders_verify(&cap);
        // The write-order path is *stricter* (it checks the specific
        // hardware order); on healthy runs both must accept.
        assert!(exact && fast, "seed {seed}");
    }
}
