//! Workspace-level property tests: the invariants that tie the crates
//! together, fuzzed with the in-tree `vermem_util::prop` harness.

use vermem::coherence::{
    solve_backtracking, solve_sat_certified, verify, SearchConfig, Strategy as VmcStrategy,
    VmcVerifier,
};
use vermem::trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem::trace::{
    check_coherent_schedule, check_sc_schedule, Addr, AddrIndex, AddrOps, Op, Trace, TraceBuilder,
};
use vermem::util::prop::PropConfig;
use vermem::util::rng::StdRng;
use vermem::util::{prop_assert, prop_assert_eq, prop_check};

/// Up to 4 processes of up to 4 ops over a small value universe, all at
/// address zero.
fn arb_single_address_trace(rng: &mut StdRng, size: usize) -> Trace {
    let procs = rng.gen_range(1..=4usize);
    let max_ops = size.min(4);
    let mut b = TraceBuilder::new();
    for _ in 0..procs {
        let len = rng.gen_range(0..=max_ops);
        let ops: Vec<Op> = (0..len)
            .map(|_| {
                let kind = rng.gen_range(0..3u8);
                let a = rng.gen_range(0..4u64);
                let bb = rng.gen_range(0..4u64);
                match kind {
                    0 => Op::r(a),
                    1 => Op::w(a),
                    _ => Op::rw(a, bb),
                }
            })
            .collect();
        b = b.proc(ops);
    }
    b.build()
}

#[test]
fn solvers_agree_and_witnesses_validate() {
    // The three general-purpose solvers agree, and any witness validates.
    prop_check!(
        PropConfig::with_cases(128),
        arb_single_address_trace,
        |trace: &Trace| {
            let auto = verify(trace, Addr::ZERO);
            let bt = solve_backtracking(trace, Addr::ZERO, &SearchConfig::default());
            let sat = solve_sat_certified(trace, Addr::ZERO);
            prop_assert_eq!(auto.is_coherent(), bt.is_coherent());
            prop_assert_eq!(auto.is_coherent(), sat.is_coherent());
            for v in [&auto, &bt, &sat] {
                if let Some(s) = v.schedule() {
                    prop_assert!(check_coherent_schedule(trace, Addr::ZERO, s).is_ok());
                }
            }
            Ok(())
        }
    );
}

#[test]
fn generated_sc_traces_always_verify() {
    // Generated SC traces verify coherent at every address, SC overall,
    // and their witness schedules validate.
    prop_check!(
        PropConfig::with_cases(128),
        |rng: &mut StdRng, _size| {
            (
                rng.gen_range(0..5000u64),
                rng.gen_range(1..5usize),
                rng.gen_range(1..40usize),
            )
        },
        |&(seed, procs, ops): &(u64, usize, usize)| {
            let cfg = GenConfig {
                procs,
                total_ops: ops,
                addrs: 2,
                seed,
                ..Default::default()
            };
            let (trace, witness) = gen_sc_trace(&cfg);
            prop_assert!(check_sc_schedule(&trace, &witness).is_ok());
            prop_assert!(vermem::coherence::verify_execution(&trace).is_coherent());
            Ok(())
        }
    );
}

#[test]
fn guaranteed_injections_always_detected() {
    prop_check!(
        PropConfig::with_cases(128),
        |rng: &mut StdRng, _size| rng.gen_range(0..2000u64),
        |&seed: &u64| {
            let cfg = GenConfig::single_address(3, 24, seed);
            let (trace, _) = gen_sc_trace(&cfg);
            for kind in [ViolationKind::CorruptReadValue, ViolationKind::LostWrite] {
                if let Some((mutated, inj)) = inject_violation(&trace, kind, seed) {
                    if inj.guaranteed {
                        prop_assert!(
                            !verify(&mutated, Addr::ZERO).is_coherent(),
                            "guaranteed {:?} not detected",
                            kind
                        );
                    }
                }
            }
            Ok(())
        }
    );
}

#[test]
fn maybe_injections_keep_witnesses_sound() {
    // Non-guaranteed injections never produce *invalid* verdicts: if the
    // verifier says coherent, the witness must check out.
    prop_check!(
        PropConfig::with_cases(128),
        |rng: &mut StdRng, _size| rng.gen_range(0..1000u64),
        |&seed: &u64| {
            let cfg = GenConfig::single_address(3, 20, seed);
            let (trace, _) = gen_sc_trace(&cfg);
            for kind in [ViolationKind::StaleRead, ViolationKind::ReorderAdjacent] {
                if let Some((mutated, _)) = inject_violation(&trace, kind, seed) {
                    if let Some(s) = verify(&mutated, Addr::ZERO).schedule() {
                        prop_assert!(check_coherent_schedule(&mutated, Addr::ZERO, s).is_ok());
                    }
                }
            }
            Ok(())
        }
    );
}

#[test]
fn formats_round_trip() {
    // Text and binary formats round-trip arbitrary traces.
    prop_check!(
        PropConfig::with_cases(128),
        arb_single_address_trace,
        |trace: &Trace| {
            let text = vermem::trace::fmt::format_trace(trace);
            prop_assert_eq!(&vermem::trace::fmt::parse_trace(&text).unwrap(), trace);
            let bytes = vermem::trace::binary::encode_trace(trace);
            prop_assert_eq!(&vermem::trace::binary::decode_trace(&bytes).unwrap(), trace);
            Ok(())
        }
    );
}

#[test]
fn strategy_agreement_per_address() {
    // Forcing the SAT strategy agrees with auto on multi-address traces
    // address by address.
    prop_check!(
        PropConfig::with_cases(128),
        |rng: &mut StdRng, _size| rng.gen_range(0..300u64),
        |&seed: &u64| {
            let cfg = GenConfig {
                procs: 3,
                total_ops: 18,
                addrs: 2,
                seed,
                ..Default::default()
            };
            let (trace, _) = gen_sc_trace(&cfg);
            let sat = VmcVerifier {
                strategy: VmcStrategy::Sat,
                ..Default::default()
            };
            for ops in AddrIndex::build(&trace).iter() {
                prop_assert!(sat.verify_ops(ops).0.is_coherent());
            }
            Ok(())
        }
    );
}

#[test]
fn reduction_encoding_round_trip() {
    // The SAT→VMC reduction and the VMC→SAT encoding compose to the
    // identity on satisfiability (fuzzed lightly — each round trip is
    // expensive).
    prop_check!(
        PropConfig::with_cases(12),
        |rng: &mut StdRng, _size| rng.gen_range(0..1000u64),
        |&seed: &u64| {
            let cfg = vermem::sat::random::RandomSatConfig {
                num_vars: 3,
                num_clauses: 5,
                k: 2,
                seed,
            };
            let f = vermem::sat::random::gen_random_ksat(&cfg);
            let direct = vermem::sat::solve_cdcl(&f).is_sat();
            let red = vermem::reductions::reduce_sat_to_vmc(&f);
            let enc = vermem::coherence::encode_vmc(&AddrOps::of(&red.trace, Addr::ZERO));
            let via = matches!(
                vermem::sat::solve_cdcl(enc.cnf()),
                vermem::sat::SatResult::Sat(_)
            );
            prop_assert_eq!(direct, via);
            Ok(())
        }
    );
}
