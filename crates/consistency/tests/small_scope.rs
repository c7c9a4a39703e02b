//! Small-scope exhaustive differential: every trace up to a bound, one per
//! symmetry class (`vermem_trace::gen::small_traces`), through every
//! decider that applies.
//!
//! * **4-op space** (≤4 ops, ≤3 processes, 2 addresses, values {0,1}): the
//!   compiled SC, TSO, PSO and Coherence equal the serialization oracle,
//!   compiled Coherence equals per-address coherence, and
//!   SC ⊆ TSO ⊆ PSO ⊆ Coherence. Four operations is the smallest bound
//!   at which the models differ, and flipping any one cross-address
//!   enforcement cell of SC, TSO or PSO fails this test.
//! * **3-op space** (≤3 ops, ≤3 processes, 2 addresses, values {0,1,2}):
//!   the compiled engine equals the SAT engine for all six models, and
//!   neither answers `Unknown`.
//! * **VMC space** (≤4 ops, ≤3 processes, 1 address, values {0,1,2}): the
//!   default VMC dispatcher, the unpruned backtracking search, certified
//!   SAT, every outcome the closure frontline decides, every Figure 5.3
//!   fast path on each trace its own predicate admits, and compiled
//!   Coherence agree.

use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::{
    one_op, readmap, rmw, solve_sat_certified, verify_execution, PruneConfig, SearchConfig,
    Strategy, Verdict, VmcVerifier,
};
use vermem_consistency::oracle::serializes;
use vermem_consistency::{verify_axiom, AxiomConfig, ConsistencyVerdict, Engine, ModelId};
use vermem_trace::gen::{small_traces, SmallScope};
use vermem_trace::{check_coherent_schedule, Addr, AddrOps, Trace};

fn compiled(trace: &Trace, id: ModelId) -> ConsistencyVerdict {
    verify_axiom(trace, id, &AxiomConfig::default()).verdict
}

fn space(max_ops: usize, addrs: u32, values: u64, f: impl FnMut(&Trace)) {
    small_traces(
        &SmallScope {
            max_ops,
            addrs,
            values,
        },
        f,
    );
}

#[test]
fn four_op_space_compiled_equals_oracle() {
    let (mut traces, mut consistent) = (0, [0; 4]);
    space(4, 2, 2, |t| {
        traces += 1;
        let verdicts = ModelId::SERIALIZING.map(|id| {
            let got = compiled(t, id).is_consistent();
            assert_eq!(got, serializes(t, id), "{}: {t:?}", id.name());
            got
        });
        let [sc, tso, pso, coh] = verdicts;
        assert!((!sc || tso) && (!tso || pso) && (!pso || coh), "{t:?}");
        assert_eq!(coh, verify_execution(t).is_coherent(), "{t:?}");
        for (n, ok) in consistent.iter_mut().zip(verdicts) {
            *n += usize::from(ok);
        }
    });
    assert_eq!(traces, 104_168);
    assert_eq!(consistent, [24_926, 24_932, 24_941, 24_992]);
}

#[test]
fn three_op_space_compiled_equals_sat() {
    let sat = AxiomConfig {
        engine: Engine::Sat,
        ..AxiomConfig::default()
    };
    let mut traces = 0;
    space(3, 2, 3, |t| {
        traces += 1;
        for id in ModelId::ALL {
            let (c, s) = (compiled(t, id), verify_axiom(t, id, &sat).verdict);
            assert!(c.unknown_stats().is_none() && s.unknown_stats().is_none());
            assert_eq!(c.is_consistent(), s.is_consistent(), "{}: {t:?}", id.name());
        }
    });
    assert_eq!(traces, 15_255);
}

#[test]
fn vmc_space_every_decider_agrees() {
    let unpruned = VmcVerifier {
        strategy: Strategy::Backtracking,
        search: SearchConfig {
            prune: PruneConfig::none(),
            ..SearchConfig::default()
        },
        ..VmcVerifier::default()
    };
    // The dispatcher runs only the first fast path that applies; here each
    // one runs on every trace its own predicate admits.
    type FastPath = (fn(&AddrOps) -> bool, fn(&AddrOps) -> Verdict);
    let fast_paths: [FastPath; 4] = [
        (one_op::applicable_ops, one_op::solve_one_op_ops),
        (readmap::applicable_ops, readmap::solve_readmap_ops),
        (rmw::one_op_applicable_ops, rmw::solve_rmw_one_op_ops),
        (rmw::readmap_applicable_ops, rmw::solve_rmw_readmap_ops),
    ];
    let (mut traces, mut coherent, mut applicable) = (0, 0, [0; 4]);
    space(4, 1, 3, |t| {
        traces += 1;
        let decided = |v: Verdict| {
            assert_ne!(v, Verdict::Unknown, "{t:?}");
            v.is_coherent()
        };
        let ops = AddrOps::of(t, Addr::ZERO);
        let ok = decided(VmcVerifier::new().verify_ops(&ops).0);
        coherent += usize::from(ok);
        assert_eq!(decided(unpruned.verify_ops(&ops).0), ok, "{t:?}");
        assert_eq!(decided(solve_sat_certified(t, Addr::ZERO)), ok, "{t:?}");
        assert_eq!(
            compiled(t, ModelId::CoherenceOnly).is_consistent(),
            ok,
            "{t:?}"
        );
        for ((applies, solve), n) in fast_paths.iter().zip(&mut applicable) {
            if applies(&ops) {
                *n += 1;
                let v = solve(&ops);
                if let Some(s) = v.schedule() {
                    check_coherent_schedule(t, Addr::ZERO, s).unwrap();
                }
                assert_eq!(decided(v), ok, "{t:?}");
            }
        }
        match analyze_ops(&ops).0 {
            ClosureOutcome::Coherent(s) => {
                assert!(ok, "{t:?}");
                check_coherent_schedule(t, Addr::ZERO, &s).unwrap();
            }
            ClosureOutcome::Violation(_) => assert!(!ok, "{t:?}"),
            ClosureOutcome::Escalate(_) => {}
        }
    });
    assert_eq!((traces, coherent), (80_997, 10_219));
    assert_eq!(applicable, [49, 772, 115, 18]);
}
