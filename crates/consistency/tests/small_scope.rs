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
//!   Coherence agree. On the same space the stream engine, on each
//!   trace's v2 encoding at windows 1 and unbounded, reports the batch
//!   verdict, `SearchStats` and tier counts, and the §5.2 placement
//!   monitor (`OnlineVerifier`), fed the operations in process-major
//!   order, decides as `solve_with_write_order` does given the writes in
//!   that order.

use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::{
    one_op, readmap, rmw, solve_sat_ops, solve_with_write_order, verify_execution,
    verify_execution_par, verify_stream_bytes, OnlineVerifier, PruneConfig, SearchConfig, Strategy,
    StreamConfig, Verdict, VmcVerifier,
};
use vermem_consistency::oracle::serializes;
use vermem_consistency::{verify_axiom, AxiomConfig, ConsistencyVerdict, Engine, ModelId};
use vermem_trace::binary::encode_trace;
use vermem_trace::gen::{small_traces, SmallScope};
use vermem_trace::{check_coherent_schedule_ops, Addr, AddrOps, Trace};

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
        assert_eq!(decided(solve_sat_ops(&ops)), ok, "{t:?}");
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
                    check_coherent_schedule_ops(&ops, s).unwrap();
                }
                assert_eq!(decided(v), ok, "{t:?}");
            }
        }
        match analyze_ops(&ops).0 {
            ClosureOutcome::Coherent(s) => {
                assert!(ok, "{t:?}");
                check_coherent_schedule_ops(&ops, &s).unwrap();
            }
            ClosureOutcome::Violation(_) => assert!(!ok, "{t:?}"),
            ClosureOutcome::Escalate(_) => {}
        }
    });
    assert_eq!((traces, coherent), (80_997, 10_219));
    assert_eq!(applicable, [49, 772, 115, 18]);
}

#[test]
fn vmc_space_stream_engine_and_monitor_agree() {
    let stream = |window| StreamConfig {
        window,
        jobs: 1,
        temporal: false,
        verifier: VmcVerifier::new(),
        ..StreamConfig::default()
    };
    let (mut traces, mut clean) = (0, 0);
    space(4, 1, 3, |t| {
        traces += 1;
        let batch = verify_execution_par(t, &VmcVerifier::new(), 1);
        let bytes = encode_trace(t);
        for window in [Some(1), None] {
            let report = verify_stream_bytes(&bytes, stream(window)).expect("decode");
            assert!(
                report.verdict.matches_batch(&batch.verdict),
                "{window:?}: {t:?}"
            );
            assert_eq!(report.stats, batch.stats, "{window:?}: {t:?}");
            assert_eq!(report.tiers, batch.tiers, "{window:?}: {t:?}");
        }
        // Process-major order: the writes commit in that order too.
        let ops = AddrOps::of(t, Addr::ZERO);
        let mut online = OnlineVerifier::new();
        for (r, op) in ops.iter() {
            online.observe(r.proc, op);
        }
        let online_clean = online.finish().is_empty();
        let writes: Vec<_> = ops
            .iter()
            .filter(|(_, op)| op.is_writing())
            .map(|(r, _)| r)
            .collect();
        let offline = solve_with_write_order(&ops, &writes);
        assert_eq!(online_clean, offline.is_coherent(), "{t:?}");
        // A schedule that honours some write order is a coherent schedule.
        assert!(!online_clean || batch.verdict.is_coherent(), "{t:?}");
        clean += usize::from(online_clean);
    });
    assert_eq!((traces, clean), (80_997, 5_819));
}
