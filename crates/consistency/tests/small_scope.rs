//! Small-scope exhaustive differential: every trace up to a bound, one per
//! symmetry class (`vermem_trace::gen::small_traces`), through every
//! decider that applies.
//!
//! * **4-op space** (≤4 ops, ≤3 processes, 2 addresses, values {0,1}): the
//!   compiled SC, TSO, PSO and Coherence equal the serialization oracle,
//!   compiled Coherence equals per-address coherence, and
//!   SC ⊆ TSO ⊆ PSO ⊆ Coherence. Four operations is the smallest bound
//!   at which the models differ, and flipping any one cross-address
//!   enforcement cell of SC, TSO or PSO fails this test. The compiled RA
//!   and ARM-dob equal the witness oracle (`oracle::witnessed`).
//! * **3-op space** (≤3 ops, ≤3 processes, 2 addresses, values {0,1,2}):
//!   the compiled engine equals the SAT engine for all six models, and
//!   neither answers `Unknown`; for RA and ARM-dob both equal the witness
//!   oracle. With each address, touched or not, given
//!   no final value or one of 0, 1, 2: the compiled SC, TSO, PSO and
//!   Coherence equal the serialization oracle, and for Coherence so do
//!   the SAT engine and `verify_execution`; on every trace with an
//!   address that carries only a final value, the stream engine reports
//!   the batch verdict. Under SC, TSO, PSO and Coherence, some ordering
//!   of each trace's operations passes the schedule checker iff the
//!   serialization oracle accepts the trace; `check_sc_schedule` and the
//!   SC model checker agree on every ordering and on its defective
//!   variants (an operation dropped, duplicated or replaced by a dangling
//!   reference), which both reject; and a digest pins every accept bit.
//! * **VMC space** (≤4 ops, ≤3 processes, 1 address, values {0,1,2}): the
//!   default VMC dispatcher, the unpruned backtracking search, certified
//!   SAT, every outcome the closure frontline decides, every Figure 5.3
//!   fast path on each trace its own predicate admits, and compiled
//!   Coherence agree. Compiled SC reports the unpruned search's witness
//!   and its states, branches and memo traffic. On the same space the stream engine, on each
//!   trace's v2 encoding at windows 1 and unbounded, reports the batch
//!   verdict, `SearchStats` and tier counts, and the §5.2 placement
//!   monitor (`OnlineVerifier`), fed the operations in process-major
//!   order, decides as `solve_with_write_order` does given the writes in
//!   that order.

use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::{
    one_op, readmap, rmw, solve_sat_ops, solve_with_write_order, verify_execution,
    verify_execution_par, verify_stream_bytes, OnlineVerifier, SearchConfig, SearchStats, Strategy,
    StreamConfig, Verdict, VmcVerifier,
};
use vermem_consistency::oracle::{serializes, witnessed};
use vermem_consistency::{
    check_model_schedule, verify_axiom, AxiomConfig, ConsistencyVerdict, Engine, ModelId,
};
use vermem_trace::binary::encode_trace;
use vermem_trace::gen::{small_traces, SmallScope};
use vermem_trace::{
    check_coherent_schedule_ops, check_sc_schedule, Addr, AddrOps, OpRef, Schedule, Trace,
};

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
fn four_op_space_compiled_equals_witness_oracle() {
    let (mut traces, mut consistent) = (0, [0; 2]);
    space(4, 2, 2, |t| {
        traces += 1;
        for (n, id) in consistent.iter_mut().zip([ModelId::Ra, ModelId::ArmDob]) {
            let ok = witnessed(t, id);
            assert_eq!(compiled(t, id).is_consistent(), ok, "{}: {t:?}", id.name());
            *n += usize::from(ok);
        }
    });
    assert_eq!(traces, 104_168);
    assert_eq!(consistent, [24_936, 24_956]);
}

#[test]
fn three_op_space_compiled_equals_sat() {
    let sat = AxiomConfig {
        engine: Engine::Sat,
        ..AxiomConfig::default()
    };
    let (mut traces, mut consistent) = (0, [0; 2]);
    space(3, 2, 3, |t| {
        traces += 1;
        for id in ModelId::ALL {
            let (c, s) = (compiled(t, id), verify_axiom(t, id, &sat).verdict);
            assert!(c.unknown_stats().is_none() && s.unknown_stats().is_none());
            assert_eq!(c.is_consistent(), s.is_consistent(), "{}: {t:?}", id.name());
            if let Some(k) = [ModelId::Ra, ModelId::ArmDob].iter().position(|&m| m == id) {
                let ok = witnessed(t, id);
                assert_eq!(c.is_consistent(), ok, "{}: {t:?}", id.name());
                consistent[k] += usize::from(ok);
            }
        }
    });
    assert_eq!(traces, 15_255);
    assert_eq!(consistent, [2_230, 2_230]);
}

#[test]
fn three_op_space_with_final_values_equals_oracle() {
    let sat = AxiomConfig {
        engine: Engine::Sat,
        ..AxiomConfig::default()
    };
    let finals = [None, Some(0u64), Some(1), Some(2)];
    let (mut traces, mut final_only, mut consistent) = (0, 0, [0; 4]);
    space(3, 2, 3, |base| {
        for (f0, f1) in finals.into_iter().flat_map(|f0| finals.map(|f1| (f0, f1))) {
            let mut t = base.clone();
            for (addr, f) in [(0u32, f0), (1, f1)] {
                if let Some(v) = f {
                    t.set_final(addr, v);
                }
            }
            traces += 1;
            let verdicts = ModelId::SERIALIZING.map(|id| {
                let got = compiled(&t, id).is_consistent();
                assert_eq!(got, serializes(&t, id), "{}: {t:?}", id.name());
                got
            });
            let coh = verdicts[3];
            let by_sat = verify_axiom(&t, ModelId::CoherenceOnly, &sat).verdict;
            assert_eq!(by_sat.is_consistent(), coh, "{t:?}");
            let batch = verify_execution_par(&t, &VmcVerifier::new(), 1);
            assert_eq!(batch.is_coherent(), coh, "{t:?}");
            // The stream engine lays out final-only addresses on its own.
            if t.addresses().len() > base.addresses().len() {
                final_only += 1;
                let one_shard = StreamConfig {
                    jobs: 1,
                    ..StreamConfig::default()
                };
                let report = verify_stream_bytes(&encode_trace(&t), one_shard).expect("decode");
                assert!(report.verdict.matches_batch(&batch.verdict), "{t:?}");
                assert_eq!(report.addresses, batch.addresses, "{t:?}");
            }
            for (n, ok) in consistent.iter_mut().zip(verdicts) {
                *n += usize::from(ok);
            }
        }
    });
    assert_eq!((traces, final_only), (16 * 15_255, 47_376));
    assert_eq!(consistent, [9_272; 4]);
}

/// Every ordering of `refs`.
fn permutations(refs: &[OpRef]) -> Vec<Vec<OpRef>> {
    if refs.is_empty() {
        return vec![Vec::new()];
    }
    (0..refs.len())
        .flat_map(|i| {
            let mut rest = refs.to_vec();
            let first = rest.remove(i);
            permutations(&rest).into_iter().map(move |mut p| {
                p.insert(0, first);
                p
            })
        })
        .collect()
}

#[test]
fn three_op_space_schedule_checkers_equal_oracle() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut traces, mut checked, mut accepted) = (0, 0, 0);
    space(3, 2, 3, |t| {
        traces += 1;
        let refs: Vec<OpRef> = t.iter_ops().map(|(r, _)| r).collect();
        for id in ModelId::SERIALIZING {
            let mut some_accepted = false;
            for order in permutations(&refs) {
                let mut defective = Vec::new();
                if let Some(&first) = order.first() {
                    defective.push(order[1..].to_vec());
                    defective.push([order.as_slice(), &[first]].concat());
                    let mut dangling = order.clone();
                    dangling[0] = OpRef::new(0u16, 99);
                    defective.push(dangling);
                }
                let valid = std::iter::once((order, true));
                for (refs, complete) in valid.chain(defective.into_iter().map(|d| (d, false))) {
                    let s = Schedule::from_refs(refs);
                    let ok = check_model_schedule(t, id, &s).is_ok();
                    if id == ModelId::Sc {
                        assert_eq!(ok, check_sc_schedule(t, &s).is_ok(), "{t:?} {s:?}");
                    }
                    assert!(complete || !ok, "{}: {t:?} {s:?}", id.name());
                    some_accepted |= ok;
                    checked += 1;
                    accepted += usize::from(ok);
                    hash = (hash ^ u64::from(ok)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(some_accepted, serializes(t, id), "{}: {t:?}", id.name());
        }
    });
    assert_eq!((traces, checked, accepted), (15_255, 1_440_336, 18_824));
    assert_eq!(hash, 0xfb51_ffa3_1475_19d5, "{hash:#018x}");
}

#[test]
fn vmc_space_every_decider_agrees() {
    let unpruned = VmcVerifier {
        strategy: Strategy::Backtracking,
        search: SearchConfig {
            prune: false,
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
        let (vmc, vmc_stats, _) = unpruned.verify_ops(&ops);
        assert_eq!(decided(vmc.clone()), ok, "{t:?}");
        // Compiled SC at one address is the unpruned search: the same
        // witness and search counts.
        let sc = verify_axiom(t, ModelId::Sc, &AxiomConfig::default());
        assert_eq!(sc.verdict.schedule(), vmc.schedule(), "{t:?}");
        assert_eq!(sc.verdict.is_violating(), !ok, "{t:?}");
        let search = |s: SearchStats| (s.states, s.branches, s.memo_hits, s.memo_misses);
        assert_eq!(search(sc.stats), search(vmc_stats), "{t:?}");
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
