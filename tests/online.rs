//! The online checker against real machine event streams: it must agree
//! with the offline §5.2 write-order verification on every run — healthy,
//! TSO, or fault-injected.

use vermem::coherence::{
    solve_with_write_order, verify_stream_bytes, OnlineVerifier, StreamConfig,
};
use vermem::sim::{
    event_stream_bytes, random_program, shared_counter, FaultKind, FaultPlan, Machine,
    MachineConfig, WorkloadConfig,
};

fn offline_clean(cap: &vermem::sim::CapturedExecution) -> bool {
    let index = AddrIndex::build(&cap.trace);
    cap.write_order
        .iter()
        .all(|(addr, order)| solve_with_write_order(index.get(*addr).unwrap(), order).is_coherent())
}

fn online_clean(cap: &vermem::sim::CapturedExecution) -> bool {
    let mut v = OnlineVerifier::new();
    for &(proc, op) in &cap.event_log {
        v.observe(proc, op);
    }
    v.finish().is_empty()
}

fn workload(seed: u64) -> vermem::sim::Program {
    random_program(&WorkloadConfig {
        cpus: 4,
        instrs_per_cpu: 40,
        addrs: 3,
        write_fraction: 0.45,
        rmw_fraction: 0.1,
        seed,
    })
}

#[test]
fn online_accepts_healthy_snooping_runs() {
    for seed in 0..25 {
        let cap = Machine::run(
            &workload(seed),
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        assert!(online_clean(&cap), "false positive online (seed {seed})");
    }
}

#[test]
fn online_accepts_healthy_tso_runs() {
    for seed in 0..25 {
        let cap = Machine::run(
            &workload(100 + seed),
            MachineConfig {
                store_buffers: true,
                seed,
                ..Default::default()
            },
        );
        assert!(
            online_clean(&cap),
            "false positive online under TSO (seed {seed})"
        );
    }
}

#[test]
fn online_agrees_with_offline_on_faulty_runs() {
    let kinds = [
        FaultKind::CorruptFill {
            cpu: 1,
            xor: 0xF00D,
        },
        FaultKind::DropInvalidation { victim_cpu: 2 },
        FaultKind::LostWrite { cpu: 0 },
        FaultKind::StaleFill { cpu: 1 },
    ];
    let mut detections = 0;
    for (i, kind) in kinds.into_iter().enumerate() {
        for seed in 0..20 {
            let program = if i % 2 == 0 {
                workload(300 + seed)
            } else {
                shared_counter(3, 8)
            };
            let cap = Machine::run(
                &program,
                MachineConfig {
                    seed,
                    faults: vec![FaultPlan { kind, at_step: 10 }],
                    ..Default::default()
                },
            );
            let offline = offline_clean(&cap);
            let online = online_clean(&cap);
            assert_eq!(
                offline, online,
                "online/offline divergence: {kind:?}, seed {seed}"
            );
            if !online {
                detections += 1;
            }
        }
    }
    assert!(detections > 0, "no fault was ever detected");
}

#[test]
fn online_detection_is_prompt_for_rmw_chains() {
    // On the counter workload, a stale RMW is flagged at the very event
    // that commits it (RmwMismatch), not at end of stream.
    for seed in 0..40 {
        let cap = Machine::run(
            &shared_counter(3, 8),
            MachineConfig {
                seed,
                faults: vec![FaultPlan {
                    kind: FaultKind::DropInvalidation { victim_cpu: 1 },
                    at_step: 6,
                }],
                ..Default::default()
            },
        );
        let mut v = OnlineVerifier::new();
        let mut first_hit = None;
        for (i, &(proc, op)) in cap.event_log.iter().enumerate() {
            if v.observe(proc, op) > 0 && first_hit.is_none() {
                first_hit = Some(i);
            }
        }
        let total = cap.event_log.len();
        if let Some(at) = first_hit {
            assert!(at < total, "detected within the stream");
            return; // one prompt detection is enough
        }
    }
    panic!("no seed produced a mid-stream detection");
}

#[test]
fn online_matches_offline_on_generated_traces_with_witness_order() {
    // Feed generator witnesses through the online checker: the witness
    // order is a valid serialization, so the stream must be clean.
    use vermem::trace::gen::{gen_sc_trace, GenConfig};
    for seed in 0..20 {
        let (trace, witness) = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: 60,
            addrs: 2,
            seed,
            ..Default::default()
        });
        let mut v = OnlineVerifier::new();
        for &r in witness.refs() {
            let op = trace.op(r).expect("witness ref");
            v.observe(r.proc, op);
        }
        assert!(
            v.finish().is_empty(),
            "witness stream must be clean (seed {seed})"
        );
    }
}

// --- Property tests: online ≡ §5.2 write-order verification ---------------
//
// The module docs of `coherence::online` claim the streaming verdict is
// identical to `solve_with_write_order` run offline. The two properties
// below make that claim checked code on the adversarial families: RMW-heavy
// streams (every RMW binds to the immediately preceding commit) and
// deferred-read-heavy streams (reads issued long before their serving
// writes commit, exercising the pending-queue machinery).

use std::cell::Cell;
use std::collections::BTreeMap;
use vermem::trace::{AddrIndex, Op, OpRef, ProcId, Trace, TraceBuilder, Value};
use vermem::util::prop::PropConfig;
use vermem::util::rng::StdRng;
use vermem::util::{prop_assert, prop_assert_eq, prop_check};

/// Re-serialize `trace` with one read's value flipped (a coherence bug the
/// checkers must agree on), leaving op identities untouched.
fn corrupt_one_read(trace: &Trace, rng: &mut StdRng) -> Trace {
    let reads: Vec<OpRef> = trace
        .iter_ops()
        .filter(|(_, op)| matches!(op, Op::Read { .. }))
        .map(|(r, _)| r)
        .collect();
    if reads.is_empty() {
        return trace.clone();
    }
    let target = reads[rng.gen_range(0..reads.len())];
    let mut b = TraceBuilder::new();
    for (p, h) in trace.histories().iter().enumerate() {
        let ops: Vec<Op> = h
            .iter()
            .enumerate()
            .map(|(i, op)| {
                if OpRef::new(p as u16, i as u32) == target {
                    if let Op::Read { addr, value } = op {
                        return Op::Read {
                            addr,
                            value: Value(value.0 ^ 0xDEAD),
                        };
                    }
                }
                op
            })
            .collect();
        b = b.proc(ops);
    }
    for (&a, &v) in trace.initial_values() {
        b = b.initial(a, v);
    }
    for (&a, &v) in trace.final_values() {
        b = b.final_value(a, v);
    }
    b.build()
}

/// Merge `trace`'s program orders into one event stream that respects the
/// supplied per-address write orders but emits every *read* as early as
/// possible — the deferral-maximizing interleaving. Returns the stream and
/// the number of reads emitted before their serving write committed.
/// Case shape for the deferred-read property: generated trace, per-address
/// write order, merged stream, and the count of deferral-forcing reads.
type DeferredCase = (
    Trace,
    BTreeMap<vermem::trace::Addr, Vec<OpRef>>,
    Vec<(ProcId, Op)>,
    usize,
);

fn deferred_read_heavy_stream(
    trace: &Trace,
    order: &BTreeMap<vermem::trace::Addr, Vec<OpRef>>,
    rng: &mut StdRng,
) -> (Vec<(ProcId, Op)>, usize) {
    let procs = trace.num_procs();
    let mut next = vec![0usize; procs];
    let mut committed: BTreeMap<vermem::trace::Addr, usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(trace.num_ops());
    let mut early_reads = 0usize;
    loop {
        let mut read_cands: Vec<usize> = Vec::new();
        let mut write_cands: Vec<usize> = Vec::new();
        for (p, &np) in next.iter().enumerate() {
            let Some(op) = trace.histories()[p].op(np) else {
                continue;
            };
            if matches!(op, Op::Read { .. }) {
                read_cands.push(p);
            } else {
                let addr = op.addr();
                let k = committed.get(&addr).copied().unwrap_or(0);
                if order.get(&addr).and_then(|o| o.get(k)) == Some(&OpRef::new(p as u16, np as u32))
                {
                    write_cands.push(p);
                }
            }
        }
        let p = if !read_cands.is_empty() {
            read_cands[rng.gen_range(0..read_cands.len())]
        } else if !write_cands.is_empty() {
            write_cands[rng.gen_range(0..write_cands.len())]
        } else {
            break;
        };
        let op = trace.histories()[p].op(next[p]).expect("candidate");
        next[p] += 1;
        if let Op::Read { addr, value } = op {
            // "Early" = the observed value has not been committed yet (and
            // is not the initial value): the online checker must defer it.
            let k = committed.get(&addr).copied().unwrap_or(0);
            let already = value == trace.initial(addr)
                || order.get(&addr).is_some_and(|o| {
                    o[..k]
                        .iter()
                        .any(|&r| trace.op(r).and_then(|w| w.written_value()) == Some(value))
                });
            if !already {
                early_reads += 1;
            }
        } else {
            *committed.entry(op.addr()).or_insert(0) += 1;
        }
        out.push((ProcId(p as u16), op));
    }
    (out, early_reads)
}

/// `true` iff every address verifies coherent under the supplied write
/// order (the offline §5.2 decision).
fn write_order_clean(trace: &Trace, order: &BTreeMap<vermem::trace::Addr, Vec<OpRef>>) -> bool {
    AddrIndex::build(trace).iter().all(|ops| {
        let o = order.get(&ops.addr()).map_or(&[][..], Vec::as_slice);
        solve_with_write_order(ops, o).is_coherent()
    })
}

#[test]
fn prop_online_equals_write_order_on_rmw_heavy_captures() {
    // RMW-heavy machine runs, healthy and fault-injected: the online
    // verdict must equal the offline write-order-supplied verdict.
    let incoherent_seen = Cell::new(0usize);
    prop_check!(
        PropConfig::with_cases(48),
        |rng: &mut StdRng, _size| {
            let seed = rng.gen_range(0..1_000_000u64);
            let faulty = rng.gen_bool(0.5);
            (seed, faulty)
        },
        |case: &(u64, bool)| {
            let (seed, faulty) = *case;
            let program = random_program(&WorkloadConfig {
                cpus: 4,
                instrs_per_cpu: 30,
                addrs: 3,
                write_fraction: 0.2,
                rmw_fraction: 0.6,
                seed,
            });
            let faults = if faulty {
                vec![FaultPlan {
                    kind: FaultKind::DropInvalidation {
                        victim_cpu: (seed % 4) as usize,
                    },
                    at_step: 6 + (seed % 10),
                }]
            } else {
                Vec::new()
            };
            let cap = Machine::run(
                &program,
                MachineConfig {
                    seed,
                    faults,
                    ..Default::default()
                },
            );
            let offline = write_order_clean(&cap.trace, &cap.write_order);
            let online = online_clean(&cap);
            prop_assert_eq!(online, offline);
            if !offline {
                incoherent_seen.set(incoherent_seen.get() + 1);
            }
            Ok(())
        }
    );
    assert!(
        incoherent_seen.get() > 0,
        "no RMW-heavy case exercised the incoherent direction"
    );
}

#[test]
fn prop_online_equals_write_order_on_deferred_read_heavy_streams() {
    // Witness-ordered generated traces re-merged so reads arrive as early
    // as legally possible (maximal deferral), sometimes with one read
    // corrupted: online and offline §5.2 verdicts must still coincide.
    let early_total = Cell::new(0usize);
    let incoherent_seen = Cell::new(0usize);
    prop_check!(
        PropConfig::with_cases(48),
        |rng: &mut StdRng, _size| {
            let (trace, witness) =
                vermem::trace::gen::gen_sc_trace(&vermem::trace::gen::GenConfig {
                    procs: 4,
                    total_ops: 80,
                    addrs: 3,
                    value_reuse: 0.4,
                    seed: rng.gen_range(0..1_000_000u64),
                    ..Default::default()
                });
            // Per-address write order = the witness's commit order.
            let mut order: BTreeMap<vermem::trace::Addr, Vec<OpRef>> = BTreeMap::new();
            for &r in witness.refs() {
                let op = trace.op(r).expect("witness ref");
                if op.written_value().is_some() {
                    order.entry(op.addr()).or_default().push(r);
                }
            }
            let trace = if rng.gen_bool(0.4) {
                corrupt_one_read(&trace, rng)
            } else {
                trace
            };
            let (stream, early) = deferred_read_heavy_stream(&trace, &order, rng);
            (trace, order, stream, early)
        },
        |case: &DeferredCase| {
            let (trace, order, stream, early) = case;
            prop_assert!(
                stream.len() == trace.num_ops(),
                "merge must emit every op exactly once"
            );
            let mut v = OnlineVerifier::new();
            for (&a, &val) in trace.initial_values() {
                v.set_initial(a, val);
            }
            for &(proc, op) in stream {
                v.observe(proc, op);
            }
            let online = v.finish().is_empty();
            let offline = write_order_clean(trace, order);
            prop_assert_eq!(online, offline);
            early_total.set(early_total.get() + early);
            if !offline {
                incoherent_seen.set(incoherent_seen.get() + 1);
            }
            Ok(())
        }
    );
    assert!(
        early_total.get() > 0,
        "no case actually deferred a read — the family is mislabeled"
    );
    assert!(
        incoherent_seen.get() > 0,
        "no corrupted case exercised the incoherent direction"
    );
}

#[test]
fn online_violations_equal_stream_detections() {
    // The online checker and the streaming engine run one per-address
    // monitor, so on SC captures (healthy and with each fault kind) they
    // report the same violations in the same order. RMWs let one event
    // raise several violations at once (closed windows plus a mismatch).
    let plans: [Option<FaultKind>; 5] = [
        None,
        Some(FaultKind::DropInvalidation { victim_cpu: 1 }),
        Some(FaultKind::CorruptFill { cpu: 2, xor: 0xF00 }),
        Some(FaultKind::LostWrite { cpu: 0 }),
        Some(FaultKind::StaleFill { cpu: 1 }),
    ];
    let (mut flagged, mut multi) = (0, 0);
    for plan in plans {
        for seed in 0..40u64 {
            let program = random_program(&WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 24,
                addrs: 2,
                write_fraction: 0.4,
                rmw_fraction: 0.25,
                seed: 5000 + seed,
            });
            let cap = Machine::run(
                &program,
                MachineConfig {
                    seed,
                    faults: plan
                        .map(|kind| FaultPlan {
                            kind,
                            at_step: 4 + seed % 16,
                        })
                        .into_iter()
                        .collect(),
                    ..Default::default()
                },
            );
            let mut online = OnlineVerifier::new();
            for &(proc, op) in &cap.event_log {
                multi += usize::from(online.observe(proc, op) > 1);
            }
            let violations = online.finish();
            flagged += usize::from(!violations.is_empty());

            let bytes = event_stream_bytes(&cap).expect("SC captures stream");
            let report = verify_stream_bytes(
                &bytes,
                StreamConfig {
                    window: None,
                    jobs: 1,
                    temporal: true,
                    ..StreamConfig::default()
                },
            )
            .expect("decode");
            assert_eq!(
                violations, report.detections,
                "online vs stream detections: {plan:?}, seed {seed}"
            );
        }
    }
    assert!(flagged > 0, "no capture was ever flagged");
    assert!(multi > 0, "no event raised two violations at once");
}
