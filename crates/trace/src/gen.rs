//! Workload generators and violation injectors.
//!
//! Generators produce traces that are sequentially consistent (and hence
//! coherent at every address) *by construction*, together with the witness
//! schedule. Injectors then plant specific classes of coherence violations —
//! the error patterns a broken coherence protocol would produce (stale reads,
//! lost writes, corrupted data) — so verifiers can be tested for detection.

use crate::history::ProcessHistory;
use crate::index::AddrIndex;
use crate::op::{Addr, Op, OpRef, Value};
use crate::schedule::Schedule;
use crate::trace::{Trace, TraceBuilder};
use std::collections::BTreeMap;
use vermem_util::rng::{SliceRandom, StdRng};

/// Configuration for the sequentially-consistent workload generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of processes.
    pub procs: usize,
    /// Total number of operations to generate across all processes.
    pub total_ops: usize,
    /// Number of distinct shared locations.
    pub addrs: usize,
    /// Probability that a generated operation is a write (vs a read), before
    /// RMW selection.
    pub write_fraction: f64,
    /// Probability that a generated operation is an atomic read-modify-write.
    pub rmw_fraction: f64,
    /// Probability that a write reuses a previously written value instead of
    /// allocating a fresh one. Reuse creates multi-writer values, which is
    /// what makes coherence verification combinatorially hard (Figure 5.3).
    pub value_reuse: f64,
    /// RNG seed, for reproducible workloads.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            procs: 4,
            total_ops: 64,
            addrs: 1,
            write_fraction: 0.5,
            rmw_fraction: 0.0,
            value_reuse: 0.3,
            seed: 0xC0FFEE,
        }
    }
}

impl GenConfig {
    /// Single-address configuration (a VMC workload).
    pub fn single_address(procs: usize, total_ops: usize, seed: u64) -> Self {
        GenConfig {
            procs,
            total_ops,
            addrs: 1,
            seed,
            ..Default::default()
        }
    }

    /// All-RMW configuration.
    pub fn all_rmw(procs: usize, total_ops: usize, seed: u64) -> Self {
        GenConfig {
            procs,
            total_ops,
            rmw_fraction: 1.0,
            seed,
            ..Default::default()
        }
    }
}

/// Generate a sequentially consistent trace by simulating an SC machine: at
/// each step a random process performs a random operation against the
/// current memory state. Returns the trace and the witness schedule (the
/// generation order), which [`crate::schedule::check_sc_schedule`] accepts.
pub fn gen_sc_trace(cfg: &GenConfig) -> (Trace, Schedule) {
    assert!(cfg.procs > 0, "need at least one process");
    assert!(cfg.addrs > 0, "need at least one address");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut histories = vec![ProcessHistory::new(); cfg.procs];
    let mut schedule = Schedule::new();
    let mut memory: BTreeMap<Addr, Value> = BTreeMap::new();
    // Values ever written per address, for reuse; fresh values from a counter
    // disjoint from Value::INITIAL.
    let mut written: BTreeMap<Addr, Vec<Value>> = BTreeMap::new();
    let mut next_value: u64 = 1;

    for _ in 0..cfg.total_ops {
        let p = rng.gen_range(0..cfg.procs);
        let addr = Addr(rng.gen_range(0..cfg.addrs) as u32);
        let current = memory.get(&addr).copied().unwrap_or(Value::INITIAL);

        let mut pick_written_value = |rng: &mut StdRng, written: &BTreeMap<Addr, Vec<Value>>| {
            let pool = written.get(&addr).map(|v| v.as_slice()).unwrap_or(&[]);
            if !pool.is_empty() && rng.gen_bool(cfg.value_reuse) {
                *pool.choose(rng).expect("non-empty")
            } else {
                let v = Value(next_value);
                next_value += 1;
                v
            }
        };

        let op = if rng.gen_bool(cfg.rmw_fraction) {
            let w = pick_written_value(&mut rng, &written);
            Op::Rmw {
                addr,
                read: current,
                write: w,
            }
        } else if rng.gen_bool(cfg.write_fraction) {
            let w = pick_written_value(&mut rng, &written);
            Op::Write { addr, value: w }
        } else {
            Op::Read {
                addr,
                value: current,
            }
        };

        if let Some(w) = op.written_value() {
            memory.insert(addr, w);
            written.entry(addr).or_default().push(w);
        }
        let index = histories[p].len() as u32;
        histories[p].push(op);
        schedule.push(OpRef::new(p as u16, index));
    }

    let trace = Trace::from_histories(histories);
    (trace, schedule)
}

/// A class of coherence violation to inject, modelling a protocol failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A read returns a value that no operation ever writes (data
    /// corruption / bit flip on the fill path). Always a real violation.
    CorruptReadValue,
    /// A read returns a value that was written, but earlier in the witness
    /// order than the write it should have observed (a stale cache line
    /// served after a missed invalidation). Usually, but not always, a
    /// violation — another coherent ordering may exist.
    StaleRead,
    /// A write operation is deleted from its history while reads of its
    /// (uniquely written) value remain (a lost/dropped store). Always a real
    /// violation when such a read exists.
    LostWrite,
    /// Two adjacent operations of one process are swapped (an out-of-order
    /// commit that leaked to the trace). May or may not violate coherence.
    ReorderAdjacent,
}

/// Where and what was injected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    /// The class of fault injected.
    pub kind: ViolationKind,
    /// The operation (in the mutated trace) at the injection site.
    pub site: OpRef,
    /// True if the mutated trace is *guaranteed* to be incoherent at the
    /// site's address; false if the fault may be masked by another ordering.
    pub guaranteed: bool,
}

/// Inject a violation of the requested kind into `trace`, using `seed` for
/// site selection. Returns the mutated trace and an [`Injection`] report, or
/// `None` if the trace has no eligible site for this kind.
pub fn inject_violation(
    trace: &Trace,
    kind: ViolationKind,
    seed: u64,
) -> Option<(Trace, Injection)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mutated = trace.clone();
    match kind {
        ViolationKind::CorruptReadValue => {
            let reads: Vec<OpRef> = trace
                .iter_ops()
                .filter(|(_, op)| matches!(op, Op::Read { .. }))
                .map(|(r, _)| r)
                .collect();
            let site = *reads.choose(&mut rng)?;
            let op = trace.op(site).expect("site exists");
            let addr = op.addr();
            // A value strictly above anything written or initial at this address.
            let max_written = trace
                .iter_ops()
                .filter_map(|(_, o)| o.written_value())
                .map(|v| v.0)
                .chain(std::iter::once(trace.initial(addr).0))
                .max()
                .unwrap_or(0);
            let bogus = Value(max_written + 1 + rng.gen_range(0..1000u64));
            set_op(&mut mutated, site, Op::Read { addr, value: bogus });
            Some((
                mutated,
                Injection {
                    kind,
                    site,
                    guaranteed: true,
                },
            ))
        }
        ViolationKind::StaleRead => {
            // Pick a read; replace its value with a different value written
            // somewhere at the same address (or the initial value).
            let reads: Vec<(OpRef, Op)> = trace
                .iter_ops()
                .filter(|(_, op)| matches!(op, Op::Read { .. }))
                .collect();
            let (site, op) = *reads.choose(&mut rng)?;
            let addr = op.addr();
            let observed = op.read_value().expect("read");
            let mut pool: Vec<Value> = trace
                .iter_ops()
                .filter(|(_, o)| o.addr() == addr)
                .filter_map(|(_, o)| o.written_value())
                .chain(std::iter::once(trace.initial(addr)))
                .filter(|&v| v != observed)
                .collect();
            pool.sort_unstable();
            pool.dedup();
            let stale = *pool.choose(&mut rng)?;
            set_op(&mut mutated, site, Op::Read { addr, value: stale });
            Some((
                mutated,
                Injection {
                    kind,
                    site,
                    guaranteed: false,
                },
            ))
        }
        ViolationKind::LostWrite => {
            // Find a write of a uniquely-written value that some read observes.
            let index = AddrIndex::build(trace);
            let mut candidates: Vec<OpRef> = Vec::new();
            for ops in index.iter() {
                // Reads per value id, to find the observed ones.
                let mut reads = vec![0usize; ops.values().len()];
                for id in ops.ids().iter().filter_map(|ids| ids.read()) {
                    reads[id as usize] += 1;
                }
                for ((r, op), ids) in ops.iter().zip(ops.ids()) {
                    let Some(w) = ids.write() else { continue };
                    if !op.is_rmw() && w != 0 && ops.writes_of(w) == 1 && reads[w as usize] > 0 {
                        candidates.push(r);
                    }
                }
            }
            candidates.sort_unstable();
            let site = *candidates.choose(&mut rng)?;
            remove_op(&mut mutated, site);
            Some((
                mutated,
                Injection {
                    kind,
                    site,
                    guaranteed: true,
                },
            ))
        }
        ViolationKind::ReorderAdjacent => {
            let mut candidates: Vec<OpRef> = Vec::new();
            for (p, h) in trace.histories().iter().enumerate() {
                for i in 0..h.len().saturating_sub(1) {
                    if h.op(i) != h.op(i + 1) {
                        candidates.push(OpRef::new(p as u16, i as u32));
                    }
                }
            }
            let site = *candidates.choose(&mut rng)?;
            swap_adjacent(&mut mutated, site);
            Some((
                mutated,
                Injection {
                    kind,
                    site,
                    guaranteed: false,
                },
            ))
        }
    }
}

fn set_op(trace: &mut Trace, site: OpRef, op: Op) {
    let h = trace.history_mut(site.proc).expect("proc exists");
    h.ops_mut()[site.index as usize] = op;
}

fn remove_op(trace: &mut Trace, site: OpRef) {
    let h = trace.history_mut(site.proc).expect("proc exists");
    h.ops_mut().remove(site.index as usize);
}

fn swap_adjacent(trace: &mut Trace, site: OpRef) {
    let h = trace.history_mut(site.proc).expect("proc exists");
    let i = site.index as usize;
    h.ops_mut().swap(i, i + 1);
}

/// Generate a *hard* single-address instance family: `procs` histories of
/// interleaved reads and writes where every value is written exactly
/// `writes_per_value` times. These stress exact solvers (3+ ops/process and
/// 2+ writes/value is the NP-complete regime of Figure 5.3) while remaining
/// coherent by construction.
pub fn gen_hard_coherent(
    procs: usize,
    ops_per_proc: usize,
    writes_per_value: usize,
    seed: u64,
) -> (Trace, Schedule) {
    let cfg = GenConfig {
        procs,
        total_ops: procs * ops_per_proc,
        addrs: 1,
        write_fraction: 0.6,
        rmw_fraction: 0.0,
        value_reuse: if writes_per_value > 1 { 0.5 } else { 0.0 },
        seed,
    };
    gen_sc_trace(&cfg)
}

/// The bounds of an exhaustive small-scope enumeration ([`small_traces`]),
/// whose traces have at most [`SMALL_SCOPE_PROCS`] processes.
#[derive(Clone, Copy, Debug)]
pub struct SmallScope {
    /// At most this many operations in all.
    pub max_ops: usize,
    /// The addresses are `0..addrs`.
    pub addrs: u32,
    /// The values are `0..values`; 0 is every address's initial value.
    pub values: u64,
}

/// The process bound of every [`SmallScope`].
pub const SMALL_SCOPE_PROCS: usize = 3;

/// Call `f` once per symmetry class of the non-empty traces within `scope`:
/// reads, writes and RMWs, initial values 0, no final values. Two traces
/// are in one class when reordering the processes, permuting the addresses
/// and permuting the non-initial values turns one into the other; no
/// verdict of any model depends on those choices. Each class is visited
/// once, through its least member, and generated directly: a trace is a
/// non-decreasing list of operation sequences (so process order never
/// repeats a class), skipped when an address or value permutation maps it
/// to a smaller list.
pub fn small_traces(scope: &SmallScope, mut f: impl FnMut(&Trace)) {
    // Letter `x` is the operation of kind `x % kinds` (read, write, or an
    // RMW writing `kind - 2`) reading or writing value `x / kinds % vals`
    // at address `x / kinds / vals`.
    let (vals, kinds) = (scope.values as usize, scope.values as usize + 2);
    let letters = scope.addrs as usize * vals * kinds;
    let split = |x: usize| (x / kinds / vals, x / kinds % vals, x % kinds);
    // Every operation sequence, shortest first and lexicographic within a
    // length, so that `rank` inverts the list; `ends[k]` counts those of
    // length at most `k`.
    let (mut seqs, mut ends, mut layer) = (Vec::new(), vec![0], vec![Vec::new()]);
    for _ in 0..scope.max_ops {
        layer = layer
            .iter()
            .flat_map(|s: &Vec<usize>| (0..letters).map(move |x| [&s[..], &[x]].concat()))
            .collect();
        seqs.extend(layer.iter().cloned());
        ends.push(seqs.len());
    }
    let rank = |s: &[usize]| ends[s.len() - 1] + s.iter().fold(0, |r, &x| r * letters + x);
    // Each non-identity symmetry as a map on letters.
    let mut symmetries: Vec<Vec<usize>> = Vec::new();
    for ap in permutations(scope.addrs as usize) {
        for vp in permutations(vals.saturating_sub(1)) {
            let value = |v: usize| if v == 0 { 0 } else { vp[v - 1] + 1 };
            let map: Vec<usize> = (0..letters)
                .map(|x| {
                    let (a, v, k) = split(x);
                    let k = if k < 2 { k } else { value(k - 2) + 2 };
                    (ap[a] * vals + value(v)) * kinds + k
                })
                .collect();
            if map.iter().enumerate().any(|(x, &y)| x != y) {
                symmetries.push(map);
            }
        }
    }
    let mut emit = |procs: &[usize]| {
        let least = symmetries.iter().all(|map| {
            let mut image: Vec<usize> = procs
                .iter()
                .map(|&p| rank(&seqs[p].iter().map(|&x| map[x]).collect::<Vec<_>>()))
                .collect();
            image.sort_unstable();
            procs <= image.as_slice()
        });
        if least {
            let op = |x: usize| match split(x) {
                (a, v, 0) => Op::read(a as u32, v as u64),
                (a, v, 1) => Op::write(a as u32, v as u64),
                (a, v, k) => Op::rmw(a as u32, v as u64, k as u64 - 2),
            };
            let mut b = TraceBuilder::new();
            for &p in procs {
                b = b.proc(seqs[p].iter().map(|&x| op(x)));
            }
            f(&b.build());
        }
    };
    // Depth first over the non-decreasing lists of at most `procs` ranks
    // from `start` on, whose sequences hold at most `ops` operations.
    fn lists(
        start: usize,
        ops: usize,
        procs: usize,
        ends: &[usize],
        list: &mut Vec<usize>,
        emit: &mut dyn FnMut(&[usize]),
    ) {
        if procs == 0 {
            return;
        }
        for p in start..ends[ops] {
            list.push(p);
            emit(list);
            let len = ends.partition_point(|&e| e <= p);
            lists(p, ops - len, procs - 1, ends, list, emit);
            list.pop();
        }
    }
    lists(
        0,
        scope.max_ops,
        SMALL_SCOPE_PROCS,
        &ends,
        &mut Vec::new(),
        &mut emit,
    );
}

/// All permutations of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    permutations(n - 1)
        .into_iter()
        .flat_map(|p| {
            (0..n).map(move |i| {
                let mut q = p.clone();
                q.insert(i, n - 1);
                q
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{check_coherent_schedule, check_sc_schedule};

    #[test]
    fn generated_trace_is_sc_with_witness() {
        let cfg = GenConfig {
            procs: 3,
            total_ops: 50,
            addrs: 2,
            seed: 1,
            ..Default::default()
        };
        let (trace, witness) = gen_sc_trace(&cfg);
        assert_eq!(trace.num_ops(), 50);
        check_sc_schedule(&trace, &witness).expect("witness must validate");
    }

    #[test]
    fn generated_single_address_trace_has_coherent_projection_witness() {
        let cfg = GenConfig::single_address(4, 40, 7);
        let (trace, witness) = gen_sc_trace(&cfg);
        // For a single-address trace the SC witness *is* a coherent schedule.
        check_coherent_schedule(&trace, Addr::ZERO, &witness).unwrap();
    }

    #[test]
    fn all_rmw_config_generates_only_rmws() {
        let (trace, _) = gen_sc_trace(&GenConfig::all_rmw(2, 20, 3));
        assert!(trace.iter_ops().all(|(_, op)| op.is_rmw()));
    }

    #[test]
    fn corrupt_read_is_guaranteed_violation_marker() {
        let (trace, _) = gen_sc_trace(&GenConfig::single_address(3, 30, 11));
        let (mutated, inj) =
            inject_violation(&trace, ViolationKind::CorruptReadValue, 5).expect("has reads");
        assert!(inj.guaranteed);
        let op = mutated.op(inj.site).unwrap();
        // The corrupted value is never written anywhere and isn't initial.
        let v = op.read_value().unwrap();
        assert!(mutated
            .iter_ops()
            .all(|(_, o)| o.written_value() != Some(v)));
        assert_ne!(v, mutated.initial(op.addr()));
    }

    #[test]
    fn lost_write_removes_an_operation() {
        let (trace, _) = gen_sc_trace(&GenConfig::single_address(3, 40, 13));
        if let Some((mutated, inj)) = inject_violation(&trace, ViolationKind::LostWrite, 5) {
            assert_eq!(mutated.num_ops(), trace.num_ops() - 1);
            assert!(inj.guaranteed);
        }
    }

    #[test]
    fn reorder_swaps_two_ops() {
        let (trace, _) = gen_sc_trace(&GenConfig::single_address(2, 20, 17));
        let (mutated, inj) =
            inject_violation(&trace, ViolationKind::ReorderAdjacent, 5).expect("has pairs");
        assert_eq!(mutated.num_ops(), trace.num_ops());
        let i = inj.site.index as usize;
        let h_old = trace.history(inj.site.proc).unwrap();
        let h_new = mutated.history(inj.site.proc).unwrap();
        assert_eq!(h_old.op(i), h_new.op(i + 1));
        assert_eq!(h_old.op(i + 1), h_new.op(i));
    }

    #[test]
    fn stale_read_uses_a_written_or_initial_value() {
        let (trace, _) = gen_sc_trace(&GenConfig::single_address(3, 40, 19));
        if let Some((mutated, inj)) = inject_violation(&trace, ViolationKind::StaleRead, 5) {
            let op = mutated.op(inj.site).unwrap();
            let v = op.read_value().unwrap();
            let legit = mutated
                .iter_ops()
                .any(|(_, o)| o.written_value() == Some(v))
                || v == mutated.initial(op.addr());
            assert!(legit);
            assert!(!inj.guaranteed);
        }
    }

    /// The binary encodings of injected traces are pinned: downstream
    /// benchmark inputs are built with `inject_violation`, so a change to
    /// its site choice or mutation must show up here. Each kind hashes
    /// (FNV-1a) the `encode_trace` bytes, site and guarantee flag of every
    /// seed over three shapes, one of them with RMWs.
    #[test]
    fn injected_trace_encodings_are_pinned() {
        fn fnv(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let shapes = [(3, 36, 3, 0.0), (4, 40, 1, 0.0), (3, 30, 2, 0.3)];
        let kinds = [
            (ViolationKind::CorruptReadValue, 0xac98_a340_c906_f9b7u64),
            (ViolationKind::StaleRead, 0xd6b6_959d_febf_a704),
            (ViolationKind::LostWrite, 0x2fde_b9ad_8061_b65d),
            (ViolationKind::ReorderAdjacent, 0xad8b_e0ff_0fce_3c41),
        ];
        for (kind, pinned) in kinds {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for &(procs, total_ops, addrs, rmw_fraction) in &shapes {
                for seed in 0..8u64 {
                    let (trace, _) = gen_sc_trace(&GenConfig {
                        procs,
                        total_ops,
                        addrs,
                        rmw_fraction,
                        seed,
                        ..Default::default()
                    });
                    match inject_violation(&trace, kind, seed ^ 0x5eed) {
                        Some((bad, inj)) => {
                            fnv(&mut hash, &crate::binary::encode_trace(&bad));
                            fnv(&mut hash, &inj.site.proc.0.to_le_bytes());
                            fnv(&mut hash, &inj.site.index.to_le_bytes());
                            fnv(&mut hash, &[u8::from(inj.guaranteed)]);
                        }
                        None => fnv(&mut hash, b"none"),
                    }
                }
            }
            assert_eq!(hash, pinned, "{kind:?}: {hash:#018x}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = GenConfig {
            seed: 99,
            ..Default::default()
        };
        let (a, _) = gen_sc_trace(&cfg);
        let (b, _) = gen_sc_trace(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn small_traces_visits_each_symmetry_class_once() {
        let scope = SmallScope {
            max_ops: 3,
            addrs: 2,
            values: 3,
        };
        // Brute force: a trace's class is its least image, processes
        // sorted, under every address and non-initial value permutation.
        let class = |procs: &[Vec<Op>]| {
            let mut images = Vec::new();
            for ap in permutations(scope.addrs as usize) {
                for vp in permutations(scope.values as usize - 1) {
                    let v = |x: Value| match x.0 {
                        0 => 0,
                        x => vp[x as usize - 1] as u64 + 1,
                    };
                    let mut image: Vec<Vec<_>> = procs
                        .iter()
                        .map(|p| {
                            p.iter()
                                .map(|&op| {
                                    let (r, w) =
                                        (op.read_value().map(v), op.written_value().map(v));
                                    (ap[op.addr().0 as usize], r, w, op.is_rmw())
                                })
                                .collect()
                        })
                        .collect();
                    image.sort();
                    images.push(image);
                }
            }
            images.into_iter().min().expect("identity")
        };
        let mut letters = Vec::new();
        for a in 0..scope.addrs {
            for v in 0..scope.values {
                letters.extend([Op::read(a, v), Op::write(a, v)]);
                letters.extend((0..scope.values).map(|w| Op::rmw(a, v, w)));
            }
        }
        // Every ordered list of non-empty processes.
        let (mut lists, mut classes) = (vec![Vec::<Vec<Op>>::new()], BTreeMap::new());
        while let Some(list) = lists.pop() {
            if !list.is_empty() {
                classes.insert(class(&list), 0);
            }
            if list.len() == SMALL_SCOPE_PROCS {
                continue;
            }
            let mut seqs = vec![Vec::new()];
            for _ in list.iter().map(Vec::len).sum::<usize>()..scope.max_ops {
                seqs = seqs
                    .iter()
                    .flat_map(|s| letters.iter().map(move |&op| [&s[..], &[op]].concat()))
                    .collect();
                lists.extend(
                    seqs.iter()
                        .map(|s| [&list[..], std::slice::from_ref(s)].concat()),
                );
            }
        }
        small_traces(&scope, |t| {
            let procs: Vec<Vec<Op>> = t.histories().iter().map(|h| h.ops().to_vec()).collect();
            *classes.get_mut(&class(&procs)).expect("in scope") += 1;
        });
        assert_eq!(classes.len(), 15_255);
        assert!(classes.values().all(|&n| n == 1));
    }
}
