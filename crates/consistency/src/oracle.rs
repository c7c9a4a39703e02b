//! The independent reference for every declared model: its definition,
//! run directly by exhaustive search.
//!
//! A trace is consistent under SC, TSO, PSO or coherence-only iff one total
//! order of all its operations extends the model's preserved program order,
//! every read in it sees the latest earlier write to its address (or the
//! initial value), and each address ends on its final value. [`serializes`]
//! searches for that order, memoized on the set of scheduled operations and
//! the memory image. The preserved program order is the hand-written table
//! below, which no compiler reads: the differential suites hold both
//! compilers of the declared models to this search, so a wrong enforcement
//! cell in a model declaration fails them.
//!
//! Release–Acquire and ARM-dob are not serialization models. For them
//! [`witnessed`] enumerates every execution witness — each read's writer
//! and each address's coherence order — and checks the model's axioms,
//! written out here over boolean relation matrices from their literature
//! form (RA as the release–acquire fragment of RC11). No declaration is
//! read there either. Exponential; for tests and the small-scope receipt
//! only.

use crate::ModelId;
use std::collections::HashSet;
use vermem_trace::{Addr, Op, Trace, Value};

/// A relation over at most 64 events: row `a` holds the events `a` is
/// related to, one bit each.
type Rel = Vec<u64>;

/// Is the program-order pair `x` (earlier) → `y` (later) enforced in every
/// valid schedule of serialization model `id`? Same-address order is
/// always enforced (coherence's per-location serialization); atomic RMWs
/// order with everything, as on SPARC/x86.
///
/// # Panics
///
/// If `id` is not one of [`ModelId::SERIALIZING`].
fn enforces(id: ModelId, x: Op, y: Op) -> bool {
    if x.addr() == y.addr() {
        return true;
    }
    match id {
        ModelId::Sc => true,
        // Relax only pure-write → pure-read; RMWs order both ways.
        ModelId::Tso => !(matches!(x, Op::Write { .. }) && matches!(y, Op::Read { .. })),
        // W→R and W→W relaxed; an RMW on either side orders.
        ModelId::Pso => !matches!(x, Op::Write { .. }) || y.is_rmw(),
        ModelId::CoherenceOnly => false,
        ModelId::Ra | ModelId::ArmDob => {
            panic!("{} is not a single-serialization model", id.name())
        }
    }
}

/// Does some total order of `trace`'s operations satisfy serialization
/// model `id` (see the module docs)?
///
/// # Panics
///
/// If `id` is not one of [`ModelId::SERIALIZING`], or the trace has more
/// than 128 operations.
pub fn serializes(trace: &Trace, id: ModelId) -> bool {
    let ops: Vec<_> = trace.iter_ops().collect();
    assert!(
        ops.len() <= 128,
        "the oracle decides at most 128 operations"
    );
    let mut addrs: Vec<Addr> = ops.iter().map(|(_, op)| op.addr()).collect();
    addrs.sort_unstable();
    addrs.dedup();
    let slot = |a: Addr| addrs.binary_search(&a).ok();
    let mut finals = Vec::new();
    for (&a, &v) in trace.final_values() {
        match slot(a) {
            Some(s) => finals.push((s, v)),
            None if v != trace.initial(a) => return false,
            None => {}
        }
    }
    // `iter_ops` yields each process's operations contiguously, in
    // program order, so the earlier ones of `i`'s process precede `i`.
    let steps: Vec<Step> = (0..ops.len())
        .map(|i| {
            let (r, op) = ops[i];
            let must = (0..i)
                .filter(|&j| ops[j].0.proc == r.proc && enforces(id, ops[j].1, op))
                .fold(0u128, |m, j| m | 1 << j);
            (slot(op.addr()).expect("indexed"), op, must)
        })
        .collect();
    let mut memory: Vec<Value> = addrs.iter().map(|&a| trace.initial(a)).collect();
    extend(&steps, &finals, 0, &mut memory, &mut HashSet::new())
}

/// An operation with its address slot and the bitmask of the earlier
/// operations that must precede it.
type Step = (usize, Op, u128);

/// Can the schedule of the operations in `done`, which left `memory`, be
/// completed? `failed` holds the dead states, keyed by the two words of
/// `done` followed by the memory image.
fn extend(
    steps: &[Step],
    finals: &[(usize, Value)],
    done: u128,
    memory: &mut [Value],
    failed: &mut HashSet<Vec<u64>>,
) -> bool {
    if done.count_ones() as usize == steps.len() {
        return finals.iter().all(|&(slot, v)| memory[slot] == v);
    }
    let mut key = vec![done as u64, (done >> 64) as u64];
    key.extend(memory.iter().map(|v| v.0));
    if failed.contains(&key) {
        return false;
    }
    for (i, &(slot, op, must)) in steps.iter().enumerate() {
        let current = memory[slot];
        if done >> i & 1 == 1 || must & !done != 0 || op.read_value().is_some_and(|v| v != current)
        {
            continue;
        }
        memory[slot] = op.written_value().unwrap_or(current);
        let found = extend(steps, finals, done | 1 << i, memory, failed);
        memory[slot] = current;
        if found {
            return true;
        }
    }
    failed.insert(key);
    false
}

/// Does some execution witness of `trace` satisfy the Release–Acquire or
/// the ARM-dob model? A witness picks, for each read, a write of the value
/// it reads to its address (other than itself), or the initial value,
/// and, for each address, a total coherence order `mo` of its writes whose
/// last write (the initial value if none) is the final value. From it,
/// `fr` relates a read to every other write `mo`-after its writer (to every
/// other write of its address when it reads the initial value). Both
/// models require RMW atomicity: no write is both `fr`-after and
/// `mo`-before an RMW. Besides that:
///
/// * **RA**: `hb = (po ∪ rf)⁺` is irreflexive, and so is `hb ; eco?` with
///   `eco = (rf ∪ mo ∪ fr)⁺`: no event happens before itself or before an
///   event it is communication-ordered after.
/// * **ARM-dob**: `po|loc ∪ rf ∪ mo ∪ fr` is acyclic (coherence per
///   location), and so is `dob ∪ rfe ∪ moe ∪ fre`, where `dob` relates a
///   read to every later event of its process and any event to every
///   later one of its process at its address, and the `*e` relations keep
///   the pairs of two different processes.
///
/// # Panics
///
/// If `id` is not [`ModelId::Ra`] or [`ModelId::ArmDob`], or the trace has
/// more than 64 operations.
pub fn witnessed(trace: &Trace, id: ModelId) -> bool {
    assert!(
        matches!(id, ModelId::Ra | ModelId::ArmDob),
        "{} is a single-serialization model: use serializes",
        id.name()
    );
    let ops: Vec<_> = trace.iter_ops().collect();
    let n = ops.len();
    assert!(n <= 64, "the oracle decides at most 64 operations");
    for (&a, &v) in trace.final_values() {
        if v != trace.initial(a) && !ops.iter().any(|(_, op)| op.addr() == a) {
            return false;
        }
    }
    let mut addrs: Vec<Addr> = ops.iter().map(|(_, op)| op.addr()).collect();
    addrs.sort_unstable();
    addrs.dedup();
    // Each read's possible writers (`None`: the initial value), and each
    // address's possible coherence orders.
    let sources: Vec<Vec<Option<usize>>> = ops
        .iter()
        .enumerate()
        .map(|(r, (_, op))| match op.read_value() {
            None => vec![None],
            Some(v) => {
                let init = (trace.initial(op.addr()) == v).then_some(None);
                let writers = (0..n).filter(|&w| {
                    w != r && ops[w].1.addr() == op.addr() && ops[w].1.written_value() == Some(v)
                });
                init.into_iter().chain(writers.map(Some)).collect()
            }
        })
        .collect();
    let orders: Vec<Vec<Vec<usize>>> = addrs
        .iter()
        .map(|&a| {
            let writes: Vec<usize> = (0..n)
                .filter(|&w| ops[w].1.addr() == a && ops[w].1.is_writing())
                .collect();
            let last = |o: &Vec<usize>| match o.last() {
                Some(&w) => ops[w].1.written_value(),
                None => Some(trace.initial(a)),
            };
            let fin = trace.final_values().get(&a).copied();
            arrangements(&writes)
                .into_iter()
                .filter(|o| fin.is_none() || last(o) == fin)
                .collect()
        })
        .collect();
    if sources.iter().any(Vec::is_empty) || orders.iter().any(Vec::is_empty) {
        return false;
    }
    // The witness-independent relations, as rows: `iter_ops` lists each
    // process's operations contiguously in program order.
    let bit = |b: usize| 1u64 << b;
    let row = |keep: &dyn Fn(usize, usize) -> bool| -> Rel {
        (0..n)
            .map(|a| (0..n).filter(|&b| keep(a, b)).fold(0, |m, b| m | bit(b)))
            .collect()
    };
    let same_proc = row(&|a, b| ops[a].0.proc == ops[b].0.proc);
    let same_addr = row(&|a, b| ops[a].1.addr() == ops[b].1.addr());
    let po = row(&|a, b| a < b && same_proc[a] & bit(b) != 0);
    let writes = (0..n)
        .filter(|&x| ops[x].1.is_writing())
        .fold(0, |m, x| m | bit(x));
    // An odometer over the read choices, then the address orders.
    let mut pick = vec![0usize; n + addrs.len()];
    let limits: Vec<usize> = sources
        .iter()
        .map(Vec::len)
        .chain(orders.iter().map(Vec::len))
        .collect();
    loop {
        let mut mo: Rel = vec![0; n];
        for (slot, choices) in orders.iter().enumerate() {
            let order = &choices[pick[n + slot]];
            for (i, &a) in order.iter().enumerate() {
                mo[a] = order[i + 1..].iter().fold(0, |m, &b| m | bit(b));
            }
        }
        let (mut rf, mut fr): (Rel, Rel) = (vec![0; n], vec![0; n]);
        for r in (0..n).filter(|&r| ops[r].1.is_reading()) {
            let later = match sources[r][pick[r]] {
                Some(w) => {
                    rf[w] |= bit(r);
                    mo[w]
                }
                None => writes,
            };
            fr[r] = later & same_addr[r] & writes & !bit(r);
        }
        let com: Rel = (0..n).map(|a| rf[a] | mo[a] | fr[a]).collect();
        // No write is both `fr`-after and `mo`-before an RMW.
        let atomic = (0..n).all(|r| (0..n).all(|x| fr[r] & bit(x) == 0 || mo[x] & bit(r) == 0));
        let consistent = atomic
            && match id {
                ModelId::Ra => {
                    let hb = closure((0..n).map(|a| po[a] | rf[a]).collect());
                    let eco = closure(com);
                    (0..n).all(|a| {
                        hb[a] & bit(a) == 0
                            && (0..n).all(|b| hb[a] & bit(b) == 0 || eco[b] & bit(a) == 0)
                    })
                }
                _ => {
                    let per_location = (0..n).map(|a| po[a] & same_addr[a] | com[a]).collect();
                    let dob = |a: usize| {
                        if ops[a].1.is_reading() {
                            po[a]
                        } else {
                            po[a] & same_addr[a]
                        }
                    };
                    let external = (0..n).map(|a| dob(a) | com[a] & !same_proc[a]).collect();
                    acyclic(per_location) && acyclic(external)
                }
            };
        if consistent {
            return true;
        }
        // Next witness.
        let mut i = 0;
        loop {
            if i == pick.len() {
                return false;
            }
            pick[i] += 1;
            if pick[i] < limits[i] {
                break;
            }
            pick[i] = 0;
            i += 1;
        }
    }
}

/// Every ordering of `items`.
fn arrangements(items: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for &x in items {
        out = out
            .iter()
            .flat_map(|o: &Vec<usize>| {
                (0..=o.len()).map(move |i| {
                    let mut o = o.clone();
                    o.insert(i, x);
                    o
                })
            })
            .collect();
    }
    out
}

/// The transitive closure of `rel` (Warshall).
fn closure(mut rel: Rel) -> Rel {
    for k in 0..rel.len() {
        let row = rel[k];
        for r in rel.iter_mut() {
            if *r >> k & 1 == 1 {
                *r |= row;
            }
        }
    }
    rel
}

/// Does `rel` have no cycle?
fn acyclic(rel: Rel) -> bool {
    closure(rel)
        .iter()
        .enumerate()
        .all(|(a, row)| row >> a & 1 == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::TraceBuilder;

    #[test]
    fn final_values_close_the_order() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(0u32, 2u64)])
            .proc([Op::write(0u32, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        let untouched = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .final_value(1u32, 3u64)
            .build();
        for m in ModelId::SERIALIZING {
            assert!(!serializes(&t, m), "{}", m.name());
            assert!(!serializes(&untouched, m), "{}", m.name());
        }
    }

    #[test]
    #[should_panic(expected = "not a single-serialization model")]
    fn oracle_rejects_non_serializing_models() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .build();
        let _ = serializes(&t, ModelId::Ra);
    }
}
