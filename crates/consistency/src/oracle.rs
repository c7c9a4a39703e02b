//! The independent reference for the four serialization models: their
//! definition, run directly by exhaustive search.
//!
//! A trace is consistent under SC, TSO, PSO or coherence-only iff one total
//! order of all its operations extends the model's preserved program order,
//! every read in it sees the latest earlier write to its address (or the
//! initial value), and each address ends on its final value. [`serializes`]
//! searches for that order, memoized on the set of scheduled operations and
//! the memory image. The preserved program order is the hand-written table
//! below, which no compiler reads: the differential suites hold both
//! compilers of the declared models to this search, so a wrong enforcement
//! cell in a model declaration fails them. Exponential; for tests and the
//! small-scope receipt only.

use crate::ModelId;
use std::collections::HashSet;
use vermem_trace::{Addr, Op, Trace, Value};

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
