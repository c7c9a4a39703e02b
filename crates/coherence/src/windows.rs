//! Feasibility-interval propagation for the exact VMC search.
//!
//! Roy et al. ("Fast and Generalized Polynomial Time Memory Consistency
//! Verification", PAPERS.md) observe that practical verifiers win by
//! *inference before enumeration*: compute, for every operation, a window
//! of schedule positions it could legally occupy, and for every read the
//! set of writes that could serve it; tighten both to a fixpoint; and only
//! then enumerate. This module is that inference layer for VMC:
//!
//! * **Serving candidates.** A read of value `v` can only be served by the
//!   initial value (when no program-order-earlier write of its own process
//!   exists and `v = d_I`) or by a write of `v` that is not forced after
//!   it. Own-process writes are filtered hard: only the *last* write
//!   program-order-before the read can serve it (any earlier one is
//!   shadowed), and every foreign serving write must land *after* that
//!   last own-process write.
//! * **RMW pigeonhole.** Distinct atomic read-modify-writes observing the
//!   same value always have distinct "suppliers" (the latest write before
//!   an RMW is unique, and an RMW is itself a write), so more RMW reads of
//!   `v` than writes of `v` (plus one for `d_I`) is immediately
//!   incoherent. This is the paper's "hardness needs repeated values"
//!   observation turned into a rejection rule.
//! * **Position windows.** Every op gets `[lo, hi]` bounds on its schedule
//!   position from program order, tightened by longest-path propagation
//!   over the *must-precede* graph (program order plus forced serving
//!   edges from singleton candidate sets). A must-precede cycle, an empty
//!   window, or an emptied candidate set proves incoherence without any
//!   search ([`WindowOutcome::Infeasible`]).
//! * **fr-edge propagation** (TSOtool-style, cf. Roy et al.). A read `r`
//!   with a *unique* serving candidate `w` sits between `w` and the next
//!   write, so `r` must precede every write ordered after `w`, and every
//!   write ordered before `r` must precede `w`. A read that can only see
//!   the initial value precedes every write. Symmetrically, a candidate
//!   dies when another write provably lands between it and the read (it
//!   can no longer be the *latest* write before the read). These rules
//!   feed the same fixpoint: new edges tighten windows, tighter windows
//!   kill candidates, dead candidates force more edges. A cycle derived
//!   this way is a polynomial incoherence proof.
//! * **Final-value edge.** When the dumped final value has a unique
//!   writer, that write is the last write of every coherent schedule, so
//!   every other write must precede it.
//! * **Fast accept.** When the must-precede graph is acyclic, a
//!   deterministic *value-aware* topological simulation runs: released
//!   reads of the current value are absorbed first, an RMW consuming the
//!   current value outranks plain writes, remaining writes go in
//!   `(lo, hi, id)` window order. If the simulation is a coherent
//!   schedule, the instance is decided positively with that witness
//!   ([`WindowOutcome::Schedule`]) — again without search.
//!
//! Everything here computes **necessary** conditions: a window/candidate
//! is only discarded when *no* coherent schedule can use it, so pruning a
//! DFS branch that schedules an op outside its surviving window
//! ([`WindowTable::allows`]) never loses a witness, and `Infeasible` is
//! always a true incoherence proof. Soundness arguments are spelled out in
//! DESIGN.md §4b.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vermem_trace::{AddrOps, Op, OpRef, Value};
use vermem_util::bitset::{BitRow, BitSet};
use vermem_util::hash::{FxHashMap, FxHashSet};

/// Per-operation feasible position windows, indexed densely by
/// `(process, program-order index)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowTable {
    offsets: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl WindowTable {
    /// Dense id of the `idx`-th op of process `proc`.
    #[inline]
    fn id(&self, proc: usize, idx: u32) -> usize {
        self.offsets[proc] as usize + idx as usize
    }

    /// True if the op may occupy schedule position `pos` (0-based) in
    /// *some* coherent schedule, as far as the propagated windows know.
    /// A `false` answer is a proof: no coherent schedule places it there.
    #[inline]
    pub fn allows(&self, proc: usize, idx: u32, pos: usize) -> bool {
        let i = self.id(proc, idx);
        (self.lo[i] as usize) <= pos && pos <= (self.hi[i] as usize)
    }

    /// The `[lo, hi]` window of the `idx`-th op of process `proc`.
    pub fn window(&self, proc: usize, idx: u32) -> (u32, u32) {
        let i = self.id(proc, idx);
        (self.lo[i], self.hi[i])
    }
}

/// Result of the polynomial window pre-pass.
#[derive(Clone, Debug)]
pub enum WindowOutcome {
    /// Proven incoherent: a candidate set emptied, a window emptied, the
    /// RMW pigeonhole failed, or the must-precede graph is cyclic.
    Infeasible,
    /// Proven coherent: the must-precede topological order simulates as a
    /// coherent schedule (a verified witness, in original-trace refs).
    Schedule(Vec<OpRef>),
    /// Undecided: surviving windows for DFS branch pruning.
    Table(WindowTable),
}

/// Candidate-set budget: above this many (read, candidate-write) pairs the
/// fixpoint is skipped and only program-order windows are returned, so the
/// pre-pass stays linear-ish on adversarial value distributions.
const MAX_CANDIDATE_PAIRS: usize = 1 << 22;

/// Fixpoint round cap. Each round only shrinks windows and candidate
/// sets, so convergence is guaranteed; the cap bounds worst-case cost
/// (stopping early merely prunes less — still sound).
const MAX_ROUNDS: usize = 32;

/// Deep-rule budget. The quadratic-ish rules — fr-edge propagation (a
/// transitive closure of the must-precede graph each round), the
/// final-value write fan-out, and the init-read fan-out — only pay for
/// themselves on small, constraint-dense addresses; above this many ops
/// per address they are skipped and the cheap linear fixpoint still runs
/// (skipping only prunes less — still sound).
const MAX_DEEP_OPS: usize = 256;

/// A must-precede edge `a → b` between dense op ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Edge(u32, u32);

/// Record `a → b` in the must-precede graph unless already present.
/// Returns true when the edge is new.
fn add_edge(
    a: u32,
    b: u32,
    succs: &mut [Vec<u32>],
    preds: &mut [Vec<u32>],
    seen: &mut FxHashSet<Edge>,
) -> bool {
    if a != b && seen.insert(Edge(a, b)) {
        succs[a as usize].push(b);
        preds[b as usize].push(a);
        true
    } else {
        false
    }
}

/// Reusable per-thread scratch for the fixpoint rounds. Every round of
/// every address re-shapes these to its geometry and zeroes in place;
/// memory is allocated only when an address outgrows the thread's
/// high-water mark, so steady-state analysis rounds allocate nothing.
#[derive(Default)]
struct Scratch {
    /// In-degrees of the must-precede graph (topological sort).
    indeg: Vec<u32>,
    /// Zero-in-degree work stack (topological sort).
    queue: Vec<u32>,
    /// The round's topological order.
    order: Vec<u32>,
    /// Transitive-closure matrix: row `i` holds the ops provably after `i`.
    reach: BitSet,
    /// Writes that must precede the read under scrutiny.
    writes_before: BitRow,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

struct ReadInfo {
    /// Dense id of the read (or RMW read component).
    id: u32,
    /// Dense id of the last own-process write strictly program-order
    /// before the read, if any. Only it (among own-process writes) can
    /// serve the read, and every foreign serving write must land after it.
    prev_write: Option<u32>,
    /// True while the initial value `d_I` remains a viable server.
    has_init: bool,
    /// Surviving candidate serving writes (dense ids).
    cands: Vec<u32>,
}

/// Run feasibility-interval propagation on one address's operations.
///
/// Call after [`crate::backtrack::precheck_ops`] (the precheck handles
/// never-written values and unproducible finals; this pass assumes nothing
/// beyond that and re-proves what it needs).
pub fn analyze(ops: &AddrOps) -> WindowOutcome {
    SCRATCH.with(|s| analyze_with(ops, &mut s.borrow_mut()))
}

fn analyze_with(ops: &AddrOps, scratch: &mut Scratch) -> WindowOutcome {
    let Scratch {
        indeg,
        queue,
        order,
        reach,
        writes_before,
    } = scratch;
    let per_proc = ops.per_proc();
    let n = ops.num_ops();
    let initial = ops.initial();

    // Dense layout.
    let mut offsets = Vec::with_capacity(per_proc.len());
    let mut acc = 0u32;
    for h in per_proc {
        offsets.push(acc);
        acc += h.len() as u32;
    }
    let mut flat: Vec<(usize, u32, OpRef, Op)> = Vec::with_capacity(n);
    for (p, h) in per_proc.iter().enumerate() {
        for (j, &(r, op)) in h.iter().enumerate() {
            flat.push((p, j as u32, r, op));
        }
    }

    // Program-order position bounds.
    let mut lo = vec![0u32; n];
    let mut hi = vec![0u32; n];
    for (i, &(p, j, _, _)) in flat.iter().enumerate() {
        let len = per_proc[p].len() as u32;
        lo[i] = j;
        hi[i] = n as u32 - (len - j);
    }

    // Writers per value, and the RMW pigeonhole.
    let mut writers: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
    let mut rmw_reads: FxHashMap<Value, usize> = FxHashMap::default();
    for (i, &(_, _, _, op)) in flat.iter().enumerate() {
        if let Some(v) = op.written_value() {
            writers.entry(v).or_default().push(i as u32);
        }
        if op.is_rmw() {
            if let Some(v) = op.read_value() {
                *rmw_reads.entry(v).or_insert(0) += 1;
            }
        }
    }
    for (&v, &consumers) in &rmw_reads {
        let supply = writers.get(&v).map_or(0, Vec::len) + usize::from(v == initial);
        if consumers > supply {
            // More atomic observers of `v` than distinct suppliers: the
            // latest-write-before an RMW is unique per RMW (an RMW is
            // itself a write), so this is a pigeonhole contradiction.
            return WindowOutcome::Infeasible;
        }
    }

    // Initial serving-candidate sets.
    let mut reads: Vec<ReadInfo> = Vec::new();
    let mut pairs = 0usize;
    for (p, h) in per_proc.iter().enumerate() {
        let mut prev_write: Option<u32> = None;
        for (j, &(_, op)) in h.iter().enumerate() {
            let id = offsets[p] + j as u32;
            if let Some(v) = op.read_value() {
                let has_init = v == initial && prev_write.is_none();
                let mut cands = Vec::new();
                if let Some(ws) = writers.get(&v) {
                    for &w in ws {
                        if w == id {
                            continue; // an RMW cannot serve its own read
                        }
                        let (wp, _, _, _) = flat[w as usize];
                        if wp == p && prev_write != Some(w) {
                            // Own-process writes other than the last one
                            // before the read are shadowed by it (or are
                            // program-order after the read).
                            continue;
                        }
                        cands.push(w);
                    }
                }
                if cands.is_empty() && !has_init {
                    return WindowOutcome::Infeasible;
                }
                pairs += cands.len();
                reads.push(ReadInfo {
                    id,
                    prev_write,
                    has_init,
                    cands,
                });
            }
            if op.is_writing() {
                prev_write = Some(id);
            }
        }
    }

    // Must-precede graph: program order seeds it; forced serving, fr, and
    // final-value edges join during the fixpoint.
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut edge_seen: FxHashSet<Edge> = FxHashSet::default();
    for (p, h) in per_proc.iter().enumerate() {
        for j in 1..h.len() {
            let a = offsets[p] + j as u32 - 1;
            let b = offsets[p] + j as u32;
            succs[a as usize].push(b);
            preds[b as usize].push(a);
            edge_seen.insert(Edge(a, b));
        }
    }

    let write_ids: Vec<u32> = flat
        .iter()
        .enumerate()
        .filter(|(_, &(_, _, _, op))| op.is_writing())
        .map(|(i, _)| i as u32)
        .collect();

    let skip_fixpoint = pairs > MAX_CANDIDATE_PAIRS;
    let deep = !skip_fixpoint && n <= MAX_DEEP_OPS;

    // Final-value edge: the last write of every coherent schedule produces
    // the dumped final value, so a *unique* writer of that value must
    // follow every other write (an O(writes) fan-out — deep rule). No
    // writer at all is a contradiction unless the final value is the
    // (never overwritten) initial value; that check is always on.
    if let Some(f) = ops.final_value() {
        match writers.get(&f).map(Vec::as_slice) {
            Some(&[wf]) if deep => {
                for &w in &write_ids {
                    add_edge(w, wf, &mut succs, &mut preds, &mut edge_seen);
                }
            }
            Some(_) => {}
            None => {
                if f != initial || !write_ids.is_empty() {
                    return WindowOutcome::Infeasible;
                }
            }
        }
    }

    let mut rounds = 0;
    let mut changed = true;
    while changed && rounds < MAX_ROUNDS && !skip_fixpoint {
        changed = false;
        rounds += 1;

        // Longest-path window tightening over the must-precede DAG.
        order.clear();
        indeg.clear();
        indeg.extend(preds.iter().map(|p| p.len() as u32));
        queue.clear();
        queue.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        while let Some(i) = queue.pop() {
            order.push(i);
            for &s in &succs[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() < n {
            return WindowOutcome::Infeasible; // must-precede cycle
        }
        for &i in order.iter() {
            for &pr in &preds[i as usize] {
                let bound = lo[pr as usize] + 1;
                if bound > lo[i as usize] {
                    lo[i as usize] = bound;
                    changed = true;
                }
            }
        }
        for &i in order.iter().rev() {
            for &s in &succs[i as usize] {
                let bound = hi[s as usize].saturating_sub(1);
                if bound < hi[i as usize] {
                    hi[i as usize] = bound;
                    changed = true;
                }
            }
        }
        for i in 0..n {
            if lo[i] > hi[i] {
                return WindowOutcome::Infeasible;
            }
        }

        // Transitive closure of this round's must-precede snapshot
        // (reverse-topological bitset accumulation), for the fr rules.
        // Row `i` of `reach` holds the ops strictly after `i` in every
        // schedule. Successor rows are final by the time `i` is visited,
        // so each row accumulates in place — no per-row temporary.
        if deep {
            reach.reset(n, n);
            for &i in order.iter().rev() {
                for &s in &succs[i as usize] {
                    reach.set(i as usize, s as usize);
                    reach.union_row(i as usize, s as usize);
                }
            }
        }

        // Candidate filtering + forced serving edges + fr propagation.
        for r in &mut reads {
            let rid = r.id as usize;
            let before = r.cands.len();
            let prev = r.prev_write;
            // Writes that must precede this read (fr rules below).
            if deep {
                writes_before.reset(n);
                for &w in &write_ids {
                    if reach.test(w as usize, rid) {
                        writes_before.set(w as usize);
                    }
                }
            }
            r.cands.retain(|&w| {
                let wid = w as usize;
                // The serving write must be strictly before the read...
                if lo[wid] >= hi[rid] {
                    return false;
                }
                // ...strictly after the last own-process write...
                if let Some(pw) = prev {
                    if w != pw && lo[pw as usize] >= hi[wid] {
                        return false;
                    }
                }
                // ...and the *latest* write before the read: it is dead
                // when another write provably lands between the two.
                if deep && reach.row_intersects(wid, writes_before.words()) {
                    return false;
                }
                true
            });
            if r.cands.len() != before {
                changed = true;
            }
            if r.cands.is_empty() && !r.has_init {
                return WindowOutcome::Infeasible;
            }
            if !r.has_init && r.cands.len() == 1 {
                let w = r.cands[0];
                changed |= add_edge(w, r.id, &mut succs, &mut preds, &mut edge_seen);
                if let Some(pw) = r.prev_write {
                    if pw != w {
                        changed |= add_edge(pw, w, &mut succs, &mut preds, &mut edge_seen);
                    }
                }
                if deep {
                    // fr edges: the read sits between its unique server
                    // `w` and the next write, so it precedes every write
                    // ordered after `w`, and every write ordered before
                    // the read precedes `w`.
                    for &w2 in &write_ids {
                        if w2 == w || w2 == r.id {
                            continue;
                        }
                        if reach.test(w as usize, w2 as usize) {
                            changed |= add_edge(r.id, w2, &mut succs, &mut preds, &mut edge_seen);
                        }
                        if writes_before.test(w2 as usize) {
                            changed |= add_edge(w2, w, &mut succs, &mut preds, &mut edge_seen);
                        }
                    }
                }
            }
            if deep && r.has_init && r.cands.is_empty() {
                // Must read the initial value, which no write re-produces
                // (any such write would be a candidate): the read precedes
                // every write (O(writes) fan-out per such read — deep rule).
                for &w2 in &write_ids {
                    changed |= add_edge(r.id, w2, &mut succs, &mut preds, &mut edge_seen);
                }
            }
        }
    }

    // Fast accept: a value-aware greedy simulation of the must-precede
    // graph. Reads are *absorbed* as soon as they are released and match
    // the current value (the same admissible move the exact search makes
    // greedily); an RMW whose read matches the current value outranks any
    // plain write (skipping it could strand the RMW behind an overwrite);
    // remaining writes go in deterministic `(lo, hi, id)` window order.
    // Success is self-certifying — every scheduled read was checked
    // against the value it sees, so the order is itself the witness
    // schedule. Failure just falls through to DFS.
    if n > 0 && !skip_fixpoint {
        indeg.clear();
        indeg.extend(preds.iter().map(|p| p.len() as u32));
        // Released-but-unscheduled ops, bucketed by what can unblock them:
        // plain reads and RMWs wait for their read value to become
        // current; plain writes are always eligible.
        type Bucket = FxHashMap<Value, BinaryHeap<Reverse<(u32, u32, u32)>>>;
        fn pop_bucket(bucket: &mut Bucket, v: Value) -> Option<u32> {
            let q = bucket.get_mut(&v)?;
            let i = q.pop().map(|Reverse((_, _, i))| i);
            if q.is_empty() {
                bucket.remove(&v);
            }
            i
        }
        let mut ready_reads: Bucket = FxHashMap::default();
        let mut ready_rmws: Bucket = FxHashMap::default();
        let mut ready_writes: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        let release = |i: u32,
                       reads: &mut Bucket,
                       rmws: &mut Bucket,
                       writes: &mut BinaryHeap<Reverse<(u32, u32, u32)>>| {
            let (_, _, _, op) = flat[i as usize];
            let key = Reverse((lo[i as usize], hi[i as usize], i));
            match op.read_value() {
                Some(v) if op.written_value().is_some() => rmws.entry(v).or_default().push(key),
                Some(v) => reads.entry(v).or_default().push(key),
                None => writes.push(key),
            }
        };
        for i in 0..n as u32 {
            if indeg[i as usize] == 0 {
                release(i, &mut ready_reads, &mut ready_rmws, &mut ready_writes);
            }
        }
        let mut sched: Vec<u32> = Vec::with_capacity(n);
        let mut current = initial;
        while sched.len() < n {
            // Absorb phase first, then the RMW consuming the current
            // value, then the lowest-window plain write.
            let next = pop_bucket(&mut ready_reads, current)
                .or_else(|| pop_bucket(&mut ready_rmws, current))
                .or_else(|| ready_writes.pop().map(|Reverse((_, _, i))| i));
            let Some(i) = next else {
                break; // released ops all wait on a value nobody can produce now
            };
            if let Some(v) = flat[i as usize].3.written_value() {
                current = v;
            }
            sched.push(i);
            for &s in &succs[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    release(s, &mut ready_reads, &mut ready_rmws, &mut ready_writes);
                }
            }
        }
        if sched.len() == n && ops.final_value().is_none_or(|f| f == current) {
            return WindowOutcome::Schedule(
                sched.into_iter().map(|i| flat[i as usize].2).collect(),
            );
        }
    }

    WindowOutcome::Table(WindowTable { offsets, lo, hi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{Addr, TraceBuilder};

    fn analyze_trace(t: &vermem_trace::Trace) -> WindowOutcome {
        analyze(&AddrOps::of(t, Addr::ZERO))
    }

    #[test]
    fn simple_coherent_instance_fast_accepts() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        match analyze_trace(&t) {
            WindowOutcome::Schedule(s) => {
                let sched = vermem_trace::Schedule::from_refs(s);
                vermem_trace::check_coherent_schedule(&t, Addr::ZERO, &sched).unwrap();
            }
            other => panic!("expected fast accept, got {other:?}"),
        }
    }

    #[test]
    fn rmw_pigeonhole_rejects() {
        // Three RMWs observe value 1 but only one write of 1 exists (and
        // the initial value is 0): pigeonhole contradiction.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::rw(1u64, 2u64)])
            .proc([Op::rw(1u64, 3u64)])
            .proc([Op::rw(1u64, 4u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn forced_cycle_rejects() {
        // P0: W(1) R(2); P1: W(2) R(1). Each read has a unique foreign
        // serving write and a shadowing own-process write, forcing
        // W(1) < W(2) (to serve R(1) after W(1)... precisely: serving
        // edges W(2)->R(2), W(1)->R(1) plus after-own-write edges
        // W(1)->W(2) and W(2)->W(1) — a must-precede cycle.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn own_process_shadowing_filters_candidates() {
        // P0: W(1) W(2) R(1) — the only write of 1 is shadowed by W(2),
        // so R(1) has no server (initial is 0).
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64), Op::r(1u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn forced_serving_edges_prove_incoherence_without_search() {
        // P0: W(1) R(2) W(2); P1: W(2) R(1) W(1). Own-process shadowing
        // leaves each read a *unique* foreign server, and the forced
        // after-own-write edges W(1)→W(2) and W(2)→W(1) form a
        // must-precede cycle: incoherent, decided polynomially.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64), Op::w(2u64)])
            .proc([Op::w(2u64), Op::r(1u64), Op::w(1u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn undecided_instance_returns_windows_covering_program_order() {
        // Whether the value-aware simulation decides this instance or
        // falls back to a table, both outcomes must be well-formed: a
        // returned schedule is a verified witness, returned windows cover
        // program order.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .proc([Op::r(1u64), Op::r(2u64)])
            .build();
        match analyze_trace(&t) {
            WindowOutcome::Table(w) => {
                // Program-order bounds always hold.
                for p in 0..2 {
                    for j in 0..2u32 {
                        let (lo, hi) = w.window(p, j);
                        assert!(lo >= j && hi <= 2 + j && lo <= hi, "({p},{j}) {lo}..{hi}");
                    }
                }
            }
            WindowOutcome::Schedule(s) => {
                let sched = vermem_trace::Schedule::from_refs(s);
                vermem_trace::check_coherent_schedule(&t, Addr::ZERO, &sched).unwrap();
            }
            WindowOutcome::Infeasible => panic!("instance is coherent"),
        }
    }

    #[test]
    fn never_rejects_coherent_instances() {
        use vermem_trace::gen::gen_hard_coherent;
        for seed in 0..40u64 {
            let (t, _) = gen_hard_coherent(4, 6, 2, seed);
            match analyze_trace(&t) {
                WindowOutcome::Infeasible => panic!("rejected coherent instance, seed {seed}"),
                WindowOutcome::Schedule(s) => {
                    let sched = vermem_trace::Schedule::from_refs(s);
                    vermem_trace::check_coherent_schedule(&t, Addr::ZERO, &sched)
                        .unwrap_or_else(|e| panic!("bad fast-accept witness, seed {seed}: {e:?}"));
                }
                WindowOutcome::Table(_) => {}
            }
        }
    }

    #[test]
    fn empty_address_yields_empty_schedule_or_table() {
        let t = TraceBuilder::new().proc([]).build();
        match analyze_trace(&t) {
            WindowOutcome::Infeasible => panic!("empty is coherent"),
            WindowOutcome::Schedule(s) => assert!(s.is_empty()),
            WindowOutcome::Table(_) => {}
        }
    }
}
