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
use vermem_util::hash::FxHashMap;

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
///
/// The fixpoint stops after the first round that adds no must-precede
/// edge. The next round would see the same graph, so its sweeps would
/// reproduce the same windows and closure, and candidate filtering on
/// the same windows and closure removes nothing more: that round is a
/// no-op, so skipping it changes no output.
const MAX_ROUNDS: usize = 32;

/// Deep-rule budget. The quadratic-ish rules — fr-edge propagation (a
/// transitive closure of the must-precede graph each round), the
/// final-value write fan-out, and the init-read fan-out — only pay for
/// themselves on small, constraint-dense addresses; above this many ops
/// per address they are skipped and the cheap linear fixpoint still runs
/// (skipping only prunes less — still sound). It also fixes the width of
/// a deep-mode bit [`Row`]: one bit per op.
const MAX_DEEP_OPS: usize = 256;

/// A deep-mode bit row over an address's dense op ids. Rows have a fixed
/// width, so every row operation is a handful of straight word ops; an
/// n-row matrix of them is at most 8 KiB.
type Row = [u64; MAX_DEEP_OPS / 64];

fn set_bit(row: &mut Row, bit: u32) {
    row[bit as usize >> 6] |= 1u64 << (bit & 63);
}

fn clear_bit(row: &mut Row, bit: u32) {
    row[bit as usize >> 6] &= !(1u64 << (bit & 63));
}

fn test_bit(row: &Row, bit: u32) -> bool {
    row[bit as usize >> 6] >> (bit & 63) & 1 == 1
}

/// `a |= b`.
fn or_into(a: &mut Row, b: &Row) {
    for (x, y) in a.iter_mut().zip(b) {
        *x |= y;
    }
}

/// `a & b`.
fn and(a: &Row, b: &Row) -> Row {
    std::array::from_fn(|k| a[k] & b[k])
}

/// True if the rows share a set bit.
fn intersects(a: &Row, b: &Row) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Call `f` with every set bit of `row`, in ascending order.
fn for_each_bit(row: &Row, mut f: impl FnMut(u32)) {
    for (k, &word) in row.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f((k * 64) as u32 + rest.trailing_zeros());
            rest &= rest - 1;
        }
    }
}

/// The must-precede graph under construction. Adjacency lists drive the
/// topological sweeps. In deep mode the graph also keeps an n×n adjacency
/// matrix, its transpose, and its transitive closure as of the start of
/// the round (both directions), so "is `a` already ordered before `b`" is
/// a bit test, and the fr fan-out masks whole rows of edges that are
/// present or implied. Leaving out an implied edge moves no window, no
/// closure row and no release of the fast-accept simulation, so it
/// changes no output; it only spares the sweeps. Above the deep gate only
/// the forced serving edges join the graph, at most two per read, and
/// their membership is a scan of the shorter adjacency list.
struct MustPrecede<'s> {
    succs: &'s mut [Vec<u32>],
    preds: &'s mut [Vec<u32>],
    /// Row `a` holds the successors of `a` (deep mode only, else empty).
    adj: &'s mut [Row],
    /// Row `b` holds the predecessors of `b` (deep mode only, else empty).
    adj_t: &'s mut [Row],
    /// Row `i` holds the ops provably after `i` when the round started
    /// (deep mode only).
    reach: &'s mut [Row],
    /// Row `i` holds the ops provably before `i` when the round started
    /// (deep mode only).
    reach_t: &'s mut [Row],
}

impl MustPrecede<'_> {
    /// Record `a → b` unless it is a self-loop or `a` is already ordered
    /// before `b`. Returns true when the edge is new.
    fn add(&mut self, a: u32, b: u32) -> bool {
        let ordered = if self.adj.is_empty() {
            let (out, inc) = (&self.succs[a as usize], &self.preds[b as usize]);
            if out.len() <= inc.len() {
                out.contains(&b)
            } else {
                inc.contains(&a)
            }
        } else {
            test_bit(&self.adj[a as usize], b) || test_bit(&self.reach[a as usize], b)
        };
        if a == b || ordered {
            return false;
        }
        self.push(a, b);
        true
    }

    /// The ops of `targets`, other than `a`, not yet ordered after `a`
    /// (deep mode).
    fn unordered_after(&self, a: u32, targets: &Row) -> Row {
        let (adj, reach) = (&self.adj[a as usize], &self.reach[a as usize]);
        let mut fresh = std::array::from_fn(|k| targets[k] & !(adj[k] | reach[k]));
        clear_bit(&mut fresh, a);
        fresh
    }

    /// The ops of `sources`, other than `b`, not yet ordered before `b`
    /// (deep mode).
    fn unordered_before(&self, sources: &Row, b: u32) -> Row {
        let (adj_t, reach_t) = (&self.adj_t[b as usize], &self.reach_t[b as usize]);
        let mut fresh = std::array::from_fn(|k| sources[k] & !(adj_t[k] | reach_t[k]));
        clear_bit(&mut fresh, b);
        fresh
    }

    /// Record `a → b`, known to be absent and not a self-loop.
    fn push(&mut self, a: u32, b: u32) {
        self.succs[a as usize].push(b);
        self.preds[b as usize].push(a);
        if !self.adj.is_empty() {
            set_bit(&mut self.adj[a as usize], b);
            set_bit(&mut self.adj_t[b as usize], a);
        }
    }
}

/// Reusable per-thread scratch for the fixpoint rounds. Every address
/// re-shapes these to its size and zeroes them in place; memory is
/// allocated only when an address outgrows the thread's high-water mark,
/// so steady-state analysis rounds allocate nothing.
#[derive(Default)]
struct Scratch {
    /// Must-precede successor lists (only the first `n` are live).
    succs: Vec<Vec<u32>>,
    /// Must-precede predecessor lists (only the first `n` are live).
    preds: Vec<Vec<u32>>,
    /// Deep-mode adjacency matrix of the must-precede graph.
    adj: Vec<Row>,
    /// Its transpose.
    adj_t: Vec<Row>,
    /// Deep-mode transitive closure: row `i` holds the ops provably
    /// after `i`.
    reach: Vec<Row>,
    /// Its transpose: row `i` holds the ops provably before `i`.
    reach_t: Vec<Row>,
    /// In-degrees of the must-precede graph (topological sort).
    indeg: Vec<u32>,
    /// Zero-in-degree work stack (topological sort).
    queue: Vec<u32>,
    /// The round's topological order.
    order: Vec<u32>,
}

/// Re-shape `rows` to `n` cleared rows, reusing its allocation.
fn reset_rows(rows: &mut Vec<Row>, n: usize) {
    rows.clear();
    rows.resize(n, Row::default());
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
    /// True once the forced serving edges of a unique candidate are in
    /// the graph. Candidate sets only shrink, so they are added once.
    forced: bool,
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
        succs,
        preds,
        adj,
        adj_t,
        reach,
        reach_t,
        indeg,
        queue,
        order,
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
                    forced: false,
                    cands,
                });
            }
            if op.is_writing() {
                prev_write = Some(id);
            }
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

    // Must-precede graph: program order seeds it; forced serving, fr, and
    // final-value edges join during the fixpoint.
    if succs.len() < n {
        succs.resize_with(n, Vec::new);
        preds.resize_with(n, Vec::new);
    }
    let (succs, preds) = (&mut succs[..n], &mut preds[..n]);
    for list in succs.iter_mut().chain(preds.iter_mut()) {
        list.clear();
    }
    let deep_rows = if deep { n } else { 0 };
    for rows in [&mut *adj, &mut *adj_t, &mut *reach, &mut *reach_t] {
        reset_rows(rows, deep_rows);
    }
    let mut writes = Row::default();
    if deep {
        for &w in &write_ids {
            set_bit(&mut writes, w);
        }
    }
    let mut graph = MustPrecede {
        succs,
        preds,
        adj,
        adj_t,
        reach,
        reach_t,
    };
    for (p, h) in per_proc.iter().enumerate() {
        for j in 1..h.len() as u32 {
            graph.push(offsets[p] + j - 1, offsets[p] + j);
        }
    }

    // Final-value edge: the last write of every coherent schedule produces
    // the dumped final value, so a *unique* writer of that value must
    // follow every other write (an O(writes) fan-out — deep rule). No
    // writer at all is a contradiction unless the final value is the
    // (never overwritten) initial value; that check is always on.
    if let Some(f) = ops.final_value() {
        match writers.get(&f).map(Vec::as_slice) {
            Some(&[wf]) if deep => {
                for &w in &write_ids {
                    graph.add(w, wf);
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
    let mut grew = true;
    while grew && rounds < MAX_ROUNDS && !skip_fixpoint {
        grew = false;
        rounds += 1;
        let MustPrecede {
            succs,
            preds,
            reach,
            reach_t,
            ..
        } = &mut graph;

        // Longest-path window tightening over the must-precede DAG, and
        // in deep mode its transitive closure for the fr rules. A forward
        // sweep in topological order (Kahn's algorithm) settles each op's
        // earliest position and `reach_t` row (the ops strictly before
        // it) from its predecessors; a reverse sweep settles its latest
        // position and `reach` row (the ops strictly after it) from its
        // successors. Those are final by the time the sweep visits the op.
        order.clear();
        indeg.clear();
        indeg.extend(preds.iter().map(|p| p.len() as u32));
        queue.clear();
        queue.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        while let Some(i) = queue.pop() {
            order.push(i);
            let i = i as usize;
            let mut before = Row::default();
            for &pr in &preds[i] {
                lo[i] = lo[i].max(lo[pr as usize] + 1);
                if deep {
                    or_into(&mut before, &reach_t[pr as usize]);
                    set_bit(&mut before, pr);
                }
            }
            if deep {
                reach_t[i] = before;
            }
            for &s in &succs[i] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() < n {
            return WindowOutcome::Infeasible; // must-precede cycle
        }
        for &i in order.iter().rev() {
            let i = i as usize;
            let mut after = Row::default();
            for &s in &succs[i] {
                hi[i] = hi[i].min(hi[s as usize].saturating_sub(1));
                if deep {
                    or_into(&mut after, &reach[s as usize]);
                    set_bit(&mut after, s);
                }
            }
            if deep {
                reach[i] = after;
            }
        }
        for i in 0..n {
            if lo[i] > hi[i] {
                return WindowOutcome::Infeasible;
            }
        }

        // Candidate filtering + forced serving edges + fr propagation.
        for r in &mut reads {
            let rid = r.id as usize;
            let prev = r.prev_write;
            // Writes that must precede this read (fr rules below).
            let writes_before = if deep {
                and(&graph.reach_t[rid], &writes)
            } else {
                Row::default()
            };
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
                if deep && intersects(&graph.reach[wid], &writes_before) {
                    return false;
                }
                true
            });
            if r.cands.is_empty() && !r.has_init {
                return WindowOutcome::Infeasible;
            }
            if !r.has_init && r.cands.len() == 1 {
                let w = r.cands[0];
                if !r.forced {
                    r.forced = true;
                    grew |= graph.add(w, r.id);
                    if let Some(pw) = prev {
                        if pw != w {
                            grew |= graph.add(pw, w);
                        }
                    }
                }
                if deep {
                    // fr edges: the read sits between its unique server
                    // `w` and the next write, so it precedes every write
                    // ordered after `w`, and every write ordered before
                    // the read precedes `w`. Only edges not yet ordered
                    // cost per-bit work. (The closure is acyclic, so `w`
                    // is not among the writes after `w`, nor `r` among
                    // the writes before `r`.)
                    let later = and(&graph.reach[w as usize], &writes);
                    let fresh = graph.unordered_after(r.id, &later);
                    for_each_bit(&fresh, |w2| graph.push(r.id, w2));
                    grew |= fresh != Row::default();

                    let fresh = graph.unordered_before(&writes_before, w);
                    for_each_bit(&fresh, |w2| graph.push(w2, w));
                    grew |= fresh != Row::default();
                }
            }
            if deep && r.has_init && r.cands.is_empty() {
                // Must read the initial value, which no write re-produces
                // (any such write would be a candidate): the read precedes
                // every write (a row fan-out per such read — deep rule).
                let fresh = graph.unordered_after(r.id, &writes);
                for_each_bit(&fresh, |w2| graph.push(r.id, w2));
                grew |= fresh != Row::default();
            }
        }
    }
    let MustPrecede { succs, preds, .. } = graph;

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
