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
//! **The fixpoint is incremental.** On addresses of at most 256 ops the
//! graph keeps its transitive closure current as edges arrive: each new
//! edge (or each fan-out or fan-in batch of them) updates it once and
//! detects a cycle on the spot, so the fr rules always read the closure
//! of every edge derived so far. A round then only re-derives the integer
//! windows, in one topological pass, and sweeps the reads until a sweep
//! adds no edge, skipping every read for which nothing (no edge, no
//! window) has changed since its last visit. Every rule is monotone — more
//! edges and tighter windows only remove candidates, and fewer candidates
//! only force more edges — so any visiting order reaches the same least
//! fixpoint, and every output (verdict, witness, windows) is a function
//! of that fixpoint alone.
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
use vermem_trace::{AddrOps, OpRef};
use vermem_util::csr::Csr;

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

/// Fixpoint round cap. A round re-derives the windows from the graph and
/// sweeps the reads with something new to learn until a sweep adds no
/// edge; the fixpoint stops after the first round that adds no
/// must-precede edge. That round's windows are those of the final graph
/// and every read was filtered against them and the final closure, so the
/// state is the least fixpoint of the monotone rules (module docs) and
/// another round would change nothing. The cap bounds worst-case cost
/// (stopping early merely prunes less — still sound); the outputs equal
/// the least fixpoint's whenever it does not bind.
const MAX_ROUNDS: usize = 32;

/// Deep-rule budget. The quadratic-ish rules — fr-edge propagation (over
/// the transitive closure of the must-precede graph), the final-value
/// write fan-in, and the init-read fan-out — only pay for themselves on
/// small, constraint-dense addresses; above this many ops per address
/// they are skipped and the cheap linear fixpoint still runs (skipping
/// only prunes less — still sound). It also fixes the width of a
/// deep-mode bit [`Row`]: one bit per op.
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

/// The bits `from..to`.
fn range_row(from: u32, to: u32) -> Row {
    std::array::from_fn(|k| {
        let base = k as u32 * 64;
        let (a, b) = (
            from.clamp(base, base + 64) - base,
            to.clamp(base, base + 64) - base,
        );
        if a < b {
            u64::MAX >> (64 - (b - a)) << a
        } else {
            0
        }
    })
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

/// `a & !b`.
fn and_not(a: &Row, b: &Row) -> Row {
    std::array::from_fn(|k| a[k] & !b[k])
}

/// True if every bit of `sub` is set in `row`.
fn covers(row: &Row, sub: &Row) -> bool {
    row.iter().zip(sub).all(|(x, y)| y & !x == 0)
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

/// A derived contradiction (a must-precede cycle, an empty window, an
/// emptied candidate set): no coherent schedule exists.
struct Contradiction;

/// The must-precede graph under construction. Adjacency lists drive the
/// window passes and the fast-accept simulation. In deep mode the graph
/// also keeps its *current* transitive closure in both directions, so "is
/// `a` already ordered before `b`" is a bit test, an edge that closes a
/// cycle is caught when it is added, and the fr rules mask whole rows of
/// ordered ops. An edge the closure already implies is never listed:
/// leaving it out moves no window, no closure row and no release of the
/// fast-accept simulation, so it changes no output. Above the deep gate
/// only the forced serving edges join the graph, at most two per read,
/// their membership is a scan of the shorter adjacency list, and cycles
/// show in the window pass.
struct MustPrecede<'s> {
    succs: &'s mut [Vec<u32>],
    preds: &'s mut [Vec<u32>],
    /// Row `i` holds the ops provably after `i` (deep mode only, else
    /// empty).
    reach: &'s mut [Row],
    /// Row `i` holds the ops provably before `i` (deep mode only).
    reach_t: &'s mut [Row],
    /// Per op: `changes` when its `reach` row last grew (deep mode, else
    /// all 0).
    grew_after: &'s mut [u64],
    /// Per op: `changes` when its `reach_t` row last grew.
    grew_before: &'s mut [u64],
    /// Bumped on every new edge and on every window change: a read whose
    /// last visit saw the current count has nothing new to learn.
    changes: u64,
}

impl MustPrecede<'_> {
    fn deep(&self) -> bool {
        !self.reach.is_empty()
    }

    /// Record `a → b` unless it is a self-loop or `a` is already ordered
    /// before `b`.
    fn add(&mut self, a: u32, b: u32) -> Result<(), Contradiction> {
        if self.deep() {
            let mut target = Row::default();
            set_bit(&mut target, b);
            return self.fan_out(a, &target);
        }
        let (out, inc) = (&self.succs[a as usize], &self.preds[b as usize]);
        let listed = if out.len() <= inc.len() {
            out.contains(&b)
        } else {
            inc.contains(&a)
        };
        if a != b && !listed {
            self.push(a, b);
        }
        Ok(())
    }

    /// Record `a → t` for every op `t` of `targets` other than `a` not yet
    /// ordered after `a`, in one closure update (deep mode).
    fn fan_out(&mut self, a: u32, targets: &Row) -> Result<(), Contradiction> {
        let now = self.changes + 1;
        let fwd = (&mut *self.reach, &mut *self.grew_after);
        let bwd = (&mut *self.reach_t, &mut *self.grew_before);
        let heads = extend(fwd, bwd, now, a, targets, true)?;
        for_each_bit(&heads, |b| self.push(a, b));
        Ok(())
    }

    /// Record `s → b` for every op `s` of `sources` other than `b` not yet
    /// ordered before `b`, in one closure update (deep mode).
    fn fan_in(&mut self, sources: &Row, b: u32) -> Result<(), Contradiction> {
        let now = self.changes + 1;
        let fwd = (&mut *self.reach_t, &mut *self.grew_before);
        let bwd = (&mut *self.reach, &mut *self.grew_after);
        let tails = extend(fwd, bwd, now, b, sources, false)?;
        for_each_bit(&tails, |a| self.push(a, b));
        Ok(())
    }

    /// List `a → b`, known to be absent and not a self-loop.
    fn push(&mut self, a: u32, b: u32) {
        self.succs[a as usize].push(b);
        self.preds[b as usize].push(a);
        self.changes += 1;
    }
}

/// Order `a` before every op of `targets` in the closure whose rows are
/// `fwd` (row `i`: the ops after `i`) and `bwd` (the ops before `i`), and
/// return the edges to list: the targets not yet after `a` that no other
/// such target precedes (the rest are implied). With the two row sets
/// swapped (`forward` false) it orders every op of `targets` *before* `a`
/// instead. The new pairs are every op of `before = {a} ∪ bwd[a]` ahead of
/// every op of `after`, the fresh targets and all they precede. Each row
/// that grows gets the stamp `now` in its side's stamp slice.
fn extend(
    (fwd, fwd_grew): (&mut [Row], &mut [u64]),
    (bwd, bwd_grew): (&mut [Row], &mut [u64]),
    now: u64,
    a: u32,
    targets: &Row,
    forward: bool,
) -> Result<Row, Contradiction> {
    let mut fresh = and_not(targets, &fwd[a as usize]);
    clear_bit(&mut fresh, a);
    if fresh == Row::default() {
        return Ok(fresh);
    }
    if intersects(&fresh, &bwd[a as usize]) {
        return Err(Contradiction); // a target is already before `a`
    }
    let mut after = Row::default();
    for_each_bit(&fresh, |b| or_into(&mut after, &fwd[b as usize]));
    let heads = and_not(&fresh, &after);
    or_into(&mut after, &fresh);
    let mut before = bwd[a as usize];
    set_bit(&mut before, a);
    // A row that already holds every head holds all of `after`, and so
    // does the row of every op before it; a row that already holds `a`
    // holds all of `before`, and so does the row of every op after it.
    // Both walks skip those rows. Dense ids run with program order, so
    // each walk starts at the end of the chains whose rows it skips.
    walk(before, forward, |s| {
        let row = &mut fwd[s as usize];
        if covers(row, &heads) {
            return Some(bwd[s as usize]);
        }
        or_into(row, &after);
        fwd_grew[s as usize] = now;
        None
    });
    walk(after, !forward, |t| {
        let row = &mut bwd[t as usize];
        if test_bit(row, a) {
            return Some(fwd[t as usize]);
        }
        or_into(row, &before);
        bwd_grew[t as usize] = now;
        None
    });
    Ok(heads)
}

/// Call `visit` with every op of `todo`, highest id first if `from_top`
/// (else lowest first), dropping the ops a call returns.
fn walk(mut todo: Row, from_top: bool, mut visit: impl FnMut(u32) -> Option<Row>) {
    for step in 0..todo.len() {
        let k = if from_top {
            todo.len() - 1 - step
        } else {
            step
        };
        while todo[k] != 0 {
            let bit = if from_top {
                63 - todo[k].leading_zeros()
            } else {
                todo[k].trailing_zeros()
            };
            todo[k] &= !(1u64 << bit);
            if let Some(done) = visit(k as u32 * 64 + bit) {
                todo = and_not(&todo, &done);
            }
        }
    }
}

/// Reusable per-thread scratch for the analysis. Every address re-shapes
/// these to its size and zeroes them in place; memory is allocated only
/// when an address outgrows the thread's high-water mark, so a call
/// allocates only the outcome it returns.
#[derive(Default)]
struct Scratch {
    /// First dense id of each process.
    offsets: Vec<u32>,
    /// Earliest schedule position of each op.
    lo: Vec<u32>,
    /// Latest schedule position of each op.
    hi: Vec<u32>,
    /// The reads (and RMW read components).
    reads: Vec<ReadInfo>,
    /// Every read's serving candidates, each read's a slice of this pool.
    cands: Vec<u32>,
    /// Must-precede successor lists (only the first `n` are live).
    succs: Vec<Vec<u32>>,
    /// Must-precede predecessor lists (only the first `n` are live).
    preds: Vec<Vec<u32>>,
    /// Deep-mode transitive closure: row `i` holds the ops provably
    /// after `i`.
    reach: Vec<Row>,
    /// Its transpose: row `i` holds the ops provably before `i`.
    reach_t: Vec<Row>,
    /// When each op's `reach` row last grew.
    grew_after: Vec<u64>,
    /// When each op's `reach_t` row last grew.
    grew_before: Vec<u64>,
    /// In-degrees of the must-precede graph (topological sort).
    indeg: Vec<u32>,
    /// The round's topological order (Kahn's queue), then the fast-accept
    /// schedule.
    order: Vec<u32>,
    /// Dense ids of the write-capable ops, by written value id.
    writers: Csr,
    /// RMW reads per value id (the pigeonhole).
    rmw_reads: Vec<u32>,
    /// Fast accept: released plain reads, by the value id they wait for.
    ready_reads: Vec<Ready>,
    /// Fast accept: released RMWs, by the value id they read.
    ready_rmws: Vec<Ready>,
    /// Fast accept: released plain writes.
    ready_writes: Ready,
}

/// Released-but-unscheduled ops of the fast-accept simulation, least
/// `(lo, hi, id)` first.
type Ready = BinaryHeap<Reverse<(u32, u32, u32)>>;

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
    /// Surviving candidate serving writes (dense ids): `len` entries of
    /// the candidate pool from `start`.
    start: u32,
    len: u32,
    /// [`MustPrecede::changes`] when the read was last visited.
    seen: u64,
    /// [`MustPrecede::changes`] when the fr edges of its unique server were
    /// last added. They depend only on that server's `reach` row and the
    /// read's `reach_t` row, so while neither grows they are all in place.
    fr_seen: Option<u64>,
}

/// Keep the items of `items` that pass `keep`, in order, at its front;
/// returns how many.
fn retain(items: &mut [u32], mut keep: impl FnMut(u32) -> bool) -> u32 {
    let mut kept = 0;
    for k in 0..items.len() {
        if keep(items[k]) {
            items[kept] = items[k];
            kept += 1;
        }
    }
    kept as u32
}

/// Run feasibility-interval propagation on one address's operations.
///
/// Call after [`crate::backtrack::precheck_ops`] (the precheck handles
/// never-written values and unproducible finals; this pass assumes nothing
/// beyond that and re-proves what it needs).
pub fn analyze(ops: &AddrOps) -> WindowOutcome {
    SCRATCH.with(|s| analyze_with(ops, &mut s.borrow_mut()).unwrap_or(WindowOutcome::Infeasible))
}

fn analyze_with(ops: &AddrOps, scratch: &mut Scratch) -> Result<WindowOutcome, Contradiction> {
    let Scratch {
        offsets,
        lo,
        hi,
        reads,
        cands,
        succs,
        preds,
        reach,
        reach_t,
        grew_after,
        grew_before,
        indeg,
        order,
        writers,
        rmw_reads,
        ready_reads,
        ready_rmws,
        ready_writes,
    } = scratch;
    let per_proc = ops.per_proc();
    let n = ops.num_ops();
    let ids = ops.ids();
    let nvalues = ops.values().len();

    // Dense layout and program-order position bounds.
    offsets.clear();
    lo.clear();
    hi.clear();
    for h in per_proc {
        offsets.push(lo.len() as u32);
        let len = h.len() as u32;
        lo.extend(0..len);
        hi.extend((0..len).map(|j| n as u32 - (len - j)));
    }

    // Writers per value id, and the RMW pigeonhole.
    let written = (0..n as u32).filter_map(|i| ids[i as usize].write().map(|w| (w, i)));
    writers.fill(nvalues, written);
    rmw_reads.clear();
    rmw_reads.resize(nvalues, 0);
    for op_ids in ids {
        if let (Some(v), Some(_)) = (op_ids.read(), op_ids.write()) {
            rmw_reads[v as usize] += 1;
        }
    }
    for (v, &consumers) in rmw_reads.iter().enumerate() {
        let supply = writers.row(v as u32).len() + usize::from(v == 0);
        if consumers as usize > supply {
            // More atomic observers of `v` than distinct suppliers: the
            // latest-write-before an RMW is unique per RMW (an RMW is
            // itself a write), so this is a pigeonhole contradiction.
            return Err(Contradiction);
        }
    }

    // Initial serving-candidate sets.
    reads.clear();
    cands.clear();
    for (p, h) in per_proc.iter().enumerate() {
        let own = offsets[p]..offsets[p] + h.len() as u32;
        let mut prev_write: Option<u32> = None;
        for id in own.clone() {
            let op_ids = ids[id as usize];
            if let Some(v) = op_ids.read() {
                let has_init = v == 0 && prev_write.is_none();
                let start = cands.len();
                // An RMW cannot serve its own read, and own-process writes
                // other than the last one before the read are shadowed by
                // it (or are program-order after the read).
                let servers = writers.row(v).iter().copied();
                cands.extend(servers.filter(|&w| !own.contains(&w) || prev_write == Some(w)));
                let len = (cands.len() - start) as u32;
                if len == 0 && !has_init {
                    return Err(Contradiction);
                }
                reads.push(ReadInfo {
                    id,
                    prev_write,
                    has_init,
                    forced: false,
                    start: start as u32,
                    len,
                    seen: u64::MAX,
                    fr_seen: None,
                });
            }
            if op_ids.write().is_some() {
                prev_write = Some(id);
            }
        }
    }

    let skip_fixpoint = cands.len() > MAX_CANDIDATE_PAIRS;
    let deep = !skip_fixpoint && n <= MAX_DEEP_OPS;

    // Must-precede graph: program order seeds it (and, in deep mode, its
    // closure); forced serving, fr, and final-value edges join during the
    // fixpoint.
    if succs.len() < n {
        succs.resize_with(n, Vec::new);
        preds.resize_with(n, Vec::new);
    }
    let (succs, preds) = (&mut succs[..n], &mut preds[..n]);
    for list in succs.iter_mut().chain(preds.iter_mut()) {
        list.clear();
    }
    reach.clear();
    reach_t.clear();
    let mut writes = Row::default();
    if deep {
        for (p, h) in per_proc.iter().enumerate() {
            let (first, end) = (offsets[p], offsets[p] + h.len() as u32);
            reach.extend((first..end).map(|i| range_row(i + 1, end)));
            reach_t.extend((first..end).map(|i| range_row(first, i)));
        }
        writers
            .items()
            .iter()
            .for_each(|&w| set_bit(&mut writes, w));
    }
    for grew in [&mut *grew_after, &mut *grew_before] {
        grew.clear();
        grew.resize(n, 0);
    }
    let mut graph = MustPrecede {
        succs,
        preds,
        reach,
        reach_t,
        grew_after,
        grew_before,
        changes: 0,
    };
    for (p, h) in per_proc.iter().enumerate() {
        for i in offsets[p] + 1..offsets[p] + h.len() as u32 {
            graph.push(i - 1, i);
        }
    }

    // Final-value edge: the last write of every coherent schedule produces
    // the dumped final value, so a *unique* writer of that value must
    // follow every other write (an O(writes) fan-in — deep rule). No
    // writer at all is a contradiction unless the final value is the
    // (never overwritten) initial value; that check is always on.
    if let Some(f) = ops.final_id() {
        match writers.row(f) {
            &[wf] if deep => graph.fan_in(&writes, wf)?,
            [] if f != 0 || !writers.items().is_empty() => return Err(Contradiction),
            _ => {}
        }
    }

    let mut rounds = 0;
    let mut grew = true;
    while grew && rounds < MAX_ROUNDS && !skip_fixpoint {
        rounds += 1;

        // Longest-path window tightening over the must-precede DAG: a
        // forward pass in topological order (Kahn's algorithm) pushes each
        // op's earliest position to its successors, a reverse pass settles
        // its latest position from its successors. Windows only tighten,
        // and a move counts as a change for the reads.
        indeg.clear();
        indeg.extend(graph.preds.iter().map(|p| p.len() as u32));
        order.clear();
        order.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        let mut moved = false;
        let mut visited = 0;
        while let Some(&i) = order.get(visited) {
            visited += 1;
            let next = lo[i as usize] + 1;
            for &s in &graph.succs[i as usize] {
                if lo[s as usize] < next {
                    lo[s as usize] = next;
                    moved = true;
                }
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    order.push(s);
                }
            }
        }
        if order.len() < n {
            return Err(Contradiction); // must-precede cycle
        }
        for &i in order.iter().rev() {
            let i = i as usize;
            let latest = graph.succs[i]
                .iter()
                .map(|&s| hi[s as usize].saturating_sub(1))
                .min();
            if let Some(l) = latest.filter(|&l| l < hi[i]) {
                hi[i] = l;
                moved = true;
            }
            if lo[i] > hi[i] {
                return Err(Contradiction);
            }
        }
        graph.changes += u64::from(moved);
        let settled = graph.changes;

        // Candidate filtering + forced serving edges + fr propagation, for
        // every read with something new to learn, in sweeps until one adds
        // no edge. Each edge a sweep adds grows the closure or, above the
        // deep gate, is a read's one-time forced edge, so the sweeps end.
        loop {
            let swept = graph.changes;
            for r in reads.iter_mut() {
                if r.seen == graph.changes {
                    continue;
                }
                r.seen = graph.changes;
                let rid = r.id as usize;
                let prev = r.prev_write;
                let pool = &mut cands[r.start as usize..][..r.len as usize];
                // Writes that must precede this read (fr rules below).
                let writes_before = if deep {
                    and(&graph.reach_t[rid], &writes)
                } else {
                    Row::default()
                };
                r.len = retain(pool, |w| {
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
                    !(deep && intersects(&graph.reach[wid], &writes_before))
                });
                if r.len == 0 && !r.has_init {
                    return Err(Contradiction);
                }
                if !r.has_init && r.len == 1 {
                    let w = pool[0];
                    if !r.forced {
                        r.forced = true;
                        graph.add(w, r.id)?;
                        if let Some(pw) = prev {
                            if pw != w {
                                graph.add(pw, w)?;
                            }
                        }
                    }
                    let grew = graph.grew_after[w as usize].max(graph.grew_before[rid]);
                    if deep && r.fr_seen.is_none_or(|seen| grew > seen) {
                        // fr edges: the read sits between its unique server
                        // `w` and the next write, so it precedes every write
                        // ordered after `w`, and every write ordered before
                        // the read precedes `w`.
                        let later = and(&graph.reach[w as usize], &writes);
                        graph.fan_out(r.id, &later)?;
                        let earlier = and(&graph.reach_t[rid], &writes);
                        graph.fan_in(&earlier, w)?;
                        r.fr_seen = Some(graph.changes);
                    }
                }
                if deep && r.has_init && r.len == 0 {
                    // Must read the initial value, which no write re-produces
                    // (any such write would be a candidate): the read precedes
                    // every write (a row fan-out per such read — deep rule).
                    graph.fan_out(r.id, &writes)?;
                }
            }
            if graph.changes == swept {
                break;
            }
        }
        grew = graph.changes != settled;
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
        // plain reads and RMWs wait for their read value id to become
        // current; plain writes are always eligible.
        for ready in [&mut *ready_reads, &mut *ready_rmws] {
            ready.resize_with(ready.len().max(nvalues), Ready::new);
            ready[..nvalues].iter_mut().for_each(Ready::clear);
        }
        ready_writes.clear();
        let release = |i: u32, reads: &mut [Ready], rmws: &mut [Ready], writes: &mut Ready| {
            let key = Reverse((lo[i as usize], hi[i as usize], i));
            let op_ids = ids[i as usize];
            match (op_ids.read(), op_ids.write()) {
                (Some(v), Some(_)) => rmws[v as usize].push(key),
                (Some(v), None) => reads[v as usize].push(key),
                (None, _) => writes.push(key),
            }
        };
        let pop = |ready: &mut [Ready], v: u32| ready[v as usize].pop().map(|Reverse((_, _, i))| i);
        for i in 0..n as u32 {
            if indeg[i as usize] == 0 {
                release(i, ready_reads, ready_rmws, ready_writes);
            }
        }
        let sched = order;
        sched.clear();
        let mut current = 0;
        while sched.len() < n {
            // Absorb phase first, then the RMW consuming the current
            // value, then the lowest-window plain write.
            let next = pop(ready_reads, current)
                .or_else(|| pop(ready_rmws, current))
                .or_else(|| ready_writes.pop().map(|Reverse((_, _, i))| i));
            let Some(i) = next else {
                break; // released ops all wait on a value nobody can produce now
            };
            if let Some(v) = ids[i as usize].write() {
                current = v;
            }
            sched.push(i);
            for &s in &succs[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    release(s, ready_reads, ready_rmws, ready_writes);
                }
            }
        }
        if sched.len() == n && ops.final_id().is_none_or(|f| f == current) {
            let op_ref = |i: u32| {
                let p = offsets.partition_point(|&first| first <= i) - 1;
                per_proc[p][(i - offsets[p]) as usize].0
            };
            return Ok(WindowOutcome::Schedule(
                sched.iter().map(|&i| op_ref(i)).collect(),
            ));
        }
    }

    Ok(WindowOutcome::Table(WindowTable {
        offsets: offsets.clone(),
        lo: lo.clone(),
        hi: hi.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{Addr, Op, TraceBuilder};

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
    fn incremental_closure_matches_recomputed_closure() {
        // Random fan-outs and fan-ins over four program-order chains of
        // 20 ops (so rows span two words), every edge pointing forward in
        // one random interleaving of the chains: after every batch the
        // kept closure must equal the transitive closure of all edges so
        // far. A final edge against the interleaving closes a cycle and
        // must be refused.
        use vermem_util::rng::StdRng;
        const N: usize = 80;
        let reachable = |edges: &[(u32, u32)], from: usize| {
            let mut seen = [false; N];
            let mut stack = vec![from];
            while let Some(x) = stack.pop() {
                for &(_, y) in edges.iter().filter(|&&(e, _)| e as usize == x) {
                    if !std::mem::replace(&mut seen[y as usize], true) {
                        stack.push(y as usize);
                    }
                }
            }
            seen
        };
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rank = [0u32; N];
            let mut next = [0u32, 20, 40, 60];
            for r in 0..N as u32 {
                let open: Vec<usize> = (0..4).filter(|&c| next[c] < 20 * (c as u32 + 1)).collect();
                let c = open[rng.gen_range(0..open.len())];
                rank[next[c] as usize] = r;
                next[c] += 1;
            }
            let mut edges: Vec<(u32, u32)> = (0..N as u32 - 1)
                .filter(|i| i % 20 != 19)
                .map(|i| (i, i + 1))
                .collect();
            let (mut succs, mut preds) = (vec![Vec::new(); N], vec![Vec::new(); N]);
            let chain = |i: u32| (i / 20 * 20, i / 20 * 20 + 20);
            let mut reach: Vec<Row> = (0..N as u32)
                .map(|i| range_row(i + 1, chain(i).1))
                .collect();
            let mut reach_t: Vec<Row> = (0..N as u32).map(|i| range_row(chain(i).0, i)).collect();
            let (mut grew_after, mut grew_before) = ([0; N], [0; N]);
            let mut graph = MustPrecede {
                succs: &mut succs,
                preds: &mut preds,
                reach: &mut reach,
                reach_t: &mut reach_t,
                grew_after: &mut grew_after,
                grew_before: &mut grew_before,
                changes: 0,
            };
            for _ in 0..25 {
                let a = rng.gen_range(0..N as u32);
                let outward = rng.gen_bool(0.5);
                let mut set = Row::default();
                for _ in 0..rng.gen_range(1..6u32) {
                    let b = rng.gen_range(0..N as u32);
                    if (rank[b as usize] > rank[a as usize]) == outward && b != a {
                        set_bit(&mut set, b);
                        edges.push(if outward { (a, b) } else { (b, a) });
                    }
                }
                let added = if outward {
                    graph.fan_out(a, &set)
                } else {
                    graph.fan_in(&set, a)
                };
                assert!(added.is_ok(), "seed {seed}: no cycle was added");
                for i in 0..N {
                    let after = reachable(&edges, i);
                    for (j, &want) in after.iter().enumerate() {
                        assert_eq!(
                            test_bit(&graph.reach[i], j as u32),
                            want,
                            "seed {seed}: {i} -> {j}"
                        );
                        assert_eq!(
                            test_bit(&graph.reach_t[j], i as u32),
                            want,
                            "seed {seed}: {j} <- {i}"
                        );
                    }
                }
            }
            // Close a cycle: order the last op of chain 0 before its first.
            let mut first = Row::default();
            set_bit(&mut first, 0);
            assert!(graph.fan_out(19, &first).is_err(), "seed {seed}");
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
