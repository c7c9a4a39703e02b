//! Witness representation, the reference axiom evaluator, and the
//! compiled per-state evaluator.
//!
//! A *witness* fixes everything a declarative model quantifies over: `rf`
//! (each read's writer) and `mo` (a total per-address coherence order).
//! The reference evaluator ([`violated_axiom`], [`check_witness`])
//! answers for a (possibly partial) witness with one sort first, axiom by
//! axiom only on a cycle. Every [`Rel`] generator is contained in one of
//! `po`, `rf`, `mo` and `fr` ([`base`]), so when one topological sort of
//! the union of those a spec mentions finds no cycle, every axiom holds.
//! Only when it finds one are the relations each axiom names materialized
//! and the [`Axiom`]s evaluated one by one, to name the first violated.
//! The answer is the same either way. It is the independent certificate
//! checker: the SC stage's orders under RA and ARM-dob, the
//! graph-lowered machine's accepted witnesses, the SAT compiler's decoded
//! models and the RA fast tier's saturated witnesses are all validated
//! against it before they become a `Consistent` verdict. An SC-shaped
//! witness, the common case, costs one linear sort.
//!
//! [`AxiomPlan`] is what the graph-lowered machine asks at every search
//! state instead: the same axioms compiled once per solve. The static
//! relations are built once, as rows; the witness-dependent ones are
//! never built but walked from the witness and its [`Links`], reduced to
//! the edges that carry reachability (DESIGN.md §4g). Its one question
//! ([`AxiomPlan::violated_after`]) answers exactly like
//! [`violated_axiom`] for a state whose parent passed every axiom, by
//! looking only at cycles through the last decided event and its decided
//! readers: every edge that decision adds ends at one of them. Debug
//! builds and a differential property test check it.
//!
//! Every structure here reads one event universe, [`Events`], laid out
//! from the trace's [`AddrIndex`]: the index `verify_axiom` builds once
//! per check, so the per-address precheck, the lowerings and the SAT
//! compiler agree on every slot by construction.
//!
//! Everything here is *monotone* in the witness: adding a decision only
//! ever adds edges, so an axiom violated by a partial witness is violated
//! by every completion — the soundness argument behind pruning on it.

use super::{Axiom, AxiomKind, ModelSpec, Rel};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vermem_trace::{AddrIndex, Op, OpRef, Schedule, Trace, Value};
use vermem_util::csr::Csr;

/// One reads-from candidate for a read event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RfCand {
    /// The read sees the address's initial value.
    Init,
    /// The read sees the write-capable event with this event id.
    From(u32),
}

/// A (possibly partial) witness: `rf` indexed by event id (`None` =
/// undecided, and permanently `None` for non-reads), `mo` as the list of
/// placed write-capable event ids per address slot, in coherence order.
///
/// Event ids number the trace's operations in [`Trace::iter_ops`] order
/// (process-major); slots index the entries of the trace's [`AddrIndex`]
/// (its addresses, ascending).
#[derive(Clone, Debug)]
pub struct Witness {
    /// Reads-from choice per event.
    pub rf: Vec<Option<RfCand>>,
    /// Coherence order per slot (placed prefix during search).
    pub mo: Vec<Vec<u32>>,
}

impl Witness {
    /// The all-undecided witness for an event universe.
    pub(crate) fn empty(n_events: usize, n_slots: usize) -> Witness {
        Witness {
            rf: vec![None; n_events],
            mo: vec![Vec::new(); n_slots],
        }
    }

    /// The witness a serialization `order` of every event of `ev`
    /// induces: each read's `rf` is the latest write to its slot earlier
    /// in `order` (`Init` if none), and each slot's `mo` is its writes in
    /// `order`. An RMW reads before it writes. Nothing is checked here:
    /// the witness answers to [`check_witness_ev`] like any other.
    pub(crate) fn of_order(ev: &Events, order: &[OpRef]) -> Witness {
        let mut w = Witness::empty(ev.len(), ev.writes_by_slot.len());
        let mut latest = vec![RfCand::Init; ev.writes_by_slot.len()];
        for r in order {
            let e = ev.by_proc[r.proc.0 as usize][r.index as usize];
            let slot = ev.slot_of[e as usize] as usize;
            let op = ev.ops[e as usize].1;
            if op.is_reading() {
                w.rf[e as usize] = Some(latest[slot]);
            }
            if op.is_writing() {
                w.mo[slot].push(e);
                latest[slot] = RfCand::From(e);
            }
        }
        w
    }
}

/// The event universe of one trace, precomputed once per check from its
/// [`AddrIndex`]: ops in event-id order, per-event process/slot, per-slot
/// write lists and per-read `rf` candidates.
pub(crate) struct Events {
    /// Operations in event-id order.
    pub ops: Vec<(OpRef, Op)>,
    /// Owning process per event.
    pub proc_of: Vec<u16>,
    /// Address slot per event.
    pub slot_of: Vec<u32>,
    /// Initial value per slot.
    pub initial: Vec<Value>,
    /// Final-value constraints as `(slot, value)`. Every index entry has
    /// a slot, so an address that carries only a final value is a slot
    /// with no writes.
    pub finals: Vec<(u32, Value)>,
    /// `rf` candidates per event (empty for non-reads; a read with an
    /// empty list is unsatisfiable under any spec).
    pub candidates: Vec<Vec<RfCand>>,
    /// Write-capable event ids per slot, ascending.
    pub writes_by_slot: Vec<Vec<u32>>,
    /// Event ids per process, ascending (= program order).
    pub by_proc: Vec<Vec<u32>>,
}

impl Events {
    /// The events of `trace`, laid out by its index `idx`: slot `i` is
    /// the index's `i`-th entry, whose writes, listed process by process
    /// in program order, are in ascending event-id order.
    pub(crate) fn new(trace: &Trace, idx: &AddrIndex) -> Events {
        let ops: Vec<(OpRef, Op)> = trace.iter_ops().collect();
        let n = ops.len();
        let proc_of = ops.iter().map(|(r, _)| r.proc.0).collect();
        let mut by_proc: Vec<Vec<u32>> = Vec::with_capacity(trace.num_procs());
        let mut first = 0;
        for h in trace.histories() {
            let len = h.len() as u32;
            by_proc.push((first..first + len).collect());
            first += len;
        }

        let mut slot_of = vec![0; n];
        let mut initial = Vec::with_capacity(idx.len());
        let mut finals = Vec::new();
        let mut writes_by_slot = Vec::with_capacity(idx.len());
        let mut candidates: Vec<Vec<RfCand>> = vec![Vec::new(); n];
        for (slot, entry) in idx.iter().enumerate() {
            initial.push(entry.initial());
            if let Some(v) = entry.final_value() {
                finals.push((slot as u32, v));
            }
            // The entry lists its ops in ascending event-id order.
            let events: Vec<u32> = entry
                .iter()
                .map(|(r, _)| by_proc[r.proc.0 as usize][r.index as usize])
                .collect();
            let mut writes = Vec::new();
            for (&e, ids) in events.iter().zip(entry.ids()) {
                slot_of[e as usize] = slot as u32;
                if ids.write().is_some() {
                    writes.push(e);
                }
            }
            // A read's candidates: `Init` when it reads d_I (id 0), then
            // every other write of its value id, ascending.
            let writers = Csr::new(
                entry.values().len(),
                events
                    .iter()
                    .zip(entry.ids())
                    .filter_map(|(&e, ids)| ids.write().map(|w| (w, e))),
            );
            for (&e, ids) in events.iter().zip(entry.ids()) {
                let Some(need) = ids.read() else { continue };
                let c = &mut candidates[e as usize];
                if need == 0 {
                    c.push(RfCand::Init);
                }
                c.extend(
                    writers
                        .row(need)
                        .iter()
                        .filter(|&&w| w != e)
                        .map(|&w| RfCand::From(w)),
                );
            }
            writes_by_slot.push(writes);
        }

        Events {
            ops,
            proc_of,
            slot_of,
            initial,
            finals,
            candidates,
            writes_by_slot,
            by_proc,
        }
    }

    /// Number of events.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Has a fully placed address already missed its final-value
    /// constraint (its `mo`-last write, or the initial value when it has
    /// no writes, is not the required value)? Placing other addresses'
    /// writes cannot repair it, so this is a sound partial refutation.
    pub(crate) fn finals_missed(&self, w: &Witness) -> bool {
        self.finals.iter().any(|&(slot, v)| {
            let placed = &w.mo[slot as usize];
            placed.len() == self.writes_by_slot[slot as usize].len()
                && match placed.last() {
                    Some(&e) => self.ops[e as usize].1.written_value() != Some(v),
                    None => self.initial[slot as usize] != v,
                }
        })
    }

    /// Is some read unsatisfiable outright (no `rf` candidate)?
    pub(crate) fn some_read_unsatisfiable(&self) -> bool {
        self.ops
            .iter()
            .zip(&self.candidates)
            .any(|(&(_, op), c)| op.is_reading() && c.is_empty())
    }
}

/// Does `spec` preserve the program-order pair `x` (earlier) → `y`
/// (later)? Same-address pairs always (coherence); cross-address pairs per
/// [`ModelSpec::ppo_cross`]. This is [`Rel::Ppo`]'s membership test.
pub(crate) fn preserves(spec: &ModelSpec, x: Op, y: Op) -> bool {
    x.addr() == y.addr() || spec.ppo_cross[x.class()][y.class()]
}

/// Materialize one relation generator's edges from a (partial) witness.
/// The SAT compiler calls this with the empty witness to enumerate the
/// *static* relations (`po`, `po|loc`, `ppo`, `dob`), which do not depend
/// on the witness at all.
pub(crate) fn push_rel(
    rel: Rel,
    spec: &ModelSpec,
    ev: &Events,
    w: &Witness,
    out: &mut Vec<(u32, u32)>,
) {
    let same_proc = |a: u32, b: u32| ev.proc_of[a as usize] == ev.proc_of[b as usize];
    match rel {
        Rel::Po | Rel::PoLoc | Rel::Ppo | Rel::Dob => {
            for evs in &ev.by_proc {
                for (i, &a) in evs.iter().enumerate() {
                    for &b in &evs[i + 1..] {
                        let same_addr = ev.slot_of[a as usize] == ev.slot_of[b as usize];
                        let keep = match rel {
                            Rel::Po => true,
                            Rel::PoLoc => same_addr,
                            Rel::Ppo => preserves(spec, ev.ops[a as usize].1, ev.ops[b as usize].1),
                            Rel::Dob => same_addr || ev.ops[a as usize].1.is_reading(),
                            _ => unreachable!(),
                        };
                        if keep {
                            out.push((a, b));
                        }
                    }
                }
            }
        }
        Rel::Rf | Rel::Rfe => {
            for (e, rf) in w.rf.iter().enumerate() {
                if let Some(RfCand::From(src)) = *rf {
                    if rel == Rel::Rf || !same_proc(src, e as u32) {
                        out.push((src, e as u32));
                    }
                }
            }
        }
        Rel::Mo | Rel::Moe => {
            for order in &w.mo {
                for (i, &a) in order.iter().enumerate() {
                    for &b in &order[i + 1..] {
                        if rel == Rel::Mo || !same_proc(a, b) {
                            out.push((a, b));
                        }
                    }
                }
            }
        }
        Rel::Fr | Rel::Fre => {
            for (e, rf) in w.rf.iter().enumerate() {
                let e = e as u32;
                let Some(cand) = *rf else { continue };
                for &x in fr_after(ev, w, e, cand) {
                    if x != e && (rel == Rel::Fr || !same_proc(e, x)) {
                        out.push((e, x));
                    }
                }
            }
        }
    }
}

/// The placed writes `mo`-after read `e`'s writer `cand`: all of them for
/// reads-from-initial, none yet if the writer is unplaced (so `fr` stays
/// monotone in the witness). For an RMW the list may contain `e` itself.
fn fr_after<'w>(ev: &Events, w: &'w Witness, e: u32, cand: RfCand) -> &'w [u32] {
    let order = &w.mo[ev.slot_of[e as usize] as usize];
    match cand {
        RfCand::Init => order,
        RfCand::From(src) => match order.iter().position(|&x| x == src) {
            Some(pos) => &order[pos + 1..],
            None => &[],
        },
    }
}

fn union_edges(rels: &[Rel], spec: &ModelSpec, ev: &Events, w: &Witness) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for &rel in rels {
        push_rel(rel, spec, ev, w, &mut out);
    }
    out
}

/// Cycle detection by iterative three-color DFS over events `0..n`;
/// `succ(v, i)` is `v`'s successor number `i`.
fn has_cycle(
    n: usize,
    succ: impl Fn(u32, usize) -> Option<u32>,
    color: &mut Vec<u8>,
    stack: &mut Vec<(u32, usize)>,
) -> bool {
    // 0 = white, 1 = on stack, 2 = done.
    color.clear();
    color.resize(n, 0);
    for root in 0..n as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        color[root as usize] = 1;
        stack.clear();
        stack.push((root, 0));
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            match succ(v, *i) {
                Some(next) => {
                    *i += 1;
                    match color[next as usize] {
                        0 => {
                            color[next as usize] = 1;
                            stack.push((next, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                }
                None => {
                    color[v as usize] = 2;
                    stack.pop();
                }
            }
        }
    }
    false
}

/// Reachability in one or more steps as one bit matrix (row `v` holds the
/// events reachable from `v`), by BFS from each node.
pub(crate) struct Reach {
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    pub(crate) fn new(n: usize, edges: &[(u32, u32)]) -> Reach {
        let words = n.div_ceil(64);
        let adj = Csr::new(n, edges.iter().copied());
        let mut bits = vec![0u64; n * words];
        let mut queue = Vec::new();
        for start in 0..n {
            let row = &mut bits[start * words..(start + 1) * words];
            queue.clear();
            queue.extend_from_slice(adj.row(start as u32));
            let mut qi = 0;
            while qi < queue.len() {
                let v = queue[qi] as usize;
                qi += 1;
                let (word, bit) = (v / 64, v % 64);
                if row[word] >> bit & 1 == 1 {
                    continue;
                }
                row[word] |= 1 << bit;
                queue.extend_from_slice(adj.row(v as u32));
            }
        }
        Reach { words, bits }
    }

    /// Does `from` reach `to` in one or more steps?
    pub(crate) fn has(&self, from: u32, to: u32) -> bool {
        let to = to as usize;
        self.bits[from as usize * self.words + to / 64] >> (to % 64) & 1 == 1
    }
}

/// Is `ax` violated by the witness (partial witnesses give sound partial
/// answers: `true` means every completion is violated too)?
fn axiom_violated(ax: &Axiom, spec: &ModelSpec, ev: &Events, w: &Witness) -> bool {
    let n = ev.len();
    match ax.kind {
        AxiomKind::Acyclic(rels) => {
            let adj = Csr::new(n, union_edges(rels, spec, ev, w).into_iter());
            let succ = |v: u32, i: usize| adj.row(v).get(i).copied();
            has_cycle(n, succ, &mut Vec::new(), &mut Vec::new())
        }
        AxiomKind::IrreflexiveSeq { head, closure } => {
            let heads = union_edges(head, spec, ev, w);
            if heads.is_empty() {
                return false;
            }
            let reach = Reach::new(n, &union_edges(closure, spec, ev, w));
            heads.iter().any(|&(a, b)| reach.has(b, a))
        }
    }
}

/// First axiom of `spec` violated by the witness, if any: the reference
/// evaluator. One sort first ([`union_acyclic`]): when it finds the
/// union of the base relations the spec mentions acyclic, every axiom
/// holds. Only on a cycle is each axiom evaluated on its own
/// ([`axiom_by_axiom`]), to name the first one violated.
pub(crate) fn violated_axiom(spec: &ModelSpec, ev: &Events, w: &Witness) -> Option<&'static str> {
    if union_acyclic(spec, ev, w) {
        return None;
    }
    axiom_by_axiom(spec, ev, w)
}

/// First axiom of `spec` violated by the witness, each axiom evaluated on
/// its own from its materialized relations. Reached through
/// [`violated_axiom`], which sorts first; the graph machine's debug-build
/// cross-check calls it directly, so that its reference is independent of
/// the sort.
pub(crate) fn axiom_by_axiom(spec: &ModelSpec, ev: &Events, w: &Witness) -> Option<&'static str> {
    spec.axioms
        .iter()
        .find(|ax| axiom_violated(ax, spec, ev, w))
        .map(|ax| ax.name)
}

/// The base relation — `po`, `rf`, `mo` or `fr` — that contains every
/// pair `rel` generates on every witness: `po ⊇ po|loc, ppo, dob`,
/// `rf ⊇ rfe`, `mo ⊇ moe`, `fr ⊇ fre`. No wildcard arm: a new generator
/// must be classified here before [`violated_axiom`] can discharge it.
fn base(rel: Rel) -> Rel {
    match rel {
        Rel::Po | Rel::PoLoc | Rel::Ppo | Rel::Dob => Rel::Po,
        Rel::Rf | Rel::Rfe => Rel::Rf,
        Rel::Mo | Rel::Moe => Rel::Mo,
        Rel::Fr | Rel::Fre => Rel::Fr,
    }
}

/// Is the union of the base relations ([`base`]) of every generator
/// `spec` mentions acyclic on the (partial) witness? If so, every axiom
/// holds: an `Acyclic` union is a subgraph of it, and an
/// `IrreflexiveSeq` violation — a head edge `a → b` with `b ⇝⁺ a` in the
/// closure — is a cycle in it. One Kahn pass over the edges that carry
/// the union's reachability, O(events): consecutive pairs of each
/// process for `po`, every `rf` edge, and the `mo`/`fr` chains of
/// [`push_mo_fr_chain`].
fn union_acyclic(spec: &ModelSpec, ev: &Events, w: &Witness) -> bool {
    let rels = spec.axioms.iter().flat_map(|ax| match ax.kind {
        AxiomKind::Acyclic(rels) => rels.iter().chain(&[]),
        AxiomKind::IrreflexiveSeq { head, closure } => head.iter().chain(closure),
    });
    let [po, rf, mo, fr] =
        [Rel::Po, Rel::Rf, Rel::Mo, Rel::Fr].map(|b| rels.clone().any(|&r| base(r) == b));
    let n = ev.len();
    let mut edges = Vec::with_capacity(3 * n);
    if po {
        for evs in &ev.by_proc {
            edges.extend(evs.windows(2).map(|p| (p[0], p[1])));
        }
    }
    if rf {
        push_rel(Rel::Rf, spec, ev, w, &mut edges);
    }
    if mo || fr {
        push_mo_fr_chain(ev, w, fr, &mut edges);
    }
    let adj = Csr::new(n, edges.iter().copied());
    let mut indegree = vec![0u32; n];
    for &(_, b) in &edges {
        indegree[b as usize] += 1;
    }
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&e| indegree[e as usize] == 0)
        .collect();
    let mut sorted = 0;
    while let Some(e) = ready.pop() {
        sorted += 1;
        for &b in adj.row(e) {
            indegree[b as usize] -= 1;
            if indegree[b as usize] == 0 {
                ready.push(b);
            }
        }
    }
    sorted == n
}

/// Append the edges that carry the reachability of `mo`, and with `fr`
/// also of `mo ∪ fr`, on a (partial) witness: consecutive pairs of each
/// slot's `mo`, and each decided read's edge to its first [`fr_after`]
/// target other than itself. The `mo` chain reaches every later target.
fn push_mo_fr_chain(ev: &Events, w: &Witness, fr: bool, out: &mut Vec<(u32, u32)>) {
    for order in &w.mo {
        out.extend(order.windows(2).map(|p| (p[0], p[1])));
    }
    if !fr {
        return;
    }
    for (e, rf) in w.rf.iter().enumerate() {
        let e = e as u32;
        let Some(cand) = *rf else { continue };
        if let Some(&x) = fr_after(ev, w, e, cand).iter().find(|&&x| x != e) {
            out.push((e, x));
        }
    }
}

/// Marks an absent entry in [`Links`]: no position, no reader.
const NONE: u32 = u32::MAX;

/// What a (partial) witness needs indexed for its relations to be walked
/// without materializing them: each write's decided readers, each slot's
/// decided reads-from-initial, and each placed write's `mo` position. The
/// graph machine keeps them decision by decision ([`Links::decide`],
/// [`Links::retract`]). Reader
/// lists are singly linked through the reads themselves, newest first,
/// so a decision and its undo each touch one list head.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Links {
    /// Head of the list of decided reads with `rf = From(e)`, per event.
    readers: Vec<u32>,
    /// Head of the list of decided reads-from-initial, per slot.
    init_readers: Vec<u32>,
    /// The next read on a read's list, per event.
    next: Vec<u32>,
    /// Position in its slot's `mo`, per event.
    pos: Vec<u32>,
}

impl Links {
    /// The links of a witness, built from scratch.
    pub(crate) fn of(ev: &Events, w: &Witness) -> Links {
        let n = ev.len();
        let mut links = Links {
            readers: vec![NONE; n],
            init_readers: vec![NONE; w.mo.len()],
            next: vec![NONE; n],
            pos: vec![NONE; n],
        };
        for e in 0..n as u32 {
            links.add_reader(ev, w, e);
        }
        for order in &w.mo {
            links.renumber(order);
        }
        links
    }

    /// The decided readers of event `e`, newest first.
    pub(crate) fn readers(&self, e: u32) -> impl Iterator<Item = u32> + '_ {
        self.list(self.readers[e as usize])
    }

    /// The list starting at `head`.
    fn list(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        let step = |r: u32| (r != NONE).then_some(r);
        std::iter::successors(step(head), move |&r| step(self.next[r as usize]))
    }

    /// Record event `e`'s decision, which `w` already holds.
    pub(crate) fn decide(&mut self, ev: &Events, w: &Witness, e: u32) {
        self.add_reader(ev, w, e);
        if ev.ops[e as usize].1.is_writing() {
            self.renumber(&w.mo[ev.slot_of[e as usize] as usize]);
        }
    }

    /// Forget event `e`'s decision, the last one recorded, while `w`
    /// still holds it.
    pub(crate) fn retract(&mut self, ev: &Events, w: &Witness, e: u32) {
        let next = std::mem::replace(&mut self.next[e as usize], NONE);
        if let Some(head) = self.head_of(ev, w, e) {
            debug_assert_eq!(*head, e, "decisions are retracted last first");
            *head = next;
        }
        let p = std::mem::replace(&mut self.pos[e as usize], NONE);
        if p != NONE {
            for &x in &w.mo[ev.slot_of[e as usize] as usize][p as usize + 1..] {
                self.pos[x as usize] -= 1;
            }
        }
    }

    /// The head of the reader list read `e` belongs on, if decided.
    fn head_of(&mut self, ev: &Events, w: &Witness, e: u32) -> Option<&mut u32> {
        match w.rf[e as usize]? {
            RfCand::Init => Some(&mut self.init_readers[ev.slot_of[e as usize] as usize]),
            RfCand::From(src) => Some(&mut self.readers[src as usize]),
        }
    }

    fn add_reader(&mut self, ev: &Events, w: &Witness, e: u32) {
        if let Some(head) = self.head_of(ev, w, e) {
            let next = std::mem::replace(head, e);
            self.next[e as usize] = next;
        }
    }

    fn renumber(&mut self, order: &[u32]) {
        for (i, &x) in order.iter().enumerate() {
            self.pos[x as usize] = i as u32;
        }
    }
}

/// One state's event graph as a plan walks it: the witness and its links.
#[derive(Clone, Copy)]
struct Graph<'s> {
    ev: &'s Events,
    w: &'s Witness,
    links: &'s Links,
}

impl<'s> Graph<'s> {
    /// `v`'s slot's placed writes, and `v`'s position among them.
    fn placed(self, v: u32) -> (&'s [u32], Option<usize>) {
        let order = &self.w.mo[self.ev.slot_of[v as usize] as usize];
        let p = self.links.pos[v as usize];
        (order, (p != NONE).then_some(p as usize))
    }

    /// Placed writes `mo`-after `v` (none while `v` is unplaced).
    fn mo_after(self, v: u32) -> &'s [u32] {
        match self.placed(v) {
            (order, Some(p)) => &order[p + 1..],
            _ => &[],
        }
    }

    /// Placed writes `mo`-before `v` (none while `v` is unplaced).
    fn mo_before(self, v: u32) -> &'s [u32] {
        match self.placed(v) {
            (order, Some(p)) => &order[..p],
            _ => &[],
        }
    }

    /// [`fr_after`], answered from the links.
    fn fr_after(self, r: u32) -> &'s [u32] {
        match self.w.rf[r as usize] {
            None => &[],
            Some(RfCand::Init) => &self.w.mo[self.ev.slot_of[r as usize] as usize],
            Some(RfCand::From(src)) => self.mo_after(src),
        }
    }

    /// Decided reads whose writer is `mo`-immediately before placed write
    /// `x` (reads-from-initial when `x` is `mo`-first): the reads whose
    /// first `fr` target is `x`, the read itself aside.
    fn readers_just_before(self, x: u32) -> impl Iterator<Item = u32> + 's {
        let head = match self.placed(x) {
            (_, Some(0)) => self.links.init_readers[self.ev.slot_of[x as usize] as usize],
            (order, Some(p)) => self.links.readers[order[p - 1] as usize],
            _ => NONE,
        };
        self.links.list(head)
    }

    /// Decided reads whose writer is `mo`-before placed write `x`, or
    /// initial: every read with an `fr` edge to `x`, the read itself aside.
    fn readers_before(self, x: u32) -> impl Iterator<Item = u32> + 's {
        let (init, prefix): (u32, &[u32]) = match self.placed(x) {
            (order, Some(p)) => (
                self.links.init_readers[self.ev.slot_of[x as usize] as usize],
                &order[..p],
            ),
            _ => (NONE, &[]),
        };
        let links = self.links;
        links
            .list(init)
            .chain(prefix.iter().flat_map(move |&w| links.readers(w)))
    }

    /// Do `a` and `b` belong to different processes?
    fn external(self, a: u32, b: u32) -> bool {
        self.ev.proc_of[a as usize] != self.ev.proc_of[b as usize]
    }
}

/// A relation union compiled for one solve. The static members (`po`,
/// `po|loc`, `ppo`, `dob`) are materialized once, as rows and transposed
/// rows; the witness-dependent ones are walked from the [`Graph`] on
/// demand, in either direction. A union whose transitive closure is all
/// its axiom asks about (`chain`) walks `po` and `po|loc` as
/// immediate-successor chains, `mo` as consecutive pairs and — when `mo`
/// is a member too — `fr` only to the first `mo`-later write. Each
/// reduction keeps the closure (DESIGN.md §4g). A head walks every edge.
struct UnionPlan {
    fixed: Csr,
    fixed_rev: Csr,
    live: Vec<Rel>,
    chain: bool,
    /// `mo` is walked as a chain in this union, so `fr` may stop at its
    /// first target.
    fr_first: bool,
}

impl UnionPlan {
    fn new(rels: &[Rel], spec: &ModelSpec, ev: &Events, chain: bool) -> UnionPlan {
        let empty = Witness::empty(ev.len(), ev.writes_by_slot.len());
        let (mut edges, mut live) = (Vec::new(), Vec::new());
        for &rel in rels {
            match rel {
                Rel::Po if chain => {
                    for evs in &ev.by_proc {
                        edges.extend(evs.windows(2).map(|p| (p[0], p[1])));
                    }
                }
                Rel::PoLoc if chain => {
                    for evs in &ev.by_proc {
                        for (i, &a) in evs.iter().enumerate() {
                            let slot = ev.slot_of[a as usize];
                            let next = evs[i + 1..]
                                .iter()
                                .find(|&&b| ev.slot_of[b as usize] == slot);
                            if let Some(&b) = next {
                                edges.push((a, b));
                            }
                        }
                    }
                }
                Rel::Po | Rel::PoLoc | Rel::Ppo | Rel::Dob => {
                    push_rel(rel, spec, ev, &empty, &mut edges)
                }
                Rel::Rf | Rel::Rfe | Rel::Mo | Rel::Moe | Rel::Fr | Rel::Fre => live.push(rel),
            }
        }
        let reversed: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (b, a)).collect();
        UnionPlan {
            fixed: Csr::new(ev.len(), edges.iter().copied()),
            fixed_rev: Csr::new(ev.len(), reversed.iter().copied()),
            live,
            chain,
            fr_first: chain && rels.contains(&Rel::Mo),
        }
    }

    /// Can an edge of the union start at `v`?
    fn may_leave(&self, ev: &Events, v: u32) -> bool {
        let op = ev.ops[v as usize].1;
        !self.fixed.row(v).is_empty()
            || self.live.iter().any(|rel| match rel {
                Rel::Fr | Rel::Fre => op.is_reading(),
                _ => op.is_writing(),
            })
    }

    /// Can an edge of the union end at `v`?
    fn may_enter(&self, ev: &Events, v: u32) -> bool {
        let op = ev.ops[v as usize].1;
        !self.fixed_rev.row(v).is_empty()
            || self.live.iter().any(|rel| match rel {
                Rel::Rf | Rel::Rfe => op.is_reading(),
                _ => op.is_writing(),
            })
    }

    /// Append `v`'s successors to `out`.
    fn succ(&self, g: Graph, v: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(self.fixed.row(v));
        let ext = |x: &u32| g.external(v, *x);
        for &rel in &self.live {
            match rel {
                Rel::Rf => out.extend(g.links.readers(v)),
                Rel::Rfe => out.extend(g.links.readers(v).filter(|x| ext(x))),
                Rel::Mo if self.chain => out.extend(g.mo_after(v).first()),
                Rel::Mo => out.extend_from_slice(g.mo_after(v)),
                Rel::Moe => out.extend(g.mo_after(v).iter().filter(|x| ext(x))),
                // When the first target is the read itself (an RMW placed
                // right after its writer), its `mo` chain reaches every
                // other target.
                Rel::Fr if self.fr_first => out.extend(g.fr_after(v).first().filter(|&&x| x != v)),
                Rel::Fr => out.extend(g.fr_after(v).iter().filter(|&&x| x != v)),
                Rel::Fre => out.extend(g.fr_after(v).iter().filter(|x| ext(x))),
                _ => unreachable!("static relations are fixed rows"),
            }
        }
    }

    /// Append `v`'s predecessors to `out`: exactly the events whose
    /// [`UnionPlan::succ`] lists `v`. Only closures are walked backwards.
    fn pred(&self, g: Graph, v: u32, out: &mut Vec<u32>) {
        debug_assert!(self.chain, "heads are walked forwards only");
        out.extend_from_slice(self.fixed_rev.row(v));
        let ext = |x: &u32| g.external(v, *x);
        for &rel in &self.live {
            match rel {
                Rel::Rf | Rel::Rfe => {
                    if let Some(RfCand::From(x)) = g.w.rf[v as usize] {
                        if rel == Rel::Rf || ext(&x) {
                            out.push(x);
                        }
                    }
                }
                Rel::Mo => out.extend(g.mo_before(v).last()),
                Rel::Moe => out.extend(g.mo_before(v).iter().filter(|x| ext(x))),
                Rel::Fr if self.fr_first => {
                    out.extend(g.readers_just_before(v).filter(|&x| x != v))
                }
                Rel::Fr => out.extend(g.readers_before(v).filter(|&x| x != v)),
                Rel::Fre => out.extend(g.readers_before(v).filter(|x| ext(x))),
                _ => unreachable!("static relations are fixed rows"),
            }
        }
    }
}

/// Is there a cycle among the events reachable from `roots`? Iterative
/// three-colour DFS that pushes a node's successors all at once: an edge
/// is tested when its source is expanded, and the nodes then on the path
/// are exactly the ones a recursive search would have on its stack.
fn cycle_from(
    union: &UnionPlan,
    g: Graph,
    roots: impl Iterator<Item = u32>,
    s: &mut Scratch,
) -> bool {
    // 0 = white, 1 = on the path, 2 = done; LEAVE tags "pop v off the path".
    const LEAVE: u32 = 1 << 31;
    s.color.clear();
    s.color.resize(g.ev.len(), 0);
    for root in roots {
        s.stack.clear();
        s.stack.push(root);
        while let Some(top) = s.stack.pop() {
            if top & LEAVE != 0 {
                s.color[(top & !LEAVE) as usize] = 2;
                continue;
            }
            if s.color[top as usize] != 0 {
                continue;
            }
            s.color[top as usize] = 1;
            s.stack.push(top | LEAVE);
            let from = s.stack.len();
            union.succ(g, top, &mut s.stack);
            s.visits += (s.stack.len() - from) as u64;
            if s.stack[from..].iter().any(|&x| s.color[x as usize] == 1) {
                return true;
            }
        }
    }
    false
}

/// Mark in `mark` every event that `from` reaches (`back`: that reaches
/// `from`) in zero or more steps; `list` ends holding exactly the marked
/// events. Returns the number of successor visits.
fn reach(
    union: &UnionPlan,
    g: Graph,
    from: u32,
    back: bool,
    mark: &mut [bool],
    list: &mut Vec<u32>,
) -> u64 {
    let mut visits = 0;
    list.clear();
    list.push(from);
    mark[from as usize] = true;
    let mut next = 0;
    while let Some(&v) = list.get(next) {
        next += 1;
        let at = list.len();
        if back {
            union.pred(g, v, list);
        } else {
            union.succ(g, v, list);
        }
        visits += (list.len() - at) as u64;
        // Keep the newly found events only.
        let mut kept = at;
        for i in at..list.len() {
            let x = list[i];
            if !mark[x as usize] {
                mark[x as usize] = true;
                list[kept] = x;
                kept += 1;
            }
        }
        list.truncate(kept);
    }
    visits
}

/// One axiom, compiled.
enum Check {
    Acyclic(UnionPlan),
    /// `sources[a]`: `a` can start a head edge and end a closure edge, as
    /// the source of every head edge that closes a cycle must.
    IrreflexiveSeq {
        head: UnionPlan,
        closure: UnionPlan,
        sources: Vec<bool>,
    },
}

impl Check {
    /// Is the axiom violated by a cycle through one of `seeds`?
    fn violated(&self, g: Graph, seeds: &[u32], s: &mut Scratch) -> bool {
        match self {
            Check::Acyclic(union) => cycle_from(union, g, seeds.iter().copied(), s),
            Check::IrreflexiveSeq {
                head,
                closure,
                sources,
            } => seeds
                .iter()
                .any(|&v| closes_through(head, closure, sources, g, v, s)),
        }
    }
}

/// Is there a head edge `a → b` with `b ⇝* v ⇝* a` in the closure? Head
/// edges are never reflexive, so such an edge closes a cycle: `b ⇝⁺ a`.
fn closes_through(
    head: &UnionPlan,
    closure: &UnionPlan,
    sources: &[bool],
    g: Graph,
    v: u32,
    s: &mut Scratch,
) -> bool {
    // F, then B, in the one marked list: F is used up before B is walked.
    s.visits += reach(closure, g, v, false, &mut s.mark, &mut s.found);
    for &x in &s.found {
        s.mark[x as usize] = false;
    }
    s.heads.clear();
    for &a in &s.found {
        if sources[a as usize] {
            head.succ(g, a, &mut s.heads);
        }
    }
    s.visits += s.heads.len() as u64;
    if s.heads.is_empty() {
        return false;
    }
    s.visits += reach(closure, g, v, true, &mut s.mark, &mut s.found);
    let closed = s.heads.iter().any(|&b| s.mark[b as usize]);
    for &x in &s.found {
        s.mark[x as usize] = false;
    }
    closed
}

/// Per-state working memory, reused across states.
#[derive(Default)]
struct Scratch {
    seeds: Vec<u32>,
    color: Vec<u8>,
    stack: Vec<u32>,
    /// [`reach`]'s marks (all clear between walks) and marked events.
    mark: Vec<bool>,
    found: Vec<u32>,
    heads: Vec<u32>,
    /// Successor visits made so far: the plan's deterministic work count.
    visits: u64,
}

/// A spec's axioms compiled once per solve for one event universe: the
/// per-state evaluator of the graph lowering.
/// [`AxiomPlan::violated_after`] answers exactly like [`violated_axiom`]
/// for a witness whose parent passed, looking only where the last
/// decision added edges.
pub(crate) struct AxiomPlan {
    checks: Vec<(&'static str, Check)>,
    scratch: RefCell<Scratch>,
}

impl AxiomPlan {
    pub(crate) fn new(spec: &ModelSpec, ev: &Events) -> AxiomPlan {
        let checks = spec
            .axioms
            .iter()
            .filter_map(|ax| {
                let check = match ax.kind {
                    AxiomKind::Acyclic(rels) => {
                        Check::Acyclic(UnionPlan::new(rels, spec, ev, true))
                    }
                    AxiomKind::IrreflexiveSeq { head, closure } => {
                        let head = UnionPlan::new(head, spec, ev, false);
                        let closure = UnionPlan::new(closure, spec, ev, true);
                        let sources: Vec<bool> = (0..ev.len() as u32)
                            .map(|a| head.may_leave(ev, a) && closure.may_enter(ev, a))
                            .collect();
                        // No head edge can ever close a cycle (for
                        // `fr ; mo⁺`: no event both reads and writes).
                        if !sources.contains(&true) {
                            return None;
                        }
                        Check::IrreflexiveSeq {
                            head,
                            closure,
                            sources,
                        }
                    }
                };
                Some((ax.name, check))
            })
            .collect();
        AxiomPlan {
            checks,
            scratch: RefCell::new(Scratch {
                mark: vec![false; ev.len()],
                ..Scratch::default()
            }),
        }
    }

    /// First axiom of the spec violated by the witness, if any, given that
    /// the witness satisfied every axiom before event `e`'s decision, and
    /// that `links` are the witness's own. Every edge that decision added
    /// ends at `e` or at one of `e`'s decided readers, so only cycles
    /// through those can be new (DESIGN.md §4g).
    pub(crate) fn violated_after(
        &self,
        ev: &Events,
        w: &Witness,
        links: &Links,
        e: u32,
    ) -> Option<&'static str> {
        let s = &mut *self.scratch.borrow_mut();
        let mut seeds = std::mem::take(&mut s.seeds);
        seeds.clear();
        seeds.push(e);
        seeds.extend(links.readers(e));
        let g = Graph { ev, w, links };
        let found = self
            .checks
            .iter()
            .find(|(_, check)| check.violated(g, &seeds, s))
            .map(|&(name, _)| name);
        s.seeds = seeds;
        found
    }

    /// Successor visits the plan's checks have made so far.
    pub(crate) fn visits(&self) -> u64 {
        self.scratch.borrow().visits
    }
}

/// Validate a *complete* witness against `spec` and the trace's final
/// values. This is the reference evaluator: every compiled decision path
/// (operational acceptance, SAT decode, RA fast tier) answers to it. The
/// witness's shape is checked first (each read's `rf` one of its
/// candidates, each address's `mo` a permutation of its writes, the final
/// values `mo`-last); then one topological sort of the union of the base
/// relations the spec mentions (of `po ∪ rf ∪ mo ∪ fr`, for every
/// declared model) discharges every axiom when it finds no cycle, and
/// only on a cycle are the axioms evaluated one by one. `Err` names the
/// first check failed.
pub fn check_witness(trace: &Trace, spec: &ModelSpec, w: &Witness) -> Result<(), &'static str> {
    check_witness_ev(spec, &super::events(trace), w)
}

/// [`check_witness`] on the trace's event universe `ev`, as the compiled
/// paths hold it: the shape checks, then [`violated_axiom`] (one sort
/// first, axiom by axiom only on a cycle).
pub(crate) fn check_witness_ev(
    spec: &ModelSpec,
    ev: &Events,
    w: &Witness,
) -> Result<(), &'static str> {
    let n = ev.len();
    if w.rf.len() != n || w.mo.len() != ev.writes_by_slot.len() {
        return Err("witness shape mismatch");
    }
    for (e, &(_, op)) in ev.ops.iter().enumerate() {
        match (op.is_reading(), w.rf[e]) {
            (true, Some(cand)) => {
                if !ev.candidates[e].contains(&cand) {
                    return Err("rf choice does not produce the read value");
                }
            }
            (true, None) => return Err("read with undecided rf"),
            (false, Some(_)) => return Err("rf on a non-read"),
            (false, None) => {}
        }
    }
    // Each slot's `mo` must list its writes, each once: as many events as
    // it has writes, each a write of the slot seen for the first time.
    let mut seen = vec![false; n];
    for (slot, writes) in ev.writes_by_slot.iter().enumerate() {
        let placed = &w.mo[slot];
        let permutes = placed.len() == writes.len()
            && placed.iter().all(|&x| {
                let x = x as usize;
                x < n
                    && ev.slot_of[x] == slot as u32
                    && ev.ops[x].1.is_writing()
                    && !std::mem::replace(&mut seen[x], true)
            });
        if !permutes {
            return Err("mo is not a permutation of the address's writes");
        }
    }
    for &(slot, v) in &ev.finals {
        let ok = match w.mo[slot as usize].last() {
            Some(&e) => ev.ops[e as usize].1.written_value() == Some(v),
            None => ev.initial[slot as usize] == v,
        };
        if !ok {
            return Err("final value is not the mo-last write");
        }
    }
    match violated_axiom(spec, ev, w) {
        Some(name) => Err(name),
        None => Ok(()),
    }
}

/// Does this spec's axiom set pin a single serialization order
/// (an acyclicity axiom over `ppo ∪ rf ∪ mo ∪ fr`)?
pub(crate) fn spec_serializes(spec: &ModelSpec) -> bool {
    spec.axioms.iter().any(|ax| match ax.kind {
        AxiomKind::Acyclic(rels) => {
            rels.contains(&Rel::Ppo)
                && rels.contains(&Rel::Rf)
                && rels.contains(&Rel::Mo)
                && rels.contains(&Rel::Fr)
        }
        AxiomKind::IrreflexiveSeq { .. } => false,
    })
}

/// Derive a schedule from an accepted witness: a topological order of
/// `ppo ∪ rf ∪ mo ∪ fr` for single-serialization specs (a genuine
/// serialization witness, by the equivalence argument in DESIGN.md §4g),
/// or of `po ∪ rf` — a causal linearization, acyclic under every spec's
/// accepted witnesses — otherwise. Deterministic: Kahn's algorithm with
/// minimal-event-id tie-breaking, which yields the lexicographically least
/// linear extension. That order depends only on reachability, so each
/// transitive relation contributes just the edges that carry it: `po`
/// and `mo` their consecutive pairs, `fr` each read's edge to its first
/// `mo`-later write (the `mo` chain reaches the rest).
pub(crate) fn witness_schedule(spec: &ModelSpec, ev: &Events, w: &Witness) -> Schedule {
    let n = ev.len();
    let mut edges = Vec::new();
    push_rel(Rel::Rf, spec, ev, w, &mut edges);
    if spec_serializes(spec) {
        push_rel(Rel::Ppo, spec, ev, w, &mut edges);
        push_mo_fr_chain(ev, w, true, &mut edges);
    } else {
        for evs in &ev.by_proc {
            edges.extend(evs.windows(2).map(|p| (p[0], p[1])));
        }
    }
    let adj = Csr::new(n, edges.iter().copied());
    let mut indegree = vec![0u32; n];
    for &(_, b) in &edges {
        indegree[b as usize] += 1;
    }
    let mut ready: BinaryHeap<Reverse<u32>> = (0..n as u32)
        .filter(|&e| indegree[e as usize] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(e)) = ready.pop() {
        order.push(ev.ops[e as usize].0);
        for &b in adj.row(e) {
            indegree[b as usize] -= 1;
            if indegree[b as usize] == 0 {
                ready.push(Reverse(b));
            }
        }
    }
    assert_eq!(order.len(), n, "accepted witness relations are acyclic");
    Schedule::from_refs(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::{
        check_model_schedule, events, spec, ModelId, ARM_DOB_SPEC, COHERENCE_SPEC, PSO_SPEC,
        RA_SPEC, SC_SPEC, TSO_SPEC,
    };
    use vermem_trace::{ScheduleError, TraceBuilder};
    use vermem_util::rng::StdRng;

    /// W(x)1 ; R(x)1 across two procs: the unique witness is valid.
    #[test]
    fn trivial_witness_checks_out() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::read(0u32, 1u64)])
            .build();
        let w = Witness {
            rf: vec![None, Some(RfCand::From(0))],
            mo: vec![vec![0]],
        };
        assert_eq!(check_witness(&t, &SC_SPEC, &w), Ok(()));
        assert_eq!(check_witness(&t, &RA_SPEC, &w), Ok(()));
        assert_eq!(check_witness(&t, &ARM_DOB_SPEC, &w), Ok(()));
    }

    /// CoWW: reversing same-process stores in `mo` breaks every spec's
    /// per-location axiom.
    #[test]
    fn coww_reversal_is_rejected_everywhere() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(0u32, 2u64)])
            .build();
        let good = Witness {
            rf: vec![None, None],
            mo: vec![vec![0, 1]],
        };
        let bad = Witness {
            rf: vec![None, None],
            mo: vec![vec![1, 0]],
        };
        for spec in [&SC_SPEC, &RA_SPEC, &ARM_DOB_SPEC] {
            assert_eq!(check_witness(&t, spec, &good), Ok(()), "{}", spec.name);
            assert!(check_witness(&t, spec, &bad).is_err(), "{}", spec.name);
        }
    }

    /// An intervening write between an RMW's writer and the RMW violates
    /// atomicity.
    #[test]
    fn rmw_atomicity_is_enforced() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(0u32, 5u64)])
            .proc([Op::rmw(0u32, 1u64, 2u64)])
            .build();
        let adjacent = Witness {
            rf: vec![None, None, Some(RfCand::From(0))],
            mo: vec![vec![0, 2, 1]],
        };
        let split = Witness {
            rf: vec![None, None, Some(RfCand::From(0))],
            mo: vec![vec![0, 1, 2]],
        };
        assert_eq!(check_witness(&t, &SC_SPEC, &adjacent), Ok(()));
        // The split is a cycle under the first listed axiom too (fr ∪ mo),
        // so the diagnostic names whichever fires first; what matters is
        // rejection under every spec...
        assert!(check_witness(&t, &SC_SPEC, &split).is_err());
        assert!(check_witness(&t, &RA_SPEC, &split).is_err());
        // ...and that the atomicity axiom alone already has teeth.
        let atomicity_only = ModelSpec {
            axioms: &[crate::axiom::ATOMICITY],
            ..SC_SPEC
        };
        assert_eq!(check_witness(&t, &atomicity_only, &adjacent), Ok(()));
        assert_eq!(
            check_witness(&t, &atomicity_only, &split),
            Err("rmw-atomicity")
        );
    }

    /// Partial witnesses refute monotonically: a CoRR-style contradiction
    /// is already infeasible before the second read is decided.
    #[test]
    fn partial_refutation_is_sound_and_early() {
        // P0: W(x)1, W(x)2 ; P1: R(x)2, R(x)1 — reads contradict mo.
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(0u32, 2u64)])
            .proc([Op::read(0u32, 2u64), Op::read(0u32, 1u64)])
            .build();
        let ev = events(&t);
        let refuted = |spec: &ModelSpec, w: &Witness| violated_axiom(spec, &ev, w).is_some();
        let mut w = Witness::empty(ev.len(), 1);
        w.mo[0] = vec![0, 1];
        w.rf[2] = Some(RfCand::From(1));
        assert!(!refuted(&SC_SPEC, &w));
        // Deciding the second read closes the cycle under every spec.
        w.rf[3] = Some(RfCand::From(0));
        assert!(refuted(&SC_SPEC, &w));
        assert!(refuted(&RA_SPEC, &w));
        assert!(refuted(&ARM_DOB_SPEC, &w));
    }

    const ALL_RELS: [Rel; 10] = [
        Rel::Po,
        Rel::PoLoc,
        Rel::Ppo,
        Rel::Dob,
        Rel::Rf,
        Rel::Rfe,
        Rel::Mo,
        Rel::Moe,
        Rel::Fr,
        Rel::Fre,
    ];

    /// The six declared specs plus one-axiom specs that put every
    /// relation, paired with every other, in an acyclic union, an
    /// `IrreflexiveSeq` head and an `IrreflexiveSeq` closure — so every
    /// reduction meets every neighbour it could interact with — and each
    /// relation alone as the head of the closure over all of them, so that
    /// only the closure, walked backwards as well as forwards, can carry
    /// the rest of a cycle.
    fn plan_specs() -> Vec<ModelSpec> {
        let mut kinds: Vec<AxiomKind> = vec![
            AxiomKind::Acyclic(&ALL_RELS),
            AxiomKind::IrreflexiveSeq {
                head: &ALL_RELS,
                closure: &ALL_RELS,
            },
        ];
        for i in 0..ALL_RELS.len() {
            kinds.push(AxiomKind::IrreflexiveSeq {
                head: &ALL_RELS[i..=i],
                closure: &ALL_RELS,
            });
            for j in 0..ALL_RELS.len() {
                kinds.push(AxiomKind::Acyclic(Box::leak(Box::new([
                    ALL_RELS[i],
                    ALL_RELS[j],
                ]))));
                kinds.push(AxiomKind::IrreflexiveSeq {
                    head: &ALL_RELS[i..=i],
                    closure: &ALL_RELS[j..=j],
                });
            }
        }
        let synthetic = kinds.into_iter().map(|kind| ModelSpec {
            name: "synthetic",
            axioms: Box::leak(Box::new([Axiom {
                name: "synthetic",
                kind,
            }])),
            ..TSO_SPEC
        });
        ModelId::ALL
            .map(|id| *spec(id))
            .into_iter()
            .chain(synthetic)
            .collect()
    }

    /// Random trace: at most 3 processes, 6 operations, 2 addresses and
    /// 3 values, RMWs included.
    fn arb_trace(rng: &mut StdRng, size: usize) -> Trace {
        let procs = rng.gen_range(1..=3usize);
        let mut per_proc: Vec<Vec<Op>> = vec![Vec::new(); procs];
        for _ in 0..rng.gen_range(0..=size.min(6)) {
            let a = rng.gen_range(0..2u32);
            let v = rng.gen_range(0..3u64);
            let op = match rng.gen_range(0..3u8) {
                0 => Op::read(a, v),
                1 => Op::write(a, v),
                _ => Op::rmw(a, v, rng.gen_range(0..3u64)),
            };
            per_proc[rng.gen_range(0..procs)].push(op);
        }
        per_proc
            .into_iter()
            .fold(TraceBuilder::new(), |b, ops| b.proc(ops))
            .build()
    }

    /// Random complete witness: each read decided from its `rf`
    /// candidates, each address's `mo` a random arrangement of its writes.
    fn arb_witness(rng: &mut StdRng, ev: &Events) -> Witness {
        let mut w = Witness::empty(ev.len(), ev.writes_by_slot.len());
        for (e, cands) in ev.candidates.iter().enumerate() {
            if !cands.is_empty() {
                w.rf[e] = Some(cands[rng.gen_range(0..cands.len())]);
            }
        }
        for (order, writes) in w.mo.iter_mut().zip(&ev.writes_by_slot) {
            for &x in writes {
                order.insert(rng.gen_range(0..=order.len()), x);
            }
        }
        w
    }

    /// One step of a random decision path: decide the next event (its
    /// `rf` choice and `mo` slot picked modulo the options), or undo the
    /// last `k` decisions.
    #[derive(Clone, Copy, Debug)]
    enum PathStep {
        Decide(u32, u32),
        Undo(u8),
    }

    /// Replays random decision paths in event-id order, as the graph
    /// machine makes them, undoing and redoing along the way. At every
    /// step whose parent satisfies every axiom, the incremental answer
    /// equals the reference evaluator's, under the declared specs and the
    /// synthetic ones; and the links kept
    /// decision by decision equal the links rebuilt from the witness.
    #[test]
    fn incremental_checks_match_whole_witness_checks() {
        use vermem_util::prop::PropConfig;
        use vermem_util::{prop_assert_eq, prop_check};
        let specs = plan_specs();
        let (mut compared, mut violated) = (0u64, 0u64);
        // A reader decided before its writer, an RMW placed before its
        // writer, a read-from-initial re-targeted by a write placed first.
        let (mut reader_first, mut rmw_first, mut init_retargeted) = (0u64, 0u64, 0u64);
        let cfg = PropConfig::with_cases(1000).max_size(6);
        prop_check!(
            cfg,
            |rng, size| {
                let trace = arb_trace(rng, size);
                let path: Vec<PathStep> = (0..24)
                    .map(|_| match rng.gen_range(0..5u8) {
                        0 => PathStep::Undo(rng.gen_range(1..=3u8)),
                        _ => PathStep::Decide(rng.next_u32(), rng.next_u32()),
                    })
                    .collect();
                (trace, path)
            },
            |(trace, path): &(Trace, Vec<PathStep>)| {
                let ev = events(trace);
                let plans: Vec<AxiomPlan> = specs.iter().map(|s| AxiomPlan::new(s, &ev)).collect();
                let mut w = Witness::empty(ev.len(), ev.writes_by_slot.len());
                let mut links = Links::of(&ev, &w);
                // Per decided depth: the `mo` slot taken, and which specs
                // the state satisfies (the root satisfies all).
                let mut decided: Vec<Option<usize>> = Vec::new();
                let mut clean: Vec<Vec<bool>> = vec![vec![true; specs.len()]];
                for &step in path {
                    let e = decided.len();
                    let (op, cands) = match ev.ops.get(e) {
                        Some(&(_, op)) => (Some(op), &ev.candidates[e][..]),
                        None => (None, &[][..]),
                    };
                    // Past the last event, or at a read with no candidate,
                    // a decision step backs up one event instead.
                    let op = op.filter(|op| !op.is_reading() || !cands.is_empty());
                    let step = match (step, op) {
                        (PathStep::Decide(..), None) => PathStep::Undo(1),
                        _ => step,
                    };
                    match step {
                        PathStep::Undo(k) => {
                            for _ in 0..k.min(e as u8) {
                                let e = decided.len() as u32 - 1;
                                links.retract(&ev, &w, e);
                                if let Some(pos) = decided.pop().expect("non-empty") {
                                    w.mo[ev.slot_of[e as usize] as usize].remove(pos);
                                }
                                w.rf[e as usize] = None;
                                clean.pop();
                            }
                        }
                        PathStep::Decide(pick_rf, pick_mo) => {
                            let op = op.expect("decidable");
                            let slot = ev.slot_of[e] as usize;
                            if op.is_reading() {
                                w.rf[e] = Some(cands[pick_rf as usize % cands.len()]);
                            }
                            let pos = op.is_writing().then(|| {
                                let pos = pick_mo as usize % (w.mo[slot].len() + 1);
                                w.mo[slot].insert(pos, e as u32);
                                pos
                            });
                            links.decide(&ev, &w, e as u32);
                            decided.push(pos);
                            let mut readers = links.readers(e as u32).peekable();
                            reader_first += u64::from(readers.peek().is_some());
                            rmw_first +=
                                u64::from(readers.any(|r| ev.ops[r as usize].1.is_writing()));
                            init_retargeted +=
                                u64::from(pos == Some(0) && links.init_readers[slot] != NONE);
                            let mut row = vec![false; specs.len()];
                            for (i, (spec, plan)) in specs.iter().zip(&plans).enumerate() {
                                if !clean[e][i] {
                                    continue;
                                }
                                let expected = violated_axiom(spec, &ev, &w);
                                let got = plan.violated_after(&ev, &w, &links, e as u32);
                                prop_assert_eq!(
                                    got,
                                    expected,
                                    "{} after event {e} on {w:?}",
                                    spec.name
                                );
                                compared += 1;
                                violated += u64::from(expected.is_some());
                                row[i] = expected.is_none();
                            }
                            clean.push(row);
                        }
                    }
                    prop_assert_eq!(&links, &Links::of(&ev, &w), "links drifted on {w:?}");
                }
                Ok(())
            }
        );
        assert!(
            compared > 500_000 && violated > 10_000,
            "{compared} compared, {violated} violated"
        );
        assert!(
            reader_first > 100 && rmw_first > 50 && init_retargeted > 400,
            "{reader_first} readers first, {rmw_first} RMWs first, \
             {init_retargeted} initial reads re-targeted"
        );
    }

    /// Every complete witness of `ev`: each read's every `rf` candidate
    /// times each slot's every `mo` arrangement.
    fn all_witnesses(ev: &Events) -> Vec<Witness> {
        let mut out = vec![Witness::empty(ev.len(), ev.writes_by_slot.len())];
        for (e, cands) in ev.candidates.iter().enumerate() {
            if cands.is_empty() {
                continue;
            }
            out = out
                .iter()
                .flat_map(|w| {
                    cands.iter().map(move |&c| {
                        let mut w = w.clone();
                        w.rf[e] = Some(c);
                        w
                    })
                })
                .collect();
        }
        for (slot, writes) in ev.writes_by_slot.iter().enumerate() {
            for &x in writes {
                out = out
                    .iter()
                    .flat_map(|w| {
                        (0..=w.mo[slot].len()).map(move |i| {
                            let mut w = w.clone();
                            w.mo[slot].insert(i, x);
                            w
                        })
                    })
                    .collect();
            }
        }
        out
    }

    /// How often the one sort decided, and how often it fell through to
    /// a violated axiom or to none.
    #[derive(Default, Debug)]
    struct Branches {
        sorted: u64,
        violated: u64,
        cycle_allowed: u64,
    }

    /// [`violated_axiom`] answers as [`axiom_by_axiom`] does on `w` under
    /// `spec`; `b` counts which branch the answer came from.
    fn sort_agrees(spec: &ModelSpec, ev: &Events, w: &Witness, b: &mut Branches) -> bool {
        let expected = axiom_by_axiom(spec, ev, w);
        match (union_acyclic(spec, ev, w), expected) {
            (true, _) => b.sorted += 1,
            (false, Some(_)) => b.violated += 1,
            (false, None) => b.cycle_allowed += 1,
        }
        violated_axiom(spec, ev, w) == expected
    }

    /// On every 3-op small-scope trace and every complete witness of it,
    /// the one sort never changes the evaluator's answer, and each branch
    /// is taken. The specs are the six declared ones and the synthetic
    /// ones that mention every relation (all 218 specs would take over a
    /// minute in a debug build; the random test below runs them all).
    #[test]
    fn one_sort_equals_axiom_by_axiom_on_the_three_op_space() {
        use vermem_trace::gen::{small_traces, SmallScope};
        let specs: Vec<ModelSpec> = plan_specs()
            .into_iter()
            .filter(|s| {
                s.name != "synthetic"
                    || match s.axioms[0].kind {
                        AxiomKind::Acyclic(rels) => rels.len(),
                        AxiomKind::IrreflexiveSeq { head, closure } => head.len() + closure.len(),
                    } >= ALL_RELS.len()
            })
            .collect();
        assert_eq!(specs.len(), 18);
        let (mut traces, mut witnesses, mut b) = (0u64, 0u64, Branches::default());
        let scope = SmallScope {
            max_ops: 3,
            addrs: 2,
            values: 3,
        };
        small_traces(&scope, |t| {
            traces += 1;
            let ev = events(t);
            for w in all_witnesses(&ev) {
                witnesses += 1;
                for spec in &specs {
                    assert!(
                        sort_agrees(spec, &ev, &w, &mut b),
                        "{}: {w:?} on {t:?}",
                        spec.name
                    );
                }
            }
        });
        assert_eq!((traces, witnesses), (15_255, 48_754));
        assert_eq!(
            (b.sorted, b.violated, b.cycle_allowed),
            (258_894, 495_306, 123_372)
        );
    }

    /// The same on random traces of up to six operations, on complete
    /// witnesses and on partial ones (reads undecided, writes left out of
    /// `mo`), as the graph machine's debug-build cross-check meets them.
    #[test]
    fn one_sort_equals_axiom_by_axiom_on_random_partial_witnesses() {
        use vermem_util::prop::PropConfig;
        use vermem_util::{prop_assert, prop_check};
        let specs = plan_specs();
        let mut b = Branches::default();
        let cfg = PropConfig::with_cases(1000).max_size(6);
        prop_check!(
            cfg,
            |rng, size| {
                let trace = arb_trace(rng, size);
                let ev = events(&trace);
                let mut w = arb_witness(rng, &ev);
                if rng.gen_range(0..2u8) == 0 {
                    for rf in &mut w.rf {
                        if rng.gen_range(0..3u8) == 0 {
                            *rf = None;
                        }
                    }
                    for order in &mut w.mo {
                        order.retain(|_| rng.gen_range(0..3u8) != 0);
                    }
                }
                (trace, w)
            },
            |(trace, w): &(Trace, Witness)| {
                let ev = events(trace);
                for spec in &specs {
                    prop_assert!(sort_agrees(spec, &ev, w, &mut b), "{}: {w:?}", spec.name);
                }
                Ok(())
            }
        );
        assert!(
            b.sorted > 20_000 && b.violated > 2_000 && b.cycle_allowed > 2_000,
            "{b:?}"
        );
    }

    /// The derived schedule for serializing specs is a genuine
    /// serialization witness.
    #[test]
    fn witness_schedule_serializes_for_sc() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 1u64)])
            .build();
        let ev = events(&t);
        let w = Witness {
            rf: vec![None, None, Some(RfCand::From(1)), Some(RfCand::From(0))],
            mo: vec![vec![0], vec![1]],
        };
        assert_eq!(check_witness_ev(&SC_SPEC, &ev, &w), Ok(()));
        let sched = witness_schedule(&SC_SPEC, &ev, &w);
        assert!(vermem_trace::check_sc_schedule(&t, &sched).is_ok());
    }

    /// The quadratic schedule derivation [`witness_schedule`] replaced:
    /// every edge of every relation, deduplicated, and a linear scan for
    /// the least ready event at each Kahn step.
    fn witness_schedule_reference(spec: &ModelSpec, ev: &Events, w: &Witness) -> Schedule {
        let n = ev.len();
        let rels: &[Rel] = if spec_serializes(spec) {
            &[Rel::Ppo, Rel::Rf, Rel::Mo, Rel::Fr]
        } else {
            &[Rel::Po, Rel::Rf]
        };
        let edges = union_edges(rels, spec, ev, w);
        let mut indegree = vec![0u32; n];
        let mut adj = vec![Vec::new(); n];
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &edges {
            if seen.insert((a, b)) {
                indegree[b as usize] += 1;
                adj[a as usize].push(b);
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<bool> = indegree.iter().map(|&d| d == 0).collect();
        for _ in 0..n {
            let e = (0..n)
                .find(|&e| ready[e])
                .expect("accepted witness relations are acyclic");
            ready[e] = false;
            order.push(ev.ops[e].0);
            for &b in &adj[e] {
                indegree[b as usize] -= 1;
                if indegree[b as usize] == 0 {
                    ready[b as usize] = true;
                }
            }
        }
        Schedule::from_refs(order)
    }

    /// The reduced-edge, heap-driven schedule is the one the quadratic
    /// derivation gives, on random witnesses each declared spec accepts.
    #[test]
    fn witness_schedule_matches_quadratic_reference() {
        use vermem_util::prop::PropConfig;
        use vermem_util::{prop_assert_eq, prop_check};
        let specs: Vec<&ModelSpec> = ModelId::ALL.iter().map(|&id| spec(id)).collect();
        let mut accepted = vec![0u64; specs.len()];
        let cfg = PropConfig::with_cases(1000);
        prop_check!(
            cfg,
            |rng, _size| {
                // 2-3 processes of 2-4 operations over 2 addresses: the
                // store-buffering and message-passing shapes that separate
                // the declared specs.
                let procs = rng.gen_range(2..=3usize);
                let trace = (0..procs)
                    .fold(TraceBuilder::new(), |b, _| {
                        b.proc((0..rng.gen_range(2..=4)).map(|_| {
                            let (a, v) = (rng.gen_range(0..2u32), rng.gen_range(0..2u64));
                            match rng.gen_range(0..8u8) {
                                0..=3 => Op::read(a, v),
                                4..=6 => Op::write(a, v),
                                _ => Op::rmw(a, v, rng.gen_range(0..2u64)),
                            }
                        }))
                    })
                    .build();
                let ev = events(&trace);
                let witnesses: Vec<Witness> = (0..16).map(|_| arb_witness(rng, &ev)).collect();
                (trace, witnesses)
            },
            |(trace, witnesses): &(Trace, Vec<Witness>)| {
                let ev = events(trace);
                for (spec, count) in specs.iter().zip(accepted.iter_mut()) {
                    for w in witnesses {
                        if check_witness_ev(spec, &ev, w).is_err() {
                            continue;
                        }
                        *count += 1;
                        prop_assert_eq!(
                            witness_schedule(spec, &ev, w),
                            witness_schedule_reference(spec, &ev, w),
                            "{} on {w:?}",
                            spec.name
                        );
                    }
                }
                Ok(())
            }
        );
        for (spec, &n) in specs.iter().zip(&accepted) {
            assert!(
                n >= 500,
                "{}: only {n} accepted witnesses compared",
                spec.name
            );
        }
    }

    fn sched(pairs: &[(u16, u32)]) -> Schedule {
        pairs.iter().map(|&(p, i)| OpRef::new(p, i)).collect()
    }

    #[test]
    fn same_address_always_preserved() {
        let w = Op::write(0u32, 1u64);
        let r = Op::read(0u32, 1u64);
        for id in ModelId::ALL {
            assert!(preserves(spec(id), w, r), "{}", id.name());
            assert!(preserves(spec(id), r, w), "{}", id.name());
        }
    }

    #[test]
    fn tso_table_relaxes_only_store_load() {
        let w = Op::write(0u32, 1u64);
        let r = Op::read(1u32, 0u64);
        let w2 = Op::write(1u32, 1u64);
        let rmw = Op::rmw(1u32, 0u64, 1u64);
        assert!(!preserves(&TSO_SPEC, w, r)); // W→R relaxed
        assert!(preserves(&TSO_SPEC, w, w2)); // W→W kept
        assert!(preserves(&TSO_SPEC, r, w)); // R→W kept
        assert!(preserves(&TSO_SPEC, w, rmw)); // W→RMW kept
        assert!(preserves(&TSO_SPEC, rmw, r)); // RMW→R kept
    }

    #[test]
    fn pso_table_also_relaxes_store_store() {
        let w = Op::write(0u32, 1u64);
        let w2 = Op::write(1u32, 1u64);
        let r = Op::read(1u32, 0u64);
        let rmw = Op::rmw(1u32, 0u64, 1u64);
        assert!(!preserves(&PSO_SPEC, w, w2));
        assert!(!preserves(&PSO_SPEC, w, r));
        assert!(preserves(&PSO_SPEC, r, w)); // loads still order
        assert!(preserves(&PSO_SPEC, w, rmw)); // RMW orders
    }

    #[test]
    fn coherence_table_keeps_nothing_cross_address() {
        let r1 = Op::read(0u32, 0u64);
        let r2 = Op::read(1u32, 0u64);
        assert!(!preserves(&COHERENCE_SPEC, r1, r2));
    }

    /// SC ⊇ TSO ⊇ PSO ⊇ coherence-only, entry by entry: each serialization
    /// model preserves a subset of the stronger one's pairs, so it allows
    /// at least the stronger model's behaviours.
    #[test]
    fn ppo_tables_weaken_monotonically() {
        for pair in ModelId::SERIALIZING.windows(2) {
            let (strong, weak) = (spec(pair[0]), spec(pair[1]));
            for x in 0..3 {
                for y in 0..3 {
                    assert!(
                        strong.ppo_cross[x][y] || !weak.ppo_cross[x][y],
                        "{} preserves [{x}][{y}] but {} does not",
                        weak.name,
                        strong.name
                    );
                }
            }
            assert_ne!(strong.ppo_cross, weak.ppo_cross, "{}", weak.name);
        }
    }

    #[test]
    fn model_schedule_checker_sc_matches_trace_checker() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 1u64)])
            .build();
        let good = sched(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(check_model_schedule(&t, ModelId::Sc, &good).is_ok());
        assert!(vermem_trace::check_sc_schedule(&t, &good).is_ok());
    }

    #[test]
    fn store_buffering_schedule_valid_under_tso_not_sc() {
        // SB: P0: W(x,1) R(y,0); P1: W(y,1) R(x,0).
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        // Reads first (bypassing the writes), then writes.
        let s = sched(&[(0, 1), (1, 1), (0, 0), (1, 0)]);
        assert!(check_model_schedule(&t, ModelId::Tso, &s).is_ok());
        let err = check_model_schedule(&t, ModelId::Sc, &s).unwrap_err();
        assert!(matches!(err, ScheduleError::ProgramOrder { .. }));
    }

    #[test]
    fn value_rules_still_apply_under_weak_models() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::read(0u32, 9u64)])
            .build();
        let s = sched(&[(0, 0), (1, 0)]);
        let err = check_model_schedule(&t, ModelId::CoherenceOnly, &s).unwrap_err();
        assert!(matches!(err, ScheduleError::ReadValue { .. }));
    }

    #[test]
    fn completeness_checked() {
        let t = TraceBuilder::new().proc([Op::w(1u64), Op::r(1u64)]).build();
        let s = sched(&[(0, 0)]);
        assert!(matches!(
            check_model_schedule(&t, ModelId::Sc, &s),
            Err(ScheduleError::MissingOps { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "not a single-serialization model")]
    fn schedule_checker_rejects_non_serializing_models() {
        let t = TraceBuilder::new().proc([Op::w(1u64)]).build();
        let _ = check_model_schedule(&t, ModelId::Ra, &sched(&[(0, 0)]));
    }
}
