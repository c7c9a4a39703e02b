//! Online (streaming) coherence checking — the hardware error detector the
//! paper's introduction motivates, made possible by the §5.2 observation
//! that verification is polynomial when the memory system supplies its
//! write order.
//!
//! The checker consumes the machine's event stream *as it executes*:
//! writes in per-address commit order, and reads/RMWs in program order per
//! process (the stream any write-invalidate memory system can produce, cf.
//! Qadeer's logical-order-equals-temporal-order observation cited in §2).
//! It maintains, per address, the committed value sequence ("slots") and a
//! per-process placement cursor, and places each read greedily at the
//! earliest feasible slot — exactly the §5.2 insertion algorithm run
//! incrementally:
//!
//! * a read matching an existing slot within its window is placed in O(log
//!   n);
//! * a read with no feasible slot *yet* is deferred (its serving write may
//!   commit later);
//! * a deferred read's window closes when its process commits its next
//!   write to that address — if it is still unplaced, a violation is
//!   reported at that very event, pinpointing detection latency;
//! * [`OnlineVerifier::finish`] flushes still-deferred reads as violations.
//!
//! The per-address monitor (`PlacementMonitor`) is the one the streaming
//! engine ([`crate::stream`]) runs as its per-address summary, so
//! [`OnlineVerifier`] and `vermem serve` detect the same violations. The
//! verdict is identical to running [`crate::solve_with_write_order`]
//! offline on the captured trace (`tests/online.rs` checks both claims on
//! simulator captures), but violations surface *during* execution.

use std::collections::VecDeque;
use vermem_trace::{Addr, Op, ProcId, Value};
use vermem_util::densemap::{Arena, DenseMap, Slab};
use vermem_util::obs;

/// A violation reported by the online checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineViolation {
    /// Index (in the event stream) at which the violation became certain.
    pub detected_at: u64,
    /// Index at which the offending operation was observed (for deferred
    /// reads this precedes `detected_at`; the gap is the detection latency).
    pub issued_at: u64,
    /// The process whose read cannot be served.
    pub proc: ProcId,
    /// The address involved.
    pub addr: Addr,
    /// The unservable observed value.
    pub value: Value,
    /// Human-readable cause.
    pub cause: OnlineCause,
}

impl OnlineViolation {
    /// The report order: detection, then issue, address and process. No
    /// two violations of one stream share a key.
    pub(crate) fn order_key(&self) -> (u64, u64, u32, u16) {
        (self.detected_at, self.issued_at, self.addr.0, self.proc.0)
    }
}

/// Why the online checker flagged an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnlineCause {
    /// An RMW's read component did not match the last committed value.
    RmwMismatch,
    /// A deferred read's window closed (its process committed a newer
    /// write) while the read was still unservable.
    WindowClosed,
    /// The stream ended with the read still unservable.
    EndOfStream,
}

/// A deferred read waiting for its serving write to commit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingRead {
    pub(crate) proc: ProcId,
    pub(crate) value: Value,
    pub(crate) issued_at: u64,
    /// Obs-clock microseconds at issue; `0` unless the caller asked for
    /// timestamps.
    pub(crate) issued_us: u64,
}

/// Cursor sentinel: the process has not placed a read or committed a write
/// yet. Slots count committed writes, so a real cursor never reaches it.
const NO_CURSOR: usize = usize::MAX;

/// The greedy §5.2 placement monitor of one address.
///
/// Slot `s` (over `0..=slots_len`) denotes "after `s` writes": slot 0
/// carries the initial value. Each value keeps the ascending list of live
/// slots at which it is current; a read places at the earliest such slot at
/// or after its process's cursor. Cursors use *presence* semantics — a
/// process has none until its first placed read or own write — and the
/// per-process tables grow on a process's first event.
///
/// Slots below every present cursor can be retired
/// ([`PlacementMonitor::retire_slots`]); the streaming engine does so to
/// bound memory, [`OnlineVerifier`] never does.
pub(crate) struct PlacementMonitor {
    initial: Value,
    /// Committed writes so far.
    slots_len: usize,
    /// Lowest slot still live; slots below were retired.
    live_from: usize,
    /// Values of the live slots `max(1, live_from)..=slots_len`.
    live_values: VecDeque<Value>,
    /// Value of the most recent committed write.
    last_value: Option<Value>,
    /// `value → index into `buckets``.
    slot_lists: DenseMap<u64, u32>,
    /// The sorted live-slot list of each value with live slots.
    buckets: Slab<VecDeque<usize>>,
    /// Emptied bucket lists, shelved with their capacity for reuse.
    bucket_arena: Arena<VecDeque<usize>>,
    /// Per-process cursor, [`NO_CURSOR`] = absent.
    cursors: Vec<usize>,
    /// Per-process deferred reads, in program order.
    deferred: Vec<Vec<PendingRead>>,
    pending_total: usize,
    /// Reusable scratch for the per-write deferred-read retry loop.
    retry_procs: Vec<u16>,
}

impl PlacementMonitor {
    /// A fresh monitor sized for `procs` processes, with `initial` current
    /// at slot 0.
    pub(crate) fn new(procs: usize, initial: Value) -> Self {
        let mut m = PlacementMonitor {
            initial,
            slots_len: 0,
            live_from: 0,
            live_values: VecDeque::new(),
            last_value: None,
            slot_lists: DenseMap::new(),
            buckets: Slab::new(),
            bucket_arena: Arena::new(),
            cursors: vec![NO_CURSOR; procs],
            deferred: vec![Vec::new(); procs],
            pending_total: 0,
            retry_procs: Vec::new(),
        };
        m.commit_slot(initial, 0);
        m
    }

    /// The address's initial value.
    pub(crate) fn initial(&self) -> Value {
        self.initial
    }

    /// The value of the last committed write (the initial value before
    /// any).
    pub(crate) fn current_value(&self) -> Value {
        self.last_value.unwrap_or(self.initial)
    }

    /// Deferred reads still waiting for a serving write.
    pub(crate) fn pending_total(&self) -> usize {
        self.pending_total
    }

    /// Committed slots above the lowest live one: the monitor's share of
    /// the stream engine's retained footprint.
    pub(crate) fn live_slots(&self) -> usize {
        self.slots_len - self.live_from
    }

    /// Feed the next event at `addr`: `proc` executed/committed `op`.
    /// Every violation it surfaces goes to `report` with its issue
    /// timestamp, which is read from the obs clock only when `clock` is
    /// set.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        seq: u64,
        addr: Addr,
        proc: ProcId,
        op: Op,
        clock: bool,
        report: &mut impl FnMut(OnlineViolation, u64),
    ) {
        let p = usize::from(proc.0);
        if p >= self.cursors.len() {
            self.cursors.resize(p + 1, NO_CURSOR);
            self.deferred.resize_with(p + 1, Vec::new);
        }
        match op {
            Op::Read { value, .. } => self.on_read(seq, proc, value, clock),
            Op::Write { value, .. } => self.on_write(seq, addr, proc, value, report),
            Op::Rmw { read, write, .. } => {
                // Close the writer's window first, so every report of this
                // event comes out in `order_key` order (closed reads were
                // issued earlier). The read component binds to the
                // immediately preceding committed value.
                self.close_window(seq, addr, proc, report);
                if self.current_value() != read {
                    report(
                        OnlineViolation {
                            detected_at: seq,
                            issued_at: seq,
                            proc,
                            addr,
                            value: read,
                            cause: OnlineCause::RmwMismatch,
                        },
                        if clock { obs::now_us() } else { 0 },
                    );
                }
                self.on_write(seq, addr, proc, write, report);
            }
        }
    }

    #[inline]
    fn on_read(&mut self, seq: u64, proc: ProcId, value: Value, clock: bool) {
        let p = usize::from(proc.0);
        // A read behind an already-deferred one keeps program order; a
        // placeable read moves its cursor.
        if self.deferred[p].is_empty() {
            let min = self.cursor(p).unwrap_or(0);
            if let Some(slot) = self.place(value, min) {
                self.cursors[p] = slot;
                return;
            }
        }
        // The issue timestamp is only needed for latency accounting on
        // reads that actually defer — keep the clock off the hot path.
        self.deferred[p].push(PendingRead {
            proc,
            value,
            issued_at: seq,
            issued_us: if clock { obs::now_us() } else { 0 },
        });
        self.pending_total += 1;
    }

    /// `proc` is about to commit a write: its own deferred reads' windows
    /// close now, and they can never be served.
    fn close_window(
        &mut self,
        seq: u64,
        addr: Addr,
        proc: ProcId,
        report: &mut impl FnMut(OnlineViolation, u64),
    ) {
        let p = usize::from(proc.0);
        if !self.deferred[p].is_empty() {
            self.pending_total -= self.deferred[p].len();
            for stale in self.deferred[p].drain(..) {
                report(
                    OnlineViolation {
                        detected_at: seq,
                        issued_at: stale.issued_at,
                        proc: stale.proc,
                        addr,
                        value: stale.value,
                        cause: OnlineCause::WindowClosed,
                    },
                    stale.issued_us,
                );
            }
        }
    }

    fn on_write(
        &mut self,
        seq: u64,
        addr: Addr,
        proc: ProcId,
        value: Value,
        report: &mut impl FnMut(OnlineViolation, u64),
    ) {
        let p = usize::from(proc.0);
        self.close_window(seq, addr, proc, report);

        // Commit the write as a new slot; the writer's later reads must
        // observe it or newer.
        let slot = self.slots_len + 1;
        self.slots_len = slot;
        self.live_values.push_back(value);
        self.commit_slot(value, slot);
        self.last_value = Some(value);
        self.cursors[p] = self.cursor(p).unwrap_or(0).max(slot);

        // Retry deferred reads of every process, in program order, stopping
        // at the first that still cannot be placed. Each retry touches only
        // its own process's cursor, so the process order cannot affect the
        // outcome.
        if self.pending_total == 0 {
            return;
        }
        let mut retry = std::mem::take(&mut self.retry_procs);
        retry.clear();
        retry.extend(
            (0..self.deferred.len())
                .filter(|&q| !self.deferred[q].is_empty())
                .map(|q| q as u16),
        );
        for &q in &retry {
            let q = usize::from(q);
            let mut min = self.cursor(q).unwrap_or(0);
            let mut placed = 0;
            for pr in &self.deferred[q] {
                match self.place(pr.value, min) {
                    Some(slot) => {
                        min = slot;
                        placed += 1;
                    }
                    None => break,
                }
            }
            if placed > 0 {
                self.cursors[q] = min;
                self.deferred[q].drain(..placed);
                self.pending_total -= placed;
            }
        }
        self.retry_procs = retry;
    }

    /// End of stream: every still-deferred read is a violation detected at
    /// `end`. Appends them to `out` with their issue timestamps, processes
    /// ascending and each queue in program order.
    pub(crate) fn end_of_stream(
        &mut self,
        end: u64,
        addr: Addr,
        out: &mut Vec<(OnlineViolation, u64)>,
    ) {
        for queue in &mut self.deferred {
            out.extend(queue.drain(..).map(|pr| {
                (
                    OnlineViolation {
                        detected_at: end,
                        issued_at: pr.issued_at,
                        proc: pr.proc,
                        addr,
                        value: pr.value,
                        cause: OnlineCause::EndOfStream,
                    },
                    pr.issued_us,
                )
            }));
        }
        self.pending_total = 0;
    }

    /// Once more than `window` committed slots are live, retire every slot
    /// below every present cursor: none of them can serve a later read of a
    /// process this address has seen. Returns the number retired.
    pub(crate) fn retire_slots(&mut self, window: usize) -> u64 {
        if self.live_slots() <= window {
            return 0;
        }
        let floor = self
            .cursors
            .iter()
            .copied()
            .filter(|&c| c != NO_CURSOR)
            .min()
            .unwrap_or(0);
        let mut retired = 0;
        while self.live_from < floor {
            let value = if self.live_from == 0 {
                self.initial
            } else {
                self.live_values.pop_front().expect("live slot value")
            };
            self.retire_slot(value, self.live_from);
            self.live_from += 1;
            retired += 1;
        }
        retired
    }

    #[inline]
    fn cursor(&self, p: usize) -> Option<usize> {
        let c = self.cursors[p];
        (c != NO_CURSOR).then_some(c)
    }

    /// Earliest live slot in `min..=slots_len` where `value` is current.
    #[inline]
    fn place(&self, value: Value, min: usize) -> Option<usize> {
        let &idx = self.slot_lists.get(value.0)?;
        let slots = self.buckets.get(idx).expect("indexed bucket is live");
        let i = slots.partition_point(|&s| s < min);
        slots.get(i).copied().filter(|&s| s <= self.slots_len)
    }

    /// Record that `slot` committed `value` (strictly ascending slots).
    #[inline]
    fn commit_slot(&mut self, value: Value, slot: usize) {
        match self.slot_lists.get(value.0) {
            Some(&idx) => self
                .buckets
                .get_mut(idx)
                .expect("indexed bucket is live")
                .push_back(slot),
            None => {
                let mut bucket = self.bucket_arena.alloc();
                bucket.push_back(slot);
                let idx = self.buckets.insert(bucket);
                self.slot_lists.insert(value.0, idx);
            }
        }
    }

    /// Drop retired `slot` (the lowest live slot) for `value`.
    fn retire_slot(&mut self, value: Value, slot: usize) {
        let Some(&idx) = self.slot_lists.get(value.0) else {
            return;
        };
        let bucket = self.buckets.get_mut(idx).expect("indexed bucket is live");
        debug_assert_eq!(bucket.front().copied(), Some(slot));
        bucket.pop_front();
        if bucket.is_empty() {
            self.slot_lists.remove(value.0);
            let bucket = self.buckets.remove(idx).expect("just emptied");
            self.bucket_arena.free(bucket);
        }
    }
}

/// The streaming verifier. Feed events with [`OnlineVerifier::observe`];
/// call [`OnlineVerifier::finish`] at end of stream.
///
/// ```
/// use vermem_coherence::OnlineVerifier;
/// use vermem_trace::{Op, ProcId};
/// let mut v = OnlineVerifier::new();
/// v.observe(ProcId(0), Op::w(1u64));
/// v.observe(ProcId(1), Op::r(1u64));
/// assert!(v.clean());
/// assert!(v.finish().is_empty());
/// ```
#[derive(Default)]
pub struct OnlineVerifier {
    addrs: DenseMap<u32, PlacementMonitor>,
    /// Declared non-default initial values, read when a location's monitor
    /// is created.
    initial: DenseMap<u32, Value>,
    violations: Vec<OnlineViolation>,
    events: u64,
}

impl OnlineVerifier {
    /// A fresh verifier with all locations initialized to
    /// [`Value::INITIAL`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a non-default initial value for a location (before feeding
    /// events). It takes effect at the location's first event; a location
    /// already observed keeps its state and its initial value.
    pub fn set_initial(&mut self, addr: Addr, value: Value) {
        self.initial.insert(addr.0, value);
    }

    /// Number of events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Violations detected so far, in the report order of
    /// [`OnlineVerifier::finish`].
    pub fn violations(&self) -> &[OnlineViolation] {
        &self.violations
    }

    /// True if no violation has been detected yet.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Feed the next event: `proc` executed/committed `op`. Writes must
    /// arrive in their per-address commit order; reads and RMWs in program
    /// order per process (per address). Returns the number of violations
    /// this event surfaced.
    pub fn observe(&mut self, proc: ProcId, op: Op) -> usize {
        let seq = self.events;
        self.events += 1;
        let before = self.violations.len();
        let addr = op.addr();
        let violations = &mut self.violations;
        let initial = &self.initial;
        self.addrs
            .get_or_insert_with(addr.0, || {
                PlacementMonitor::new(0, initial.get(addr.0).copied().unwrap_or(Value::INITIAL))
            })
            .observe(seq, addr, proc, op, false, &mut |v, _| violations.push(v));
        self.violations.len() - before
    }

    /// End of stream: any still-deferred read is a violation. Returns the
    /// full violation list in the streaming engine's report order:
    /// detection event, then issue event, address and process.
    pub fn finish(mut self) -> Vec<OnlineViolation> {
        let end = self.events;
        let mut stragglers = Vec::new();
        for (addr, monitor) in self.addrs.iter_mut() {
            monitor.end_of_stream(end, Addr(addr), &mut stragglers);
        }
        // Events report in order; only the end-of-stream reads, detected
        // after every event, need sorting.
        stragglers.sort_by_key(|(v, _)| v.order_key());
        self.violations
            .extend(stragglers.into_iter().map(|(v, _)| v));
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn simple_stream_is_clean() {
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(1), Op::r(1u64));
        v.observe(p(0), Op::w(2u64));
        v.observe(p(1), Op::r(2u64));
        assert!(v.clean());
        assert!(v.finish().is_empty());
    }

    #[test]
    fn regression_read_is_flagged() {
        // P1 reads 2 then 1 after the writes committed 1 then 2.
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(0), Op::w(2u64));
        v.observe(p(1), Op::r(2u64));
        assert_eq!(v.observe(p(1), Op::r(1u64)), 0, "deferred, not yet fatal");
        let violations = v.finish();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].cause, OnlineCause::EndOfStream);
        assert_eq!(violations[0].value, Value(1));
    }

    #[test]
    fn deferred_read_served_by_later_write() {
        // The read observes a value committed after it was issued — legal
        // per-address serialization, accepted once the write commits.
        let mut v = OnlineVerifier::new();
        v.observe(p(1), Op::r(7u64)); // deferred
        assert!(v.clean());
        v.observe(p(0), Op::w(7u64));
        assert!(v.clean());
        assert!(v.finish().is_empty());
    }

    #[test]
    fn window_closes_on_own_write() {
        // P1 defers a read of 9, then commits its own write: the read can
        // no longer be served by anything later → flagged at that event.
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(1), Op::r(9u64)); // deferred
        let n = v.observe(p(1), Op::w(2u64));
        assert_eq!(n, 1);
        assert_eq!(v.violations()[0].cause, OnlineCause::WindowClosed);
        assert_eq!(v.violations()[0].detected_at, 2);
    }

    #[test]
    fn rmw_chain_checked_inline() {
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::rw(0u64, 1u64));
        v.observe(p(1), Op::rw(1u64, 2u64));
        assert!(v.clean());
        let n = v.observe(p(0), Op::rw(7u64, 8u64)); // expected 2
        assert_eq!(n, 1);
        assert_eq!(v.violations()[0].cause, OnlineCause::RmwMismatch);
    }

    #[test]
    fn initial_values_respected() {
        let mut v = OnlineVerifier::new();
        v.set_initial(Addr::ZERO, Value(5));
        v.observe(p(0), Op::r(5u64));
        v.observe(p(0), Op::w(1u64));
        v.observe(p(1), Op::r(5u64)); // may still bind to slot 0
        assert!(v.finish().is_empty());
    }

    #[test]
    fn late_set_initial_keeps_deferred_reads() {
        // A read is deferred before the location's initial value is
        // declared; it must still be reported at end of stream.
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(0), Op::w(2u64));
        v.observe(p(1), Op::r(2u64));
        v.observe(p(1), Op::r(1u64)); // deferred forever
        v.set_initial(Addr::ZERO, Value(5));
        let violations = v.finish();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].value, Value(1));
    }

    #[test]
    fn rmw_reports_come_out_in_report_order() {
        // P1 defers a read of 9, then its RMW both closes that read's
        // window and mismatches: the earlier-issued read is reported first.
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(1), Op::r(9u64)); // deferred
        assert_eq!(v.observe(p(1), Op::rw(7u64, 8u64)), 2);
        let causes: Vec<_> = v.violations().iter().map(|x| x.cause).collect();
        assert_eq!(
            causes,
            [OnlineCause::WindowClosed, OnlineCause::RmwMismatch]
        );
        let seen = v.violations().to_vec();
        assert_eq!(v.finish(), seen);
    }

    #[test]
    fn per_process_order_enforced() {
        // P1 reads 2 then 1 while writes commit 1 then 2: the second read's
        // only slot precedes the first read's placement.
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(0), Op::w(2u64));
        v.observe(p(1), Op::r(2u64)); // placed at slot 2
        v.observe(p(1), Op::r(1u64)); // needs slot 1 < 2: deferred forever
        assert_eq!(v.finish().len(), 1);
    }

    #[test]
    fn program_order_preserved_behind_deferred_reads() {
        // P1 defers a read of 5, then issues a read of 1. Even though 1 is
        // already available, it must not be placed before the deferred read.
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::w(1u64));
        v.observe(p(1), Op::r(5u64)); // deferred
        v.observe(p(1), Op::r(1u64)); // queued behind it
        v.observe(p(0), Op::w(5u64));
        // Now 5 is placeable at slot 2 and 1 is NOT placeable at ≥ 2.
        let violations = v.finish();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].value, Value(1));
    }

    #[test]
    fn addresses_are_independent() {
        let mut v = OnlineVerifier::new();
        v.observe(p(0), Op::write(0u32, 1u64));
        v.observe(p(0), Op::write(1u32, 2u64));
        v.observe(p(1), Op::read(1u32, 2u64));
        v.observe(p(1), Op::read(0u32, 1u64));
        assert!(v.finish().is_empty());
    }
}
