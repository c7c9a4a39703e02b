//! The Release–Acquire polynomial fast tier.
//!
//! Chakraborty-style observation (PAPERS.md): RA consistency is decidable
//! in polynomial time when each read's writer is unambiguous — and on
//! healthy traces with distinct written values (the common case for
//! generated workloads) it always is. The tier:
//!
//! 1. **escalates** unless every read has exactly one reads-from
//!    candidate (zero candidates is an outright refutation);
//! 2. computes `hb = (po ∪ rf)⁺`; a cycle refutes (causality is forced);
//! 3. **saturates forced coherence edges** per address to a fixpoint:
//!    `hb` between same-address writes, writes `hb`-before a read forced
//!    behind the read's writer, RMW adjacency (an RMW sits immediately
//!    after its writer in coherence order), and the unique final-value
//!    candidate forced last. A contradiction among forced edges — a
//!    coherence cycle, coherence against `hb`, or a from-read against
//!    `hb` — refutes: every edge is mandatory for every RA witness;
//! 4. completes the forced partial order to a total coherence order
//!    (deferring final-value candidates, gluing RMWs behind their
//!    writers) and validates the witness with the reference evaluator
//!    `check_witness_ev`. Valid ⇒ consistent; invalid ⇒ **escalate** —
//!    the completion heuristic, not the trace, may be at fault.
//!
//! Decisions are thus always sound: refutations rest only on forced
//! constraints, acceptances on a checked witness. The exact tier is never
//! masked, only pre-empted when the answer is already certain.

use super::witness::{check_witness_ev, witness_schedule, Events, Reach, RfCand, Witness};
use super::RA_SPEC;
use crate::verdict::{ConsistencyVerdict, ConsistencyViolation, ViolationClass};
use vermem_trace::Trace;

/// What the fast tier concluded.
#[derive(Clone, Debug)]
pub enum FastOutcome {
    /// The trace is decided; the exact tier need not run.
    Decided(ConsistencyVerdict),
    /// Ambiguity the polynomial reasoning cannot resolve: escalate.
    Escalate,
}

fn refuted() -> FastOutcome {
    FastOutcome::Decided(ConsistencyVerdict::Violating(ConsistencyViolation {
        class: ViolationClass::NoConsistentSchedule,
    }))
}

/// Try to decide RA consistency of `trace` in polynomial time.
pub fn try_decide(trace: &Trace) -> FastOutcome {
    decide(&super::events(trace))
}

/// [`try_decide`] on the event universe of a check: `verify_axiom` hands
/// the same [`Events`] on to the exact search when this escalates.
pub(crate) fn decide(ev: &Events) -> FastOutcome {
    let n = ev.len();
    if ev.some_read_unsatisfiable() {
        return refuted();
    }
    for &(slot, v) in &ev.finals {
        let writes = &ev.writes_by_slot[slot as usize];
        let reachable = match writes.len() {
            0 => ev.initial[slot as usize] == v,
            _ => writes
                .iter()
                .any(|&w| ev.ops[w as usize].1.written_value() == Some(v)),
        };
        if !reachable {
            return refuted();
        }
    }

    // The tier's precondition: a unique reads-from candidate per read.
    let mut rf: Vec<Option<RfCand>> = vec![None; n];
    for (e, cands) in ev.candidates.iter().enumerate() {
        if ev.ops[e].1.is_reading() {
            match cands[..] {
                [only] => rf[e] = Some(only),
                _ => return FastOutcome::Escalate,
            }
        }
    }

    // hb = (po ∪ rf)⁺; a cycle violates causality in every completion.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for evs in &ev.by_proc {
        edges.extend(evs.windows(2).map(|w| (w[0], w[1])));
    }
    for (e, r) in rf.iter().enumerate() {
        if let Some(RfCand::From(src)) = *r {
            edges.push((src, e as u32));
        }
    }
    let hb_rows = Reach::new(n, &edges);
    let hb = |a: u32, b: u32| hb_rows.has(a, b);
    if (0..n as u32).any(|v| hb(v, v)) {
        return refuted();
    }

    let mut mo: Vec<Vec<u32>> = Vec::with_capacity(ev.writes_by_slot.len());
    for (slot, writes) in ev.writes_by_slot.iter().enumerate() {
        let k = writes.len();
        let pos = |w: u32| writes.iter().position(|&y| y == w).expect("slot write");
        let mut m = vec![vec![false; k]; k];

        // (A) hb between same-address writes is coherence order.
        for i in 0..k {
            for j in 0..k {
                if i != j && hb(writes[i], writes[j]) {
                    m[i][j] = true;
                }
            }
        }

        let slot_reads: Vec<u32> = (0..n as u32)
            .filter(|&e| ev.slot_of[e as usize] == slot as u32 && ev.ops[e as usize].1.is_reading())
            .collect();

        for &r in &slot_reads {
            match rf[r as usize].expect("unique rf decided") {
                // (B') r reads the initial value, so r is from-read-before
                // every write; one hb-before r closes a (fr ; hb) cycle.
                RfCand::Init => {
                    if writes.iter().any(|&w| w != r && hb(w, r)) {
                        return refuted();
                    }
                }
                // (B) a write hb-before r cannot be coherence-after r's
                // writer (that would put it fr-ahead of a read that
                // already observed it): it is forced behind the writer.
                RfCand::From(w) => {
                    let wi = pos(w);
                    for (i, &x) in writes.iter().enumerate() {
                        if x != w && x != r && hb(x, r) {
                            m[i][wi] = true;
                        }
                    }
                }
            }
        }

        // (C) RMW atomicity seeds: an RMW follows its writer immediately;
        // one reading the initial value is coherence-first.
        let rmws: Vec<(usize, Option<usize>)> = slot_reads
            .iter()
            .filter(|&&u| ev.ops[u as usize].1.is_writing())
            .map(|&u| {
                let ui = pos(u);
                match rf[u as usize].expect("unique rf decided") {
                    RfCand::Init => (ui, None),
                    RfCand::From(w) => (ui, Some(pos(w))),
                }
            })
            .collect();
        for &(ui, src) in &rmws {
            match src {
                None => (0..k).filter(|&x| x != ui).for_each(|x| m[ui][x] = true),
                Some(wi) => m[wi][ui] = true,
            }
        }

        // (D) a unique final-value candidate is forced coherence-last.
        let final_v = ev
            .finals
            .iter()
            .find(|&&(s, _)| s as usize == slot)
            .map(|&(_, v)| v);
        if let Some(v) = final_v {
            let cands: Vec<usize> = (0..k)
                .filter(|&i| ev.ops[writes[i] as usize].1.written_value() == Some(v))
                .collect();
            if let [last] = cands[..] {
                (0..k)
                    .filter(|&i| i != last)
                    .for_each(|i| m[i][last] = true);
            }
        }

        // Saturate: transitive closure, then RMW adjacency propagation
        // (anything after an RMW's writer other than the RMW itself is
        // after the RMW; anything before the RMW other than its writer is
        // before the writer), to a fixpoint.
        loop {
            let mut changed = false;
            for via in 0..k {
                for i in 0..k {
                    if i == via || !m[i][via] {
                        continue;
                    }
                    for j in (0..k).filter(|&j| j != i && j != via) {
                        if m[via][j] && !m[i][j] {
                            m[i][j] = true;
                            changed = true;
                        }
                    }
                }
            }
            for &(ui, src) in &rmws {
                if let Some(wi) = src {
                    for x in (0..k).filter(|&x| x != ui && x != wi) {
                        if m[wi][x] && !m[ui][x] {
                            m[ui][x] = true;
                            changed = true;
                        }
                        if m[x][ui] && !m[x][wi] {
                            m[x][wi] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Forced contradictions refute outright.
        for i in 0..k {
            for j in 0..k {
                if i != j && m[i][j] && (m[j][i] || hb(writes[j], writes[i])) {
                    return refuted();
                }
            }
        }
        for &r in &slot_reads {
            if let Some(RfCand::From(w)) = rf[r as usize] {
                let wi = pos(w);
                for (i, &x) in writes.iter().enumerate() {
                    // fr(r, x) is forced; x hb-before r closes (fr ; hb).
                    if x != r && m[wi][i] && hb(x, r) {
                        return refuted();
                    }
                }
            }
        }

        // Complete to a total order: Kahn with final-candidate deferral
        // and RMW gluing. A cycle here is impossible (contradictions
        // were just ruled out), but stay defensive and escalate.
        let mut order = Vec::with_capacity(k);
        let mut done = vec![false; k];
        let mut glue: Vec<Option<usize>> = vec![None; k];
        for &(ui, src) in &rmws {
            if let Some(wi) = src {
                glue[wi] = Some(ui);
            }
        }
        while order.len() < k {
            let ready = |i: usize| !done[i] && (0..k).all(|j| done[j] || !m[j][i]);
            let glued = order
                .last()
                .and_then(|&last: &usize| glue[last])
                .filter(|&u| ready(u));
            let next = glued.or_else(|| {
                let defer = |i: usize| {
                    final_v.is_some() && ev.ops[writes[i] as usize].1.written_value() == final_v
                };
                (0..k)
                    .filter(|&i| ready(i) && !defer(i))
                    .chain((0..k).filter(|&i| ready(i)))
                    .next()
            });
            match next {
                Some(i) => {
                    done[i] = true;
                    order.push(i);
                }
                None => return FastOutcome::Escalate,
            }
        }
        mo.push(order.into_iter().map(|i| writes[i]).collect());
    }

    // Acceptance only through the reference evaluator: the completion is
    // heuristic, so an invalid witness escalates rather than refutes.
    let w = Witness { rf, mo };
    match check_witness_ev(&RA_SPEC, ev, &w) {
        Ok(()) => FastOutcome::Decided(ConsistencyVerdict::Consistent(witness_schedule(
            &RA_SPEC, ev, &w,
        ))),
        Err(_) => FastOutcome::Escalate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{Op, TraceBuilder};

    /// Message passing with the stale data read: refuted without search —
    /// the flag read forces the data write hb-before the data read.
    #[test]
    fn mp_violation_is_decided_fast() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 1u64)])
            .proc([Op::read(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        match try_decide(&t) {
            FastOutcome::Decided(v) => assert!(!v.is_consistent()),
            FastOutcome::Escalate => panic!("forced fr/hb contradiction must decide"),
        }
    }

    /// Store buffering is RA-consistent; unique values let the tier build
    /// and validate a witness directly.
    #[test]
    fn store_buffering_is_accepted_fast() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
            .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
            .build();
        match try_decide(&t) {
            FastOutcome::Decided(v) => assert!(v.is_consistent()),
            FastOutcome::Escalate => panic!("unique-rf SB must be decided"),
        }
    }

    /// Two writes of the same value: the read is ambiguous, escalate.
    #[test]
    fn ambiguous_rf_escalates() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::read(0u32, 1u64)])
            .build();
        assert!(matches!(try_decide(&t), FastOutcome::Escalate));
    }

    /// RMW chains pin the whole coherence order; decided with glue.
    #[test]
    fn rmw_chain_is_decided() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::rmw(0u32, 1u64, 2u64), Op::rmw(0u32, 2u64, 3u64)])
            .final_value(0u32, 3u64)
            .build();
        match try_decide(&t) {
            FastOutcome::Decided(v) => assert!(v.is_consistent()),
            FastOutcome::Escalate => panic!("rmw chain forces a unique witness"),
        }
    }
}
