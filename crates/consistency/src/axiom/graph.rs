//! The graph lowering: a witness-construction [`TransitionSystem`] for
//! specs whose axioms do not pin a single serialization order.
//!
//! The machine decides the witness event by event, in event-id order:
//! a read picks its `rf` candidate, a write picks its insertion position
//! in its address's coherence order, and an RMW picks both (with the
//! insertion constrained next-to its writer when that writer is already
//! placed — sound and complete, because atomicity forces adjacency in
//! every accepted completion). Relations only ever grow along a decision
//! path, so an axiom the partial witness violates stays violated in every
//! completion: the spec's [`AxiomPlan`], compiled once per solve, is a
//! sound kernel pruning hook, and on the complete witness it is the
//! acceptance test.
//!
//! The question is incremental. `apply` and `undo` keep the witness's
//! [`Links`] (readers per write, `mo` positions). The root satisfies
//! every axiom (its only edges are static, and every static relation is a
//! part of `po`), and the kernel checks each state before expanding it,
//! so a state's parent has always passed: the plan looks only at cycles
//! through the last decided event and its decided readers
//! ([`AxiomPlan::violated_after`]). Debug builds cross-check every answer
//! against the reference evaluator; the solver certifies the accepted
//! witness with it in every build.
//!
//! Every decision is permanent within a path, so distinct paths reach
//! distinct states: the state graph is a tree and the machine opts out of
//! kernel memoization ([`TransitionSystem::memoize`] = false). Budgets,
//! cancellation and [`SearchStats::states`] keep their meaning.

use super::witness::{axiom_by_axiom, AxiomPlan, Events, Links, RfCand, Witness};
use super::ModelSpec;
use vermem_coherence::kernel::TransitionSystem;
use vermem_trace::OpRef;

/// Sentinel for "no rf / no insertion" halves of a move.
const NONE: u32 = u32::MAX;

/// One witness decision: `cand` indexes the event's `rf` candidate list,
/// `pos` is the `mo` insertion position; either may be [`NONE`].
#[derive(Clone, Copy)]
pub(crate) struct GraphMove {
    cand: u32,
    pos: u32,
}

/// The witness-search machine. Public fields let the solver extract the
/// accepted witness (the kernel leaves the machine in its accepting
/// state).
pub(crate) struct GraphMachine<'a> {
    spec: &'a ModelSpec,
    plan: AxiomPlan,
    pub ev: Events,
    pub w: Witness,
    links: Links,
    /// Next event to decide.
    cursor: usize,
}

impl<'a> GraphMachine<'a> {
    pub(crate) fn new(spec: &'a ModelSpec, ev: Events) -> GraphMachine<'a> {
        let w = Witness::empty(ev.len(), ev.writes_by_slot.len());
        GraphMachine {
            spec,
            plan: AxiomPlan::new(spec, &ev),
            links: Links::of(&ev, &w),
            ev,
            w,
            cursor: 0,
        }
    }

    /// Successor visits the plan's per-state checks have made.
    pub(crate) fn plan_visits(&self) -> u64 {
        self.plan.visits()
    }

    /// First axiom the current witness violates, if any. The root passes
    /// unchecked; any other state's parent passed, so only the last
    /// decision can close a cycle.
    fn violated(&self) -> Option<&'static str> {
        let found = self.cursor.checked_sub(1).and_then(|e| {
            self.plan
                .violated_after(&self.ev, &self.w, &self.links, e as u32)
        });
        debug_assert_eq!(
            found,
            axiom_by_axiom(self.spec, &self.ev, &self.w),
            "axiom plan disagrees with the axiom-by-axiom evaluator"
        );
        found
    }
}

impl TransitionSystem for GraphMachine<'_> {
    type Move = GraphMove;

    fn total_commits(&self) -> usize {
        self.ev.len()
    }

    fn accepting(&self) -> bool {
        // A complete witness is well-formed by construction (every read
        // took one of its candidates, every write was placed), so it is
        // accepted iff nothing refutes it.
        !self.refute()
    }

    // Every decision is a branching move; nothing is absorbed for free.

    fn refute(&self) -> bool {
        self.ev.finals_missed(&self.w) || self.violated().is_some()
    }

    fn state_key(&self, key: &mut Vec<u64>) {
        // Never consulted (memoize() is false); kept injective anyway so
        // flipping memoization back on could only cost, not corrupt.
        key.push(self.cursor as u64);
        for rf in &self.w.rf[..self.cursor.min(self.w.rf.len())] {
            key.push(match rf {
                None => 0,
                Some(RfCand::Init) => 1,
                Some(RfCand::From(w)) => 2 + u64::from(*w),
            });
        }
        for order in &self.w.mo {
            key.push(order.len() as u64);
            key.extend(order.iter().map(|&e| u64::from(e)));
        }
    }

    fn memoize(&self) -> bool {
        // Decisions are never retaken within a path: the state graph is a
        // tree, so the memo could never hit.
        false
    }

    fn enabled_moves(&self, moves: &mut Vec<GraphMove>) {
        let e = self.cursor;
        debug_assert!(e < self.ev.len(), "moves requested past the last event");
        let op = self.ev.ops[e].1;
        let cands = &self.ev.candidates[e];
        let order = &self.w.mo[self.ev.slot_of[e] as usize];
        match (op.is_reading(), op.is_writing()) {
            (true, false) => {
                for ci in 0..cands.len() {
                    moves.push(GraphMove {
                        cand: ci as u32,
                        pos: NONE,
                    });
                }
            }
            (false, true) => {
                // Prefer appending: program order usually is coherence
                // order in healthy traces.
                for pos in (0..=order.len() as u32).rev() {
                    moves.push(GraphMove { cand: NONE, pos });
                }
            }
            (true, true) => {
                for (ci, cand) in cands.iter().enumerate() {
                    match *cand {
                        // Reads-from-initial: the RMW must be mo-first
                        // (every write is fr-after it).
                        RfCand::Init => moves.push(GraphMove {
                            cand: ci as u32,
                            pos: 0,
                        }),
                        RfCand::From(src) => {
                            match order.iter().position(|&x| x == src) {
                                // Writer placed: atomicity pins the RMW
                                // immediately after it.
                                Some(q) => moves.push(GraphMove {
                                    cand: ci as u32,
                                    pos: q as u32 + 1,
                                }),
                                // Writer still undecided: any slot; the
                                // adjacency violation is pruned when the
                                // writer lands elsewhere.
                                None => {
                                    for pos in (0..=order.len() as u32).rev() {
                                        moves.push(GraphMove {
                                            cand: ci as u32,
                                            pos,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            (false, false) => unreachable!("every op reads or writes"),
        }
    }

    fn apply(&mut self, mv: GraphMove) -> Option<OpRef> {
        let e = self.cursor;
        let op = self.ev.ops[e].1;
        if op.is_reading() {
            self.w.rf[e] = Some(self.ev.candidates[e][mv.cand as usize]);
        }
        if op.is_writing() {
            self.w.mo[self.ev.slot_of[e] as usize].insert(mv.pos as usize, e as u32);
        }
        self.links.decide(&self.ev, &self.w, e as u32);
        self.cursor += 1;
        Some(self.ev.ops[e].0)
    }

    fn undo(&mut self, mv: GraphMove) {
        self.cursor -= 1;
        let e = self.cursor;
        let op = self.ev.ops[e].1;
        self.links.retract(&self.ev, &self.w, e as u32);
        if op.is_writing() {
            let removed = self.w.mo[self.ev.slot_of[e] as usize].remove(mv.pos as usize);
            debug_assert_eq!(removed, e as u32);
        }
        if op.is_reading() {
            self.w.rf[e] = None;
        }
    }
}
