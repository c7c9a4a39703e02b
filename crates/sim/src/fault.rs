//! Protocol fault injection: the hardware-error classes the paper's
//! dynamic-verification motivation targets (§1).
//!
//! Faults are one-shot and deterministic: each plan arms at a global step
//! and fires at the next eligible protocol event, so a faulty run is
//! exactly reproducible from its seed and plan list.

use vermem_trace::Value;

/// A class of protocol fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The victim CPU ignores its next invalidation snoop, leaving a stale
    /// line that later reads may consume (a lost invalidate message).
    DropInvalidation {
        /// CPU whose snoop is dropped.
        victim_cpu: usize,
    },
    /// The CPU's next cache fill XORs the incoming word with a mask (a data
    /// corruption on the fill path).
    CorruptFill {
        /// CPU whose fill is corrupted.
        cpu: usize,
        /// Non-zero corruption mask.
        xor: u64,
    },
    /// The CPU's next committed write performs all coherence transitions
    /// but fails to update the data (a dropped store).
    LostWrite {
        /// CPU whose store is dropped.
        cpu: usize,
    },
    /// The CPU's next miss fills straight from memory, ignoring a remote
    /// Modified copy (a missed owner-supply).
    StaleFill {
        /// CPU whose fill bypasses the owner.
        cpu: usize,
    },
}

/// A one-shot fault: fires at the first eligible event at or after
/// `at_step` global machine steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault class.
    pub kind: FaultKind,
    /// Global step from which the fault is armed.
    pub at_step: u64,
}

/// Tracks pending fault plans during a run.
#[derive(Clone, Debug, Default)]
pub struct FaultState {
    plans: Vec<(FaultPlan, bool)>, // (plan, fired)
}

impl FaultState {
    /// Initialize from a plan list.
    pub fn new(plans: &[FaultPlan]) -> Self {
        FaultState {
            plans: plans.iter().map(|&p| (p, false)).collect(),
        }
    }

    fn take(&mut self, step: u64, matcher: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        for (plan, fired) in &mut self.plans {
            if !*fired && step >= plan.at_step && matcher(&plan.kind) {
                *fired = true;
                return Some(plan.kind);
            }
        }
        None
    }

    /// Should this CPU drop its pending invalidation snoop?
    pub fn drop_invalidation(&mut self, step: u64, cpu: usize) -> bool {
        self.take(
            step,
            |k| matches!(k, FaultKind::DropInvalidation { victim_cpu } if *victim_cpu == cpu),
        )
        .is_some()
    }

    /// Corruption mask for this CPU's fill, if armed.
    pub fn corrupt_fill(&mut self, step: u64, cpu: usize) -> Option<Value> {
        match self.take(
            step,
            |k| matches!(k, FaultKind::CorruptFill { cpu: c, .. } if *c == cpu),
        ) {
            Some(FaultKind::CorruptFill { xor, .. }) => Some(Value(xor)),
            _ => None,
        }
    }

    /// Should this CPU's committing write lose its data?
    pub fn lose_write(&mut self, step: u64, cpu: usize) -> bool {
        self.take(
            step,
            |k| matches!(k, FaultKind::LostWrite { cpu: c } if *c == cpu),
        )
        .is_some()
    }

    /// Should this CPU's fill bypass a remote owner?
    pub fn stale_fill(&mut self, step: u64, cpu: usize) -> bool {
        self.take(
            step,
            |k| matches!(k, FaultKind::StaleFill { cpu: c } if *c == cpu),
        )
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_fire_once_and_only_after_arming() {
        let mut fs = FaultState::new(&[FaultPlan {
            kind: FaultKind::LostWrite { cpu: 1 },
            at_step: 10,
        }]);
        assert!(!fs.lose_write(5, 1), "not armed yet");
        assert!(!fs.lose_write(10, 0), "wrong cpu");
        assert!(fs.lose_write(10, 1), "fires");
        assert!(!fs.lose_write(11, 1), "one-shot");
    }

    #[test]
    fn matchers_are_kind_specific() {
        let mut fs = FaultState::new(&[FaultPlan {
            kind: FaultKind::CorruptFill { cpu: 0, xor: 0xFF },
            at_step: 0,
        }]);
        assert!(!fs.drop_invalidation(0, 0));
        assert_eq!(fs.corrupt_fill(0, 0), Some(Value(0xFF)));
        assert_eq!(fs.corrupt_fill(1, 0), None, "one-shot");
    }
}
