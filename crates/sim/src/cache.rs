//! A per-processor cache: direct-mapped, one word per line (word-granular
//! coherence keeps value tracking exact; see the crate docs).

use crate::mesi::MesiState;
use vermem_trace::{Addr, Value};

/// One cache line: the cached address, its word, and its MESI state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line {
    /// Address cached in this line (meaningful when state is valid).
    pub addr: Addr,
    /// Cached word.
    pub value: Value,
    /// Coherence state.
    pub state: MesiState,
}

impl Line {
    fn empty() -> Line {
        Line {
            addr: Addr(0),
            value: Value(0),
            state: MesiState::Invalid,
        }
    }
}

/// A direct-mapped cache.
#[derive(Clone, Debug)]
pub struct Cache {
    lines: Vec<Line>,
}

impl Cache {
    /// A cache with `num_lines` direct-mapped lines.
    pub fn new(num_lines: usize) -> Self {
        assert!(num_lines > 0, "cache needs at least one line");
        Cache {
            lines: vec![Line::empty(); num_lines],
        }
    }

    fn index(&self, addr: Addr) -> usize {
        addr.0 as usize % self.lines.len()
    }

    /// The valid line currently holding exactly `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<&Line> {
        let line = &self.lines[self.index(addr)];
        (line.state.is_valid() && line.addr == addr).then_some(line)
    }

    /// Mutable variant of [`Cache::lookup`].
    pub fn lookup_mut(&mut self, addr: Addr) -> Option<&mut Line> {
        let i = self.index(addr);
        let line = &mut self.lines[i];
        (line.state.is_valid() && line.addr == addr).then_some(line)
    }

    /// Install `addr` in its line with the given value and state, returning
    /// the victim line if a *different* valid address had to be evicted.
    pub fn fill(&mut self, addr: Addr, value: Value, state: MesiState) -> Option<Line> {
        let i = self.index(addr);
        let victim = self.lines[i];
        let evicted = (victim.state.is_valid() && victim.addr != addr).then_some(victim);
        self.lines[i] = Line { addr, value, state };
        evicted
    }

    /// Iterate over all lines (for diagnostics and fault injection).
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_lookup() {
        let mut c = Cache::new(4);
        assert!(c.lookup(Addr(1)).is_none());
        assert_eq!(c.fill(Addr(1), Value(7), MesiState::Exclusive), None);
        let line = c.lookup(Addr(1)).expect("filled");
        assert_eq!(line.value, Value(7));
        assert_eq!(line.state, MesiState::Exclusive);
    }

    #[test]
    fn conflict_eviction_reports_victim() {
        let mut c = Cache::new(2);
        c.fill(Addr(0), Value(1), MesiState::Modified);
        // Addr(2) maps to the same line in a 2-line cache.
        let victim = c
            .fill(Addr(2), Value(9), MesiState::Exclusive)
            .expect("conflict");
        assert_eq!(victim.addr, Addr(0));
        assert_eq!(victim.value, Value(1));
        assert!(victim.state.is_dirty());
        assert!(c.lookup(Addr(0)).is_none());
    }

    #[test]
    fn refill_same_address_is_not_eviction() {
        let mut c = Cache::new(2);
        c.fill(Addr(0), Value(1), MesiState::Shared);
        assert_eq!(c.fill(Addr(0), Value(2), MesiState::Modified), None);
        assert_eq!(c.lookup(Addr(0)).unwrap().value, Value(2));
    }

    #[test]
    fn invalid_line_never_matches() {
        let mut c = Cache::new(2);
        c.fill(Addr(0), Value(1), MesiState::Shared);
        c.lookup_mut(Addr(0)).expect("filled").state = MesiState::Invalid;
        assert!(c.lookup(Addr(0)).is_none());
    }
}
