//! Per-processor instruction streams executed by the simulator.

use vermem_trace::{Addr, Value};

/// How an atomic read-modify-write computes its new value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwKind {
    /// Fetch-and-increment: writes `read + 1`.
    Increment,
    /// Atomic exchange: writes the given value.
    Swap(Value),
    /// Compare-and-swap: writes `new` iff the read equals `expected`;
    /// otherwise the operation still executes atomically but writes back
    /// the value it read (recorded as an RMW either way).
    CompareAndSwap {
        /// Value the location must hold for the swap to take effect.
        expected: Value,
        /// Value installed on success.
        new: Value,
    },
}

impl RmwKind {
    /// The value the atomic installs after reading `old`.
    pub(crate) fn apply(self, old: Value) -> Value {
        match self {
            RmwKind::Increment => Value(old.0.wrapping_add(1)),
            RmwKind::Swap(v) => v,
            RmwKind::CompareAndSwap { expected, new } => {
                if old == expected {
                    new
                } else {
                    old
                }
            }
        }
    }
}

/// One instruction of a processor's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Load from an address; the returned value is recorded in the trace.
    Read(Addr),
    /// Store a value to an address.
    Write(Addr, Value),
    /// Atomic read-modify-write.
    Rmw(Addr, RmwKind),
    /// Drain this processor's store buffer (a full fence). No-op when the
    /// machine runs without store buffers.
    Fence,
}

/// A whole-machine workload: one instruction stream per processor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    streams: Vec<Vec<Instr>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from per-processor streams.
    pub fn from_streams(streams: Vec<Vec<Instr>>) -> Self {
        Program { streams }
    }

    /// Add a processor with the given stream; returns its index.
    pub fn push_stream(&mut self, stream: Vec<Instr>) -> usize {
        self.streams.push(stream);
        self.streams.len() - 1
    }

    /// The per-processor streams.
    pub fn streams(&self) -> &[Vec<Instr>] {
        &self.streams
    }

    /// Number of processors.
    pub fn num_cpus(&self) -> usize {
        self.streams.len()
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// True if no instructions exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_accounting() {
        let mut p = Program::new();
        assert!(p.is_empty());
        let c0 = p.push_stream(vec![Instr::Read(Addr(0)), Instr::Write(Addr(0), Value(1))]);
        let c1 = p.push_stream(vec![Instr::Rmw(Addr(0), RmwKind::Increment)]);
        assert_eq!((c0, c1), (0, 1));
        assert_eq!(p.num_cpus(), 2);
        assert_eq!(p.len(), 3);
    }
}
