//! Memory operations and their identifiers.
//!
//! The model follows §3 of the paper: reads `R(a, d)`, writes `W(a, d)` and
//! atomic read-modify-writes `RW(a, d_r, d_w)`. Addresses identify aligned
//! word locations; values are opaque word-sized data.

use std::fmt;

/// A shared-memory location (an aligned word address).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

/// A word of data read or written by an operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u64);

/// A process (logical processor) identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u16);

impl Addr {
    /// The conventional "only address" used by single-location (VMC) instances.
    pub const ZERO: Addr = Addr(0);
}

impl Value {
    /// The conventional initial value `d_I` when none is configured.
    pub const INITIAL: Value = Value(0);
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Self {
        Addr(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

impl From<u16> for ProcId {
    fn from(v: u16) -> Self {
        ProcId(v)
    }
}

/// A single memory operation, including the data it observed/produced.
///
/// `Rmw` models an atomic read-modify-write: it returns `read` and installs
/// `write` with no other operation to the same address in between.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `R(a, d)` — a load of `addr` that returned `value`.
    Read {
        /// The accessed location.
        addr: Addr,
        /// The value the load returned.
        value: Value,
    },
    /// `W(a, d)` — a store of `value` to `addr`.
    Write {
        /// The accessed location.
        addr: Addr,
        /// The value the store installed.
        value: Value,
    },
    /// `RW(a, d_r, d_w)` — an atomic read-modify-write that observed `read`
    /// and installed `write`.
    Rmw {
        /// The accessed location.
        addr: Addr,
        /// The value the atomic observed (`d_r`).
        read: Value,
        /// The value the atomic installed (`d_w`).
        write: Value,
    },
}

impl Op {
    /// Convenience constructor for a read.
    #[inline]
    pub fn read(addr: impl Into<Addr>, value: impl Into<Value>) -> Self {
        Op::Read {
            addr: addr.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for a write.
    #[inline]
    pub fn write(addr: impl Into<Addr>, value: impl Into<Value>) -> Self {
        Op::Write {
            addr: addr.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for an atomic read-modify-write.
    #[inline]
    pub fn rmw(addr: impl Into<Addr>, read: impl Into<Value>, write: impl Into<Value>) -> Self {
        Op::Rmw {
            addr: addr.into(),
            read: read.into(),
            write: write.into(),
        }
    }

    /// Single-address shorthand `R(d)` (address 0), per the paper's notation.
    #[inline]
    pub fn r(value: impl Into<Value>) -> Self {
        Op::read(Addr::ZERO, value)
    }

    /// Single-address shorthand `W(d)` (address 0).
    #[inline]
    pub fn w(value: impl Into<Value>) -> Self {
        Op::write(Addr::ZERO, value)
    }

    /// Single-address shorthand `RW(d_r, d_w)` (address 0).
    #[inline]
    pub fn rw(read: impl Into<Value>, write: impl Into<Value>) -> Self {
        Op::rmw(Addr::ZERO, read, write)
    }

    /// The address this operation touches.
    #[inline]
    pub fn addr(&self) -> Addr {
        match *self {
            Op::Read { addr, .. } | Op::Write { addr, .. } | Op::Rmw { addr, .. } => addr,
        }
    }

    /// The value this operation observed, if it has a read component.
    #[inline]
    pub fn read_value(&self) -> Option<Value> {
        match *self {
            Op::Read { value, .. } => Some(value),
            Op::Rmw { read, .. } => Some(read),
            Op::Write { .. } => None,
        }
    }

    /// The value this operation installed, if it has a write component.
    #[inline]
    pub fn written_value(&self) -> Option<Value> {
        match *self {
            Op::Write { value, .. } => Some(value),
            Op::Rmw { write, .. } => Some(write),
            Op::Read { .. } => None,
        }
    }

    /// True if the operation has a read component (`Read` or `Rmw`).
    #[inline]
    pub fn is_reading(&self) -> bool {
        self.read_value().is_some()
    }

    /// True if the operation has a write component (`Write` or `Rmw`).
    #[inline]
    pub fn is_writing(&self) -> bool {
        self.written_value().is_some()
    }

    /// True if this is an atomic read-modify-write.
    #[inline]
    pub fn is_rmw(&self) -> bool {
        matches!(self, Op::Rmw { .. })
    }

    /// The operation's row and column in a cross-address program-order
    /// table (`ppo_cross[earlier][later]` of
    /// [`check_serialization`](crate::check_serialization) and of the
    /// declared memory models): read = 0, write = 1, RMW = 2.
    #[inline]
    pub fn class(&self) -> usize {
        match self {
            Op::Read { .. } => 0,
            Op::Write { .. } => 1,
            Op::Rmw { .. } => 2,
        }
    }

    /// Returns a copy of this operation with its address replaced.
    #[inline]
    pub fn with_addr(self, addr: Addr) -> Self {
        match self {
            Op::Read { value, .. } => Op::Read { addr, value },
            Op::Write { value, .. } => Op::Write { addr, value },
            Op::Rmw { read, write, .. } => Op::Rmw { addr, read, write },
        }
    }
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Read { addr, value } => write!(f, "R({addr},{value})"),
            Op::Write { addr, value } => write!(f, "W({addr},{value})"),
            Op::Rmw { addr, read, write } => write!(f, "RW({addr},{read},{write})"),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifies one operation inside a [`crate::Trace`]: process `proc`, the
/// `index`-th operation of that process's history (program order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpRef {
    /// The process whose history contains the operation.
    pub proc: ProcId,
    /// Zero-based position within the process history (program order).
    pub index: u32,
}

impl OpRef {
    /// Construct an operation reference.
    #[inline]
    pub fn new(proc: impl Into<ProcId>, index: u32) -> Self {
        OpRef {
            proc: proc.into(),
            index,
        }
    }
}

impl fmt::Debug for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.proc, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_components() {
        let r = Op::read(3u32, 7u64);
        assert_eq!(r.addr(), Addr(3));
        assert_eq!(r.read_value(), Some(Value(7)));
        assert_eq!(r.written_value(), None);
        assert!(r.is_reading());
        assert!(!r.is_writing());
        assert!(!r.is_rmw());
    }

    #[test]
    fn write_components() {
        let w = Op::write(1u32, 9u64);
        assert_eq!(w.read_value(), None);
        assert_eq!(w.written_value(), Some(Value(9)));
        assert!(!w.is_reading());
        assert!(w.is_writing());
    }

    #[test]
    fn rmw_components() {
        let m = Op::rmw(2u32, 4u64, 5u64);
        assert_eq!(m.read_value(), Some(Value(4)));
        assert_eq!(m.written_value(), Some(Value(5)));
        assert!(m.is_reading() && m.is_writing() && m.is_rmw());
    }

    #[test]
    fn single_address_shorthand_uses_addr_zero() {
        assert_eq!(Op::r(1u64).addr(), Addr::ZERO);
        assert_eq!(Op::w(1u64).addr(), Addr::ZERO);
        assert_eq!(Op::rw(1u64, 2u64).addr(), Addr::ZERO);
    }

    #[test]
    fn with_addr_replaces_only_address() {
        let m = Op::rmw(2u32, 4u64, 5u64).with_addr(Addr(9));
        assert_eq!(m, Op::rmw(9u32, 4u64, 5u64));
    }

    #[test]
    fn display_formats_match_paper_notation() {
        assert_eq!(Op::read(0u32, 3u64).to_string(), "R(0,3)");
        assert_eq!(Op::write(1u32, 4u64).to_string(), "W(1,4)");
        assert_eq!(Op::rmw(2u32, 5u64, 6u64).to_string(), "RW(2,5,6)");
    }

    #[test]
    fn opref_ordering_is_proc_then_index() {
        let a = OpRef::new(0u16, 5);
        let b = OpRef::new(1u16, 0);
        assert!(a < b);
    }
}
