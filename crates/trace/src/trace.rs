//! Execution traces: a finite set of process histories plus the initial and
//! (optional) final memory state, as in Definitions 4.1 and 6.1.

use crate::history::ProcessHistory;
use crate::op::{Addr, Op, OpRef, ProcId, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A multiprocessor execution trace: one history per process, the initial
/// value `d_I[a]` of each location, and optionally a required final value
/// `d_F[a]` that the last write in any coherent schedule must install.
///
/// Locations with no configured initial value start at [`Value::INITIAL`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace {
    histories: Vec<ProcessHistory>,
    initial: BTreeMap<Addr, Value>,
    final_values: BTreeMap<Addr, Value>,
}

impl Trace {
    /// An empty trace with no processes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a trace from per-process histories; process `i` gets id `P_i`.
    pub fn from_histories(histories: impl IntoIterator<Item = ProcessHistory>) -> Self {
        Trace {
            histories: histories.into_iter().collect(),
            ..Default::default()
        }
    }

    /// Add a process history, returning the new process's id.
    pub fn push_history(&mut self, history: ProcessHistory) -> ProcId {
        let id = ProcId(self.histories.len() as u16);
        self.histories.push(history);
        id
    }

    /// Set the initial value `d_I[a]` of a location.
    pub fn set_initial(&mut self, addr: impl Into<Addr>, value: impl Into<Value>) {
        self.initial.insert(addr.into(), value.into());
    }

    /// Require that the last write to `addr` in any valid schedule writes
    /// `value` (the final value `d_F[a]`).
    pub fn set_final(&mut self, addr: impl Into<Addr>, value: impl Into<Value>) {
        self.final_values.insert(addr.into(), value.into());
    }

    /// The initial value of `addr` (`d_I[a]`), defaulting to [`Value::INITIAL`].
    pub fn initial(&self, addr: Addr) -> Value {
        self.initial.get(&addr).copied().unwrap_or(Value::INITIAL)
    }

    /// The required final value of `addr`, if one was specified.
    pub fn final_value(&self, addr: Addr) -> Option<Value> {
        self.final_values.get(&addr).copied()
    }

    /// All explicitly configured initial values.
    pub fn initial_values(&self) -> &BTreeMap<Addr, Value> {
        &self.initial
    }

    /// All configured final-value constraints.
    pub fn final_values(&self) -> &BTreeMap<Addr, Value> {
        &self.final_values
    }

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.histories.len()
    }

    /// Total number of operations across all histories.
    pub fn num_ops(&self) -> usize {
        self.histories.iter().map(|h| h.len()).sum()
    }

    /// The histories, indexed by process id.
    pub fn histories(&self) -> &[ProcessHistory] {
        &self.histories
    }

    /// The history of process `proc`.
    pub fn history(&self, proc: ProcId) -> Option<&ProcessHistory> {
        self.histories.get(proc.0 as usize)
    }

    /// Look up the operation identified by `op_ref`.
    pub fn op(&self, op_ref: OpRef) -> Option<Op> {
        self.history(op_ref.proc)?.op(op_ref.index as usize)
    }

    /// Iterate over `(OpRef, Op)` pairs for all operations, by process then
    /// program order.
    pub fn iter_ops(&self) -> impl Iterator<Item = (OpRef, Op)> + '_ {
        self.histories.iter().enumerate().flat_map(|(p, h)| {
            h.iter()
                .enumerate()
                .map(move |(i, op)| (OpRef::new(p as u16, i as u32), op))
        })
    }

    /// The set of distinct addresses touched by the trace, sorted.
    pub fn addresses(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self.histories.iter().flat_map(|h| h.addresses()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    /// Mutable history access (used by violation injectors in [`crate::gen`]).
    pub(crate) fn history_mut(&mut self, proc: ProcId) -> Option<&mut ProcessHistory> {
        self.histories.get_mut(proc.0 as usize)
    }

    /// Render this trace in the human-readable text format of
    /// [`crate::fmt`] (derive-free serialization; inverse of
    /// [`Trace::from_text`]).
    pub fn to_text(&self) -> String {
        crate::fmt::format_trace(self)
    }

    /// Parse a trace from the text format of [`crate::fmt`] (inverse of
    /// [`Trace::to_text`]).
    pub fn from_text(input: &str) -> Result<Self, crate::fmt::ParseError> {
        crate::fmt::parse_trace(input)
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Trace[{} procs, {} ops]",
            self.num_procs(),
            self.num_ops()
        )?;
        for (p, h) in self.histories.iter().enumerate() {
            writeln!(f, "  P{p}: {h:?}")?;
        }
        if !self.initial.is_empty() {
            writeln!(f, "  initial: {:?}", self.initial)?;
        }
        if !self.final_values.is_empty() {
            writeln!(f, "  final: {:?}", self.final_values)?;
        }
        Ok(())
    }
}

/// Builder-style helper to assemble traces in tests and examples.
///
/// ```
/// use vermem_trace::{TraceBuilder, Op};
/// let trace = TraceBuilder::new()
///     .proc([Op::w(1u64), Op::r(2u64)])
///     .proc([Op::w(2u64)])
///     .initial(0u32, 0u64)
///     .build();
/// assert_eq!(trace.num_procs(), 2);
/// ```
#[derive(Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a process with the given program-ordered operations.
    pub fn proc(mut self, ops: impl IntoIterator<Item = Op>) -> Self {
        self.trace.push_history(ProcessHistory::from_ops(ops));
        self
    }

    /// Set an initial value.
    pub fn initial(mut self, addr: impl Into<Addr>, value: impl Into<Value>) -> Self {
        self.trace.set_initial(addr, value);
        self
    }

    /// Set a final-value constraint.
    pub fn final_value(mut self, addr: impl Into<Addr>, value: impl Into<Value>) -> Self {
        self.trace.set_final(addr, value);
        self
    }

    /// Finish building.
    pub fn build(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_addr_trace() -> Trace {
        TraceBuilder::new()
            .proc([
                Op::write(0u32, 1u64),
                Op::write(1u32, 2u64),
                Op::read(0u32, 1u64),
            ])
            .proc([Op::read(1u32, 2u64), Op::write(0u32, 3u64)])
            .initial(0u32, 0u64)
            .final_value(0u32, 3u64)
            .build()
    }

    #[test]
    fn counting() {
        let t = two_addr_trace();
        assert_eq!(t.num_procs(), 2);
        assert_eq!(t.num_ops(), 5);
        assert_eq!(t.addresses(), vec![Addr(0), Addr(1)]);
    }

    #[test]
    fn op_lookup_by_ref() {
        let t = two_addr_trace();
        assert_eq!(t.op(OpRef::new(1u16, 1)), Some(Op::write(0u32, 3u64)));
        assert_eq!(t.op(OpRef::new(1u16, 2)), None);
        assert_eq!(t.op(OpRef::new(5u16, 0)), None);
    }

    #[test]
    fn iter_ops_yields_all_in_proc_then_program_order() {
        let t = two_addr_trace();
        let refs: Vec<OpRef> = t.iter_ops().map(|(r, _)| r).collect();
        assert_eq!(refs.len(), 5);
        assert!(refs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn default_initial_value_is_zero() {
        let t = Trace::new();
        assert_eq!(t.initial(Addr(42)), Value::INITIAL);
    }

    #[test]
    fn text_round_trip_via_trace_methods() {
        let t = two_addr_trace();
        assert_eq!(Trace::from_text(&t.to_text()).unwrap(), t);
    }
}
