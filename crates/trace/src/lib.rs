//! # vermem-trace
//!
//! The execution-trace substrate for the `vermem` verifier suite, which
//! reproduces *“The Complexity of Verifying Memory Coherence and
//! Consistency”* (Cantin, Lipasti & Smith; SPAA 2003 brief announcement and
//! UW-Madison TR ECE-03-01).
//!
//! This crate models:
//!
//! * memory [operations](Op) — `R(a,d)`, `W(a,d)`, `RW(a,d_r,d_w)` (§3);
//! * [process histories](ProcessHistory) — per-processor program-ordered
//!   operation sequences;
//! * [traces](Trace) — sets of histories with initial (`d_I`) and final
//!   (`d_F`) values;
//! * the [per-address index](index) — one [`AddrOps`] per address, the VMC
//!   instance of Definition 4.1;
//! * [schedules](Schedule) — interleavings, plus the polynomial certificate
//!   checker of Theorem 4.2 ([`check_coherent_schedule_ops`] on one
//!   address's [`AddrOps`]; [`check_serialization`] runs it at every
//!   address plus one cross-address program-order pass, and
//!   [`check_sc_schedule`] is its SC case);
//! * the [Figure 5.3 classifier](classify) mapping instances to the paper's
//!   complexity table;
//! * [workload generators and violation injectors](gen);
//! * [text](fmt) and [binary (`binary` module)](binary) trace formats.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod classify;
pub mod fmt;
pub mod gen;
mod history;
pub mod index;
mod op;
mod schedule;
pub mod stats;
mod trace;

pub use history::ProcessHistory;
pub use index::{AddrIndex, AddrOps};
pub use op::{Addr, Op, OpRef, ProcId, Value};
pub use schedule::{
    check_coherent_schedule, check_coherent_schedule_ops, check_sc_schedule, check_serialization,
    Schedule, ScheduleError,
};
pub use trace::{Trace, TraceBuilder};
