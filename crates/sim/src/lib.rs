//! # vermem-sim
//!
//! An executable multiprocessor memory-system substrate for the `vermem`
//! verifier suite: per-CPU caches over a word-granular shared memory, kept
//! coherent by a MESI snooping bus ([`Machine`]), with optional TSO store
//! buffers and deterministic protocol fault injection. A load never
//! forwards from its store buffer: it drains the buffer through the
//! youngest store to its address.
//!
//! The paper motivates its complexity study with *dynamic verification*:
//! checking the execution of real (possibly faulty) memory-system hardware.
//! This crate plays the role of that hardware. It produces exactly the
//! verifiers' input — per-process operation [traces](vermem_trace::Trace)
//! in program order with observed values — plus the per-address committed
//! **write order**, the §5.2 augmentation under which coherence checking is
//! polynomial. That input depends only on the order in which the machine
//! commits operations, not on how the coherence protocol reaches it, so
//! one protocol (the bus) stands for the paper's snooping hierarchies and
//! directory controllers alike.
//!
//! Simplifications (documented substitutions per DESIGN.md): lines hold a
//! single word (so coherence is word-granular and captured values are
//! exact), and bus transactions are atomic (the classic textbook snooping
//! model). Neither affects the verifier-facing semantics: the machine is
//! sequentially consistent without store buffers, TSO with them, and
//! injected faults produce precisely the violation classes the verifiers
//! are designed to catch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod fault;
pub mod machine;
pub mod mesi;
pub mod program;
pub mod stream;
pub mod workload;

pub use fault::{FaultKind, FaultPlan};
pub use machine::{CapturedExecution, Machine, MachineConfig, MachineStats};
pub use mesi::MesiState;
pub use program::{Instr, Program, RmwKind};
pub use stream::{event_stream_bytes, StreamAdapterError};
pub use workload::{ping_pong, producer_consumer, random_program, shared_counter, WorkloadConfig};
