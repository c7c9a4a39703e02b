//! # `vermem-util` — the zero-dependency substrate under every other crate
//!
//! The build environment for this reproduction of *Cantin, Lipasti & Smith,
//! "The complexity of verifying memory coherence" (SPAA 2003)* is fully
//! offline: no registry, no network. This crate replaces the external
//! crates the workspace used to depend on with small, tested, in-tree
//! substrates so the whole workspace builds and tests hermetically:
//!
//! | module    | replaces            | provides                                            |
//! |-----------|---------------------|-----------------------------------------------------|
//! | [`rng`]   | `rand`              | SplitMix64 + xoshiro256\*\* seedable PRNG           |
//! | [`prop`]  | `proptest`          | `prop_check!` seeded cases + size-descent shrinking |
//! | [`codec`] | `bytes` (+ `serde`) | varint/fixed-width binary reader & writer           |
//! | [`hash`]  | `rustc-hash`/`fxhash` | frozen-stream Fx hasher + `FxHashMap`/`FxHashSet` |
//! | [`pool`]  | `rayon`/`crossbeam` | scoped work-stealing chunk pool with cancellation   |
//! | [`json`]  | `serde_json`        | order-preserving JSON writer + strict parser        |
//! | [`obs`]   | `tracing`/`metrics` | toggleable registry, spans, Chrome-trace, RunReport |
//!
//! (`crossbeam::thread::scope` is replaced directly by [`std::thread::scope`]
//! at its one call site; [`pool`] builds the work-stealing layer on top of
//! it for the parallel verification engine.)
//!
//! ## Seed-stability policy
//!
//! Everything downstream — trace generators, workload simulators, random SAT
//! instances, violation injectors — derives its randomness from
//! [`rng::StdRng::seed_from_u64`]. The algorithm (xoshiro256\*\* seeded by
//! SplitMix64) and its known-answer vectors in this crate's tests are
//! **frozen**: the same seed must produce the identical stream — and hence
//! bit-identical traces, workloads and SAT instances — across releases.
//! Changing the stream is a breaking change and requires bumping the golden
//! vectors *and* every recorded experiment in `EXPERIMENTS.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod csr;
pub mod hash;
pub mod intern;
pub mod json;
pub mod obs;
pub mod pool;
pub mod prop;
pub mod rng;
