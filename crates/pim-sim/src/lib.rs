//! Multiprocessor simulation harness for the PIM cache reproduction.
//!
//! This crate turns the pure state machine of `pim-cache` into a *timed*
//! multiprocessor: each PE has a local clock, the single bus serializes
//! transactions, lock refusals become busy waits that resolve on the
//! holder's `UL` broadcast, and a deterministic scheduler interleaves the
//! PEs in simulated-time order (lowest clock runs next, ties broken by PE
//! id — the paper's per-bus-request synchronization, reproduced exactly
//! and deterministically).
//!
//! It also re-exports the **Illinois baseline** ([`IllinoisSystem`]): the
//! four-state protocol the paper compares against, which copies dirty
//! blocks back to shared memory on every cache-to-cache transfer (no `SM`
//! state) and has no hardware lock directory. It is `pim-cache`'s one
//! coherence engine under the Illinois rules, so every protocol implements
//! [`MemorySystem`] through the same generic impl.
//!
//! The workload side is abstracted as a [`Process`]: anything that can
//! step one PE at a time against a [`pim_trace::MemoryPort`] — the KL1
//! abstract machine in `kl1-machine`, or the synthetic [`replay::Replayer`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod replay;
pub mod system;

pub use engine::{Engine, Process, RunStats, StepOutcome};
pub use error::SimError;
pub use pim_cache::IllinoisSystem;
pub use replay::Replayer;
pub use system::MemorySystem;
