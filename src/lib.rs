//! Umbrella crate for the PIM cache reproduction.
//!
//! This workspace reproduces *"Design and Performance of a Coherent Cache
//! for Parallel Logic Programming Architectures"* (Goto, Matsumoto, Tick;
//! ISCA 1989) as a production-quality Rust library. The facade re-exports
//! every member crate:
//!
//! * [`pim_trace`] — shared vocabulary: addresses, storage areas, memory
//!   operations, ports, reference statistics;
//! * [`pim_bus`] — bus transaction cost model and shared global memory;
//! * [`pim_cache`] — **the paper's contribution**: the five-state
//!   copy-back protocol, the separate lock directory, and the `DW`/`ER`/
//!   `RP`/`RI` optimized memory commands;
//! * [`pim_obs`] — the observability layer: latency histograms,
//!   coherence-transition matrices, per-PE cycle accounting, and the
//!   deterministic JSON report writer;
//! * [`pim_sim`] — the deterministic multiprocessor engine and the
//!   Illinois baseline protocol;
//! * [`fghc`] — the Flat Guarded Horn Clauses front end (lexer, parser,
//!   compiler);
//! * [`kl1_machine`] — the parallel KL1 abstract machine emulator (the
//!   workload generator of the paper's evaluation);
//! * [`workloads`] — the four benchmarks (Tri, Semi, Puzzle, Pascal) with
//!   Rust reference oracles and the run harness.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for the paper-vs-measured comparison of every
//! table and figure.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod harness;
pub mod report;

pub use fghc;
pub use kl1_machine;
pub use pim_bus;
pub use pim_cache;
pub use pim_obs;
pub use pim_sim;
pub use pim_trace;
pub use workloads;
