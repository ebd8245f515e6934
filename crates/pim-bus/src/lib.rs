//! Shared-bus and global-memory substrate for the PIM cache reproduction.
//!
//! The paper (Section 4.2) models a single common bus used for swap-in from
//! shared memory, swap-out to shared memory, cache-to-cache transfer, and
//! invalidation, under three assumptions: a one-word bus carrying tag and
//! data, an eight-cycle shared-memory access whose swap-out writes are
//! hidden by a subsequent operation, and non-preemptive transactions.
//!
//! Those assumptions yield the paper's six bus access patterns, which
//! [`BusTiming`] reproduces exactly for the default parameters (and
//! generalizes for the bus-width study of Section 4.4):
//!
//! | pattern                          | cycles |
//! |----------------------------------|--------|
//! | swap-in from memory + swap-out   | 13     |
//! | swap-in from memory, no swap-out | 13     |
//! | cache-to-cache + swap-out        | 10     |
//! | cache-to-cache, no swap-out      | 7      |
//! | swap-out only (only from `DW`)   | 5      |
//! | invalidation                     | 2      |
//!
//! # Examples
//!
//! ```
//! use pim_bus::{BusTiming, Transaction};
//! let t = BusTiming::paper_default();
//! assert_eq!(t.cycles(Transaction::MemoryFetch { swap_out: true }, 4), 13);
//! assert_eq!(t.cycles(Transaction::CacheToCache { swap_out: false }, 4), 7);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod arbiter;
pub mod memory;
pub mod stats;
pub mod timing;

pub use arbiter::{arbitrate, arbitrate_with_retries, Grant, Nack};
pub use memory::SharedMemory;
pub use stats::{BusCommand, BusStats};
pub use timing::{BusTiming, Transaction};
