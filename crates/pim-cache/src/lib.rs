//! The PIM coherent cache protocol — the primary contribution of
//! *"Design and Performance of a Coherent Cache for Parallel Logic
//! Programming Architectures"* (Goto, Matsumoto, Tick; ISCA 1989).
//!
//! The protocol is a copy-back, write-allocate, invalidation-based snooping
//! cache with **five states** — `EM` (exclusive modified), `EC` (exclusive
//! clean), `SM` (shared modified), `S` (shared), `INV` (invalid) — plus a
//! **separate word-granular lock directory** with three states (`LCK`,
//! `LWAIT`, `EMP`), and four software-controlled memory commands tuned to
//! KL1's referencing behaviour:
//!
//! * **`DW`** *direct write* — allocate a block on a boundary miss without
//!   fetching from memory (new heap structures, fresh goal records);
//! * **`ER`** *exclusive read* — read data that is dead afterwards:
//!   invalidates the remote supplier and purges the local copy after the
//!   last word;
//! * **`RP`** *read purge* — read and forcibly purge, for the tail of a
//!   read-once region that doesn't end on a block boundary;
//! * **`RI`** *read invalidate* — read with intent to rewrite, fetching
//!   exclusively so no later invalidate command is needed.
//!
//! Unlike the Illinois protocol, a dirty block moved cache-to-cache is *not*
//! copied back to shared memory — the receiver-side `SM`/`EM` state keeps
//! ownership of the dirty data, which keeps memory modules out of the
//! critical path when the cache-to-cache rate is high.
//!
//! The top-level entry point is [`PimSystem`]: a set of per-PE caches and
//! lock directories around one bus and one shared memory, driven one memory
//! operation at a time.
//!
//! The Illinois baseline the paper compares against is the same engine
//! under other rules: [`IllinoisSystem`]. Both are instantiations of
//! [`CoherentSystem`], generic over a [`CoherenceProtocol`] whose three
//! compile-time rules ([`rules`]) say whether the optimized commands are
//! honoured, whether a dirty block supplied cache-to-cache migrates or is
//! reflected into memory, and whether locks live in the hardware lock
//! directory or are bus-locked read-modify-writes. Both protocols pass the
//! same exhaustive model check (`tests/model_check.rs`).
//!
//! # Examples
//!
//! ```
//! use pim_cache::{CacheGeometry, Outcome, PimSystem, SystemConfig};
//! use pim_trace::{MemOp, PeId};
//!
//! let mut sys = PimSystem::new(SystemConfig {
//!     pes: 2,
//!     geometry: CacheGeometry::paper_default(),
//!     ..SystemConfig::default()
//! });
//!
//! // PE0 creates a structure with direct writes: no fetch, no bus traffic.
//! let heap = sys.area_map().base(pim_trace::StorageArea::Heap);
//! sys.access(PeId(0), MemOp::DirectWrite, heap, Some(42)).unwrap();
//! // PE1 reads it: a cache-to-cache transfer.
//! let out = sys.access(PeId(1), MemOp::Read, heap, None).unwrap();
//! match out {
//!     Outcome::Done { value, .. } => assert_eq!(value, 42),
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod array;
pub mod error;
pub mod geometry;
pub mod lockdir;
pub mod optmask;
pub mod protocol;
pub mod rules;
pub mod state;
pub mod stats;

pub use array::{CacheBank, Line};
pub use error::ProtocolError;
pub use geometry::{CacheGeometry, ShapeError};
pub use lockdir::{LockDirectory, LockState};
pub use optmask::{OptColumn, OptMask};
pub use protocol::{CoherentSystem, Outcome, SystemConfig};
pub use rules::{CoherenceProtocol, Illinois, IllinoisSystem, Pim, PimSystem};
pub use state::BlockState;
pub use stats::{AccessStats, LockStats};
