//! Observability layer for the PIM cache reproduction.
//!
//! The simulator's original statistics (reference counts, bus-cycle
//! totals, miss ratios) answer *what* the paper's tables report; this
//! crate answers *where the cycles went* and *how latencies are
//! distributed*, without perturbing the simulation:
//!
//! * [`Histogram`] — log2-bucketed latency histogram with p50/p90/p99
//!   queries and lossless merging;
//! * [`TimeSeries`] — fixed-interval aggregates keyed to simulated
//!   cycles (e.g. goal-queue depth over time);
//! * [`Observer`] — the event interface implemented by metric sinks and
//!   stubbed by [`NullObserver`]; components hold
//!   `Option<Box<dyn Observer>>`, so the un-observed configuration costs
//!   one branch per event site and allocates nothing;
//! * [`Metrics`] / [`SharedMetrics`] — the standard sink aggregating
//!   coherence-state [`TransitionMatrix`]es, bus and lock latency
//!   histograms, per-PE KL1 counters, and GC activity;
//! * [`PeCycles`] — the per-PE busy / bus-wait / lock-wait / idle cycle
//!   accounting produced by the simulation engine;
//! * [`Json`] — a dependency-free, insertion-ordered, deterministic
//!   JSON value for the machine-readable reports. Report files must be
//!   byte-identical across identical invocations, so nothing in this
//!   crate reads wall-clock time. [`parse_json`] reads such documents
//!   back, strictly.
//!
//! # Examples
//!
//! ```
//! use pim_obs::{Observer, SharedMetrics};
//! use pim_trace::{MemOp, PeId, StorageArea};
//!
//! let metrics = SharedMetrics::new();
//! let mut bus_view = metrics.clone();
//! bus_view.bus_grant(PeId(0), MemOp::Read, StorageArea::Heap, 1, 3, 13);
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.bus_wait.percentile(50.0), 3);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod observe;
pub mod parse;
pub mod series;

pub use hist::Histogram;
pub use json::Json;
pub use metrics::{
    histogram_json, matrix_json, pe_cycles_json, series_json, Metrics, SharedMetrics,
};
pub use observe::{CohState, Fanout, NullObserver, Observer, PeCycles, TransitionMatrix};
pub use parse::{parse_json, JsonExt};
pub use series::{SeriesWindow, TimeSeries};
