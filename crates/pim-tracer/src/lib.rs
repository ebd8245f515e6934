//! Bounded, deterministic event tracing for the PIM cache simulator.
//!
//! Where `pim-obs` aggregates (histograms, matrices, totals), this
//! crate records *individual* cycle-stamped events — coherence
//! transitions, bus transactions with their queueing and hold spans,
//! lock waits with the release that ended them, KL1 reductions /
//! suspensions / resumptions, GC, and fault chains — into a bounded
//! ring and exports them as Chrome `trace_event` JSON that loads in
//! Perfetto or `chrome://tracing`.
//!
//! The three properties everything here is built around:
//!
//! 1. **Determinism.** A trace is a pure function of the simulated
//!    run: the ring retains the smallest events under a total order
//!    (never "the most recent", which depends on arrival order) and
//!    the exporter sorts before writing, so reruns, and runs resumed
//!    from a checkpoint, produce byte-identical files.
//! 2. **Bounded and honest.** The ring never reallocates in steady
//!    state and never drops silently: `dropped = emitted - recorded`
//!    is carried in the file's `otherData`.
//! 3. **Causally linked.** Spans carry enough identity to chain: a
//!    lock-wait span names the address and the cycle of the unlock
//!    that ended it; a suspension and its resumption share the goal
//!    record's address; a miss's state transition shares its issue
//!    cycle with the bus span that serviced it. `pimtrace
//!    critical-path` uses these links to chase the makespan across
//!    PEs.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod analyze;
pub mod chrome;
pub mod event;
pub mod read;

pub use analyze::{
    bus_occupancy_report, critical_path, critical_path_report, diff, is_report,
    lock_hotspots_report, report_diff, DiffReport, Segment,
};
pub use chrome::{export_chrome, TraceMeta, SCHEMA};
pub use event::{Event, EventKind, SharedTracer, TraceBuffer, DEFAULT_CAP};
pub use read::{parse_json, ChromeEvent, JsonExt, Trace};

/// Parses the `--trace FILE[:cap=N]` argument form shared by the
/// simulator binaries: an optional trailing `:cap=N` sets the ring
/// capacity, everything before it is the output path. A thin wrapper
/// over [`pim_ckpt::spec::parse_file_spec`], so every file-spec flag in
/// the workspace emits the same named-flag diagnostics.
pub fn parse_trace_spec(spec: &str) -> Result<(String, usize), String> {
    let parsed = pim_ckpt::spec::parse_file_spec("trace", spec, &["cap"])?;
    let cap = parsed
        .get_u64("trace", "cap")?
        .map_or(DEFAULT_CAP, |n| n as usize);
    Ok((parsed.path, cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_spec_defaults_and_overrides() {
        assert_eq!(
            parse_trace_spec("out.json"),
            Ok(("out.json".into(), DEFAULT_CAP))
        );
        assert_eq!(
            parse_trace_spec("out.json:cap=512"),
            Ok(("out.json".into(), 512))
        );
        // Windows-style paths keep their drive colon.
        assert_eq!(
            parse_trace_spec("C:/t/out.json:cap=1"),
            Ok(("C:/t/out.json".into(), 1))
        );
        assert!(parse_trace_spec("out.json:cap=x").is_err());
        assert!(parse_trace_spec(":cap=5").is_err());
    }
}
