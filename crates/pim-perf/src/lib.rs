//! Host-performance observability for the simulator itself.
//!
//! Every other crate in this workspace measures the *simulated* machine
//! (bus cycles, miss ratios, makespans). This crate measures the
//! *simulator*: where its wall time goes, how much it allocates, and how
//! fast it chews through work. It is the substrate the perf-trajectory
//! files (`BENCH_*.json`, written by `pimbench`) and the `--perf` flag
//! of every binary report against.
//!
//! Three pieces:
//!
//! * **Scoped phase spans** — [`span`] returns an RAII guard that, while
//!   the global profiler is enabled, attributes the enclosed wall time
//!   to a named phase (`trace parse`, `engine run`, `gc`,
//!   `report write`, …). Spans nest; the
//!   aggregate tracks both *total* time (guard lifetime) and *self*
//!   time (total minus enclosed child spans), so a breakdown never
//!   double-counts a nested phase. Balance is structural: the guard
//!   closes the span on drop, so enter/exit pairs cannot be mismatched.
//! * **Allocation counting** — with the `count-alloc` feature, binaries
//!   can install [`CountingAlloc`] as their global allocator; spans then
//!   also attribute allocation counts and bytes per phase. Without the
//!   feature no allocator hook exists at all and the crate stays
//!   `forbid(unsafe_code)`.
//! * **Throughput reporting** — [`throughput_line`] renders the
//!   one-line `events/s` / `sim-cycles/s` summary every binary prints on
//!   stderr, and [`provenance`] captures the host/commit identity that
//!   stamps `host_perf` report blocks and `BENCH_*.json` files.
//!
//! Cost when disabled (the default): creating a span is one relaxed
//! atomic load — no clock is read, no lock is taken, nothing allocates.
//! The determinism suites run with the profiler disabled and see
//! byte-identical outputs; enabling `--perf` only ever *adds* the
//! `host_perf` block to a report, never changes any simulated number.

#![cfg_attr(not(feature = "count-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-alloc", deny(unsafe_code))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

use pim_obs::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

#[cfg(feature = "count-alloc")]
mod alloc;
#[cfg(feature = "count-alloc")]
pub use alloc::CountingAlloc;

/// The canonical phase names used across the workspace, so breakdowns
/// from different binaries line up.
pub mod phase {
    /// Reading or generating the input trace / compiling the program.
    pub const TRACE_PARSE: &str = "trace parse";
    /// The simulation engine's main loop.
    pub const ENGINE_RUN: &str = "engine run";
    /// KL1 machine stop-and-copy garbage collection.
    pub const GC: &str = "gc";
    /// Serializing and writing reports, profiles, and trace files.
    pub const REPORT_WRITE: &str = "report write";
    /// Writing or restoring a `pim-ckpt/v1` snapshot.
    pub const CHECKPOINT: &str = "checkpoint";
    /// One experiment cell in the `repro` / `pimbench` harnesses.
    pub const EXPERIMENT: &str = "experiment";
}

/// Aggregated statistics for one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (one of [`phase`], or caller-defined).
    pub name: &'static str,
    /// Closed span count.
    pub count: u64,
    /// Summed guard lifetimes. Nested spans of the *same* phase each
    /// contribute their full lifetime, so recursive nesting over-counts
    /// total (self time stays exact); the workspace's phases don't nest
    /// recursively.
    pub total_ns: u64,
    /// Summed lifetimes minus time spent in enclosed child spans.
    pub self_ns: u64,
    /// Allocations attributed to this phase's self time (0 unless the
    /// `count-alloc` allocator is installed).
    pub allocs: u64,
    /// Bytes allocated, attributed like `allocs`.
    pub alloc_bytes: u64,
}

/// A snapshot of the profiler: wall time since [`Profiler::enable`] and
/// the per-phase breakdown, sorted by name for stable rendering.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Wall nanoseconds since the profiler was enabled.
    pub wall_ns: u64,
    /// Whether a counting allocator was live (alloc columns meaningful).
    pub alloc_counting: bool,
    /// Per-phase aggregates, sorted by phase name.
    pub phases: Vec<PhaseStat>,
}

impl Report {
    /// Wire form for the `host_perf` report block and `BENCH_*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_ns", Json::from(self.wall_ns)),
            ("alloc_counting", Json::from(self.alloc_counting)),
            (
                "phases",
                Json::arr(self.phases.iter().map(|p| {
                    let mut o = Json::obj([
                        ("name", Json::from(p.name)),
                        ("count", Json::from(p.count)),
                        ("total_ns", Json::from(p.total_ns)),
                        ("self_ns", Json::from(p.self_ns)),
                    ]);
                    if self.alloc_counting {
                        o.push("allocs", Json::from(p.allocs));
                        o.push("alloc_bytes", Json::from(p.alloc_bytes));
                    }
                    o
                })),
            ),
        ])
    }

    /// Multi-line human breakdown for stderr (each line `[perf]`-tagged
    /// so it interleaves safely with other diagnostics).
    pub fn render(&self) -> String {
        let mut out = format!("[perf] wall {}\n", fmt_ns(self.wall_ns as f64));
        if self.phases.is_empty() {
            out.push_str("[perf] no phases recorded\n");
            return out;
        }
        let alloc_hdr = if self.alloc_counting {
            "      allocs   alloc bytes"
        } else {
            ""
        };
        out.push_str(&format!(
            "[perf] {:<20} {:>7} {:>11} {:>11}{alloc_hdr}\n",
            "phase", "count", "total", "self"
        ));
        for p in &self.phases {
            let alloc_cols = if self.alloc_counting {
                format!(" {:>11} {:>13}", p.allocs, p.alloc_bytes)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "[perf] {:<20} {:>7} {:>11} {:>11}{alloc_cols}\n",
                p.name,
                p.count,
                fmt_ns(p.total_ns as f64),
                fmt_ns(p.self_ns as f64),
            ));
        }
        out
    }
}

/// One open span on a thread's stack.
struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
    child_allocs: u64,
    child_bytes: u64,
}

struct State {
    started: Option<Instant>,
    stacks: Vec<(ThreadId, Vec<Frame>)>,
    phases: Vec<(&'static str, PhaseStat)>,
}

impl State {
    const fn new() -> State {
        State {
            started: None,
            stacks: Vec::new(),
            phases: Vec::new(),
        }
    }

    fn stat_mut(&mut self, name: &'static str) -> &mut PhaseStat {
        let idx = match self.phases.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.phases.push((
                    name,
                    PhaseStat {
                        name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                        allocs: 0,
                        alloc_bytes: 0,
                    },
                ));
                self.phases.len() - 1
            }
        };
        &mut self.phases[idx].1
    }
}

/// A phase profiler. Binaries use the process-global instance through
/// the free functions ([`enable`], [`span`], [`take_report`]); tests
/// construct their own instances so concurrent tests never share state.
pub struct Profiler {
    enabled: AtomicBool,
    inner: Mutex<State>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// A disabled profiler with no recorded phases.
    pub const fn new() -> Profiler {
        Profiler {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(State::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Starts recording: the wall clock begins now and subsequent
    /// [`Profiler::span`] calls are live.
    pub fn enable(&self) {
        self.lock().started = Some(Instant::now());
        self.enabled.store(true, Ordering::Release);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span attributing the guard's lifetime to `name`. When the
    /// profiler is disabled this is a single atomic load and the guard
    /// is inert.
    #[must_use = "the span closes when the guard drops"]
    pub fn span<'p>(&'p self, name: &'static str) -> Span<'p> {
        if !self.is_enabled() {
            return Span { prof: None, name };
        }
        let (allocs, bytes) = thread_alloc_counters();
        let mut state = self.lock();
        let tid = std::thread::current().id();
        let stack = match state.stacks.iter_mut().position(|(t, _)| *t == tid) {
            Some(i) => &mut state.stacks[i].1,
            None => {
                state.stacks.push((tid, Vec::new()));
                let last = state.stacks.len() - 1;
                &mut state.stacks[last].1
            }
        };
        stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
            start_allocs: allocs,
            start_bytes: bytes,
            child_allocs: 0,
            child_bytes: 0,
        });
        Span {
            prof: Some(self),
            name,
        }
    }

    fn close_span(&self, name: &'static str) {
        let (allocs_now, bytes_now) = thread_alloc_counters();
        let mut state = self.lock();
        let tid = std::thread::current().id();
        let Some(stack_idx) = state.stacks.iter().position(|(t, _)| *t == tid) else {
            return; // report taken while the span was open
        };
        // Guards drop in LIFO order per thread, so the top frame is ours
        // unless the state was reset mid-span.
        let Some(frame) = state.stacks[stack_idx].1.pop() else {
            return;
        };
        if frame.name != name {
            // State was reset and re-populated mid-span; drop the frame
            // rather than attribute nonsense.
            state.stacks[stack_idx].1.push(frame);
            return;
        }
        let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        let allocs = allocs_now.saturating_sub(frame.start_allocs);
        let bytes = bytes_now.saturating_sub(frame.start_bytes);
        let self_allocs = allocs.saturating_sub(frame.child_allocs);
        let self_bytes = bytes.saturating_sub(frame.child_bytes);
        if let Some(parent) = state.stacks[stack_idx].1.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed);
            parent.child_allocs = parent.child_allocs.saturating_add(allocs);
            parent.child_bytes = parent.child_bytes.saturating_add(bytes);
        }
        let stat = state.stat_mut(name);
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed);
        stat.self_ns = stat.self_ns.saturating_add(self_ns);
        stat.allocs = stat.allocs.saturating_add(self_allocs);
        stat.alloc_bytes = stat.alloc_bytes.saturating_add(self_bytes);
    }

    /// How many spans are currently open across all threads — 0 whenever
    /// every guard has dropped (the balance invariant).
    pub fn open_spans(&self) -> usize {
        self.lock().stacks.iter().map(|(_, s)| s.len()).sum()
    }

    /// A snapshot of the closed-span aggregates without resetting them.
    /// Open spans are not counted (they close on guard drop).
    pub fn snapshot(&self) -> Report {
        let state = self.lock();
        let mut phases: Vec<PhaseStat> = state.phases.iter().map(|(_, s)| s.clone()).collect();
        phases.sort_by_key(|p| p.name);
        Report {
            wall_ns: state.started.map_or(0, |s| {
                u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }),
            alloc_counting: alloc_counting(),
            phases,
        }
    }

    /// [`Profiler::snapshot`], then clears the aggregates and restarts
    /// the wall clock. Open spans are discarded from the aggregate (their
    /// guards become inert).
    pub fn take_report(&self) -> Report {
        let report = self.snapshot();
        let mut state = self.lock();
        state.phases.clear();
        state.stacks.clear();
        if state.started.is_some() {
            state.started = Some(Instant::now());
        }
        report
    }
}

/// RAII guard for one phase span; closes the span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct Span<'p> {
    prof: Option<&'p Profiler>,
    name: &'static str,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(prof) = self.prof {
            prof.close_span(self.name);
        }
    }
}

/// The process-global profiler behind [`enable`] / [`span`].
pub static GLOBAL: Profiler = Profiler::new();

/// Enables the global profiler (the `--perf` switch).
pub fn enable() {
    GLOBAL.enable();
}

/// Whether the global profiler is recording.
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Opens a span on the global profiler. One relaxed atomic load when
/// profiling is off.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> Span<'static> {
    GLOBAL.span(name)
}

/// Snapshot of the global profiler without resetting it.
pub fn snapshot() -> Report {
    GLOBAL.snapshot()
}

/// Takes and clears the global profiler's aggregates.
pub fn take_report() -> Report {
    GLOBAL.take_report()
}

#[cfg(feature = "count-alloc")]
fn thread_alloc_counters() -> (u64, u64) {
    alloc::thread_counters()
}

#[cfg(not(feature = "count-alloc"))]
fn thread_alloc_counters() -> (u64, u64) {
    (0, 0)
}

#[cfg(feature = "count-alloc")]
fn alloc_counting() -> bool {
    alloc::installed()
}

#[cfg(not(feature = "count-alloc"))]
fn alloc_counting() -> bool {
    false
}

/// Formats nanoseconds with an auto-scaled unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Formats a per-second rate with an auto-scaled magnitude (`K`/`M`/`G`).
pub fn fmt_rate(per_sec: f64) -> String {
    if !per_sec.is_finite() {
        return "-".into();
    }
    if per_sec >= 1e9 {
        format!("{:.2} G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} ")
    }
}

/// Renders the one-line throughput summary every binary prints on
/// stderr at the end of a run:
///
/// ```
/// let line = pim_perf::throughput_line(
///     "tracesim",
///     std::time::Duration::from_millis(500),
///     &[(1_000_000, "accesses"), (4_000_000, "sim-cycles")],
/// );
/// assert_eq!(
///     line,
///     "[throughput] tracesim: 1000000 accesses (2.00 M/s), \
///      4000000 sim-cycles (8.00 M/s) in 0.50 s wall"
/// );
/// ```
pub fn throughput_line(tool: &str, wall: Duration, counts: &[(u64, &str)]) -> String {
    let secs = wall.as_secs_f64();
    let mut parts: Vec<String> = Vec::with_capacity(counts.len());
    for &(n, unit) in counts {
        let rate = if secs > 0.0 {
            format!("{}/s", fmt_rate(n as f64 / secs).trim_end())
        } else {
            "-".into()
        };
        parts.push(format!("{n} {unit} ({rate})"));
    }
    format!(
        "[throughput] {tool}: {} in {:.2} s wall",
        parts.join(", "),
        secs
    )
}

/// Host and build provenance stamped into `host_perf` blocks and
/// `BENCH_*.json` files so numbers are comparable across machines.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Hostname (from `$HOSTNAME` or `/etc/hostname`; `"unknown"` when
    /// neither exists).
    pub host: String,
    /// `std::env::consts::OS`.
    pub os: &'static str,
    /// `std::env::consts::ARCH`.
    pub arch: &'static str,
    /// Current git commit (short), read from `.git/HEAD` by walking up
    /// from the working directory; `None` outside a git checkout.
    pub commit: Option<String>,
}

impl Provenance {
    /// Wire form used inside `host_perf` blocks.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("host", Json::from(self.host.as_str())),
            ("os", Json::from(self.os)),
            ("arch", Json::from(self.arch)),
            (
                "commit",
                self.commit.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }
}

/// Captures the current host/commit identity. Never fails: missing
/// pieces degrade to `"unknown"` / `None`.
pub fn provenance() -> Provenance {
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Provenance {
        host,
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        commit: git_commit(),
    }
}

/// Resolves HEAD to a short commit hash by reading `.git` files — no
/// subprocess, so it works in sandboxes without `git` on PATH.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let full = if let Some(reference) = text.strip_prefix("ref: ") {
                let direct = dir.join(".git").join(reference);
                if let Ok(hash) = std::fs::read_to_string(&direct) {
                    hash.trim().to_string()
                } else {
                    // The ref may only exist packed.
                    let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).ok()?;
                    packed
                        .lines()
                        .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
                        .find_map(|l| {
                            let (hash, name) = l.split_once(' ')?;
                            (name == reference).then(|| hash.to_string())
                        })?
                }
            } else {
                text.to_string() // detached HEAD
            };
            let short: String = full.chars().take(12).collect();
            return (short.len() == 12 && short.chars().all(|c| c.is_ascii_hexdigit()))
                .then_some(short);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let p = Profiler::new();
        {
            let _a = p.span("engine run");
            let _b = p.span("gc");
        }
        assert_eq!(p.open_spans(), 0);
        let r = p.snapshot();
        assert_eq!(r.phases.len(), 0);
        assert_eq!(r.wall_ns, 0);
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        let p = Profiler::new();
        p.enable();
        {
            let _outer = p.span("engine run");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = p.span("gc");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let r = p.take_report();
        let outer = r.phases.iter().find(|s| s.name == "engine run").unwrap();
        let inner = r.phases.iter().find(|s| s.name == "gc").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert!(inner.self_ns <= inner.total_ns);
        // take_report cleared the aggregate.
        assert!(p.take_report().phases.is_empty());
    }

    #[test]
    fn sibling_spans_aggregate_counts() {
        let p = Profiler::new();
        p.enable();
        for _ in 0..10 {
            let _s = p.span("report write");
        }
        let r = p.snapshot();
        let s = &r.phases[0];
        assert_eq!((s.name, s.count), ("report write", 10));
        assert!(s.self_ns <= s.total_ns);
    }

    #[test]
    fn spans_on_worker_threads_are_tracked_independently() {
        let p = Profiler::new();
        p.enable();
        std::thread::scope(|scope| {
            let _main = p.span("engine run");
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = p.span("experiment");
                    std::thread::sleep(Duration::from_millis(1));
                });
            }
        });
        assert_eq!(p.open_spans(), 0);
        let r = p.snapshot();
        let workers = r.phases.iter().find(|s| s.name == "experiment").unwrap();
        assert_eq!(workers.count, 4);
        // Worker spans never nested under the main thread's span, so the
        // main span's self time is its own lifetime.
        let main = r.phases.iter().find(|s| s.name == "engine run").unwrap();
        assert_eq!(main.self_ns, main.total_ns);
    }

    #[test]
    fn report_json_is_shaped() {
        let p = Profiler::new();
        p.enable();
        drop(p.span("gc"));
        let j = p.snapshot().to_json().to_string_compact();
        assert!(j.contains("\"wall_ns\""), "{j}");
        assert!(j.contains("\"phases\""), "{j}");
        assert!(j.contains("\"name\":\"gc\""), "{j}");
        assert!(j.contains("\"self_ns\""), "{j}");
    }

    #[test]
    fn throughput_line_formats_rates() {
        let line = throughput_line(
            "tracesim",
            Duration::from_millis(500),
            &[(1_000_000, "accesses"), (4_000_000, "sim-cycles")],
        );
        assert_eq!(
            line,
            "[throughput] tracesim: 1000000 accesses (2.00 M/s), \
             4000000 sim-cycles (8.00 M/s) in 0.50 s wall"
        );
    }

    #[test]
    fn rate_and_ns_formatting() {
        assert_eq!(fmt_rate(1.5e9), "1.50 G");
        assert_eq!(fmt_rate(2.5e3), "2.50 K");
        assert_eq!(fmt_rate(12.0), "12.0 ");
        assert_eq!(fmt_ns(1.5e9), "1.500 s");
        assert_eq!(fmt_ns(250.0), "250 ns");
    }

    #[test]
    fn provenance_never_fails() {
        let p = provenance();
        assert!(!p.host.is_empty());
        let j = p.to_json().to_string_compact();
        assert!(j.contains("\"os\""), "{j}");
    }
}
