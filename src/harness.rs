//! The run harness shared by `tracesim` and `kl1run`: the flags both
//! tools take, and the lifecycle of one run on the sequential
//! [`Engine`] — setup, observers, the chunked drive with checkpoints,
//! SIGINT and the deadline, and the outputs.
//!
//! A tool supplies its domain flags (a closure over [`Args`]), its
//! input, the prefix of its configuration digest, and the body of its
//! report; [`Harness`] does the rest. Each setup step is its own call,
//! so each tool keeps its own order of checks.
//!
//! # Run flags
//!
//! ```text
//! --faults SPEC    inject deterministic faults into the cache
//!                  simulation, e.g. `seed=7,rate=0.01` (also
//!                  `rate_ppm=N`, `retries=N`). Every injected fault is
//!                  recovered; the same seed always produces the same
//!                  fault schedule.
//! --timeout SECS   wall-clock deadline on the run: a pathological
//!                  input stops with a structured wall-clock-expired
//!                  diagnostic (simulated cycle and step count reached)
//!                  and exit 1 instead of running forever. With
//!                  --checkpoint, a final snapshot is drained first so
//!                  the run can be resumed with a larger budget. A
//!                  deadline too far out to represent is no deadline.
//! --perf           profile the simulator itself: per-phase wall-time
//!                  breakdown on stderr, plus a `host_perf` block (host
//!                  and commit provenance and the same breakdown) in the
//!                  report. Without --perf the report bytes are
//!                  unchanged. Build with `--features perf-alloc` to add
//!                  per-phase allocation counts. Every run prints a
//!                  one-line throughput summary on stderr regardless.
//! --report FILE    (`--profile FILE` in kl1run) write a JSON report
//!                  (`pim-repro/v1`: cycle accounts, latency histograms,
//!                  coherence transitions, fault recovery counters) to
//!                  FILE
//! --trace FILE[:cap=N]
//!                  record cycle-stamped events (coherence transitions,
//!                  bus spans, lock waits, fault chains, and in kl1run
//!                  reductions, suspensions and GC) to FILE as Chrome
//!                  trace_event JSON, loadable in Perfetto and analyzable
//!                  with `pimtrace`. The ring keeps at most N events
//!                  (default 2^20); drops are counted in the file, never
//!                  silent. Byte-identical from run to run.
//! --checkpoint FILE[:every=N]
//!                  write crash-safe `pim-ckpt/v1` snapshots of the whole
//!                  simulator state to FILE: every N committed steps when
//!                  `:every=N` is given, and always on SIGINT (the run
//!                  drains to a final snapshot and exits 130). Snapshot
//!                  writes are atomic; a crash mid-write leaves the
//!                  previous snapshot intact.
//! --resume FILE    restore a `--checkpoint` snapshot and continue. The
//!                  remaining flags (except --checkpoint and --resume)
//!                  and the input must match the checkpointed run; the
//!                  resumed run's outputs are byte-identical to an
//!                  uninterrupted run's (modulo the report's
//!                  `checkpoint` block).
//! --status FILE[:every=SECS]
//!                  write a crash-safe `pim-status/v1` live snapshot
//!                  (watch with `sweepwatch FILE`), updated at engine
//!                  chunk boundaries at most every SECS seconds
//!                  (default 2). Purely observational: stdout, the
//!                  report and the trace bytes are unchanged.
//! --metrics FILE   write Prometheus text-format metrics (textfile-
//!                  collector compatible) on the same cadence.
//! --io-chaos seed=N[,rate=PPM][,kinds=...]
//!                  inject deterministic disk faults (ENOSPC, EIO, short
//!                  writes, torn reads) under every durable write —
//!                  report, trace, checkpoint, telemetry. All faults are
//!                  recovered with bounded retries; the emitted files are
//!                  byte-identical to an undisturbed run. Also
//!                  `retries=N`, `backoff_ms=N`, `kill=CLASS@N` (see
//!                  `pim_ckpt::vfs`).
//! ```
//!
//! A bad flag value exits 2 with the flag named; exit 1 means a refused
//! `--resume` file, a failed simulation or an unwritable output at the
//! end. `repro` and `sweeprun` run whole grids of cells rather than one
//! engine, and live in the packages the simbench benchmark builds, so
//! they keep their own flag loops.

use std::fmt::Display;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pim_fault::{FaultConfig, FaultPlan};
use pim_obs::{Fanout, Json, Observer, PeCycles, SharedMetrics};
use pim_sim::{Engine, MemorySystem, Process, RunStats, SimError};
use pim_tracer::SharedTracer;

use crate::report;

/// What a tool tells the harness about itself.
pub struct Tool {
    /// The binary's name: every diagnostic's prefix and the checkpoint's
    /// `meta` tag.
    pub name: &'static str,
    /// The report flag, `--report` or `--profile`.
    pub report_flag: &'static str,
    /// What the configuration digest covers besides the flags, for the
    /// resume-mismatch diagnostic: "input trace", "program source".
    pub input: &'static str,
    /// The usage line with the tool's own flags.
    pub usage: &'static str,
}

/// The run flags as given on the command line; spec-valued flags stay
/// unparsed until their setup step validates them.
#[derive(Debug, Default)]
pub struct RunFlags {
    pub perf: bool,
    pub faults: Option<FaultConfig>,
    pub timeout_secs: Option<u64>,
    /// `--report` or `--profile`.
    pub report: Option<String>,
    pub trace: Option<String>,
    pub checkpoint: Option<String>,
    pub resume: Option<String>,
    pub status: Option<String>,
    pub metrics: Option<String>,
}

/// The command line after the flag being parsed, for domain flags'
/// values. Every failure exits 2 naming the flag.
pub struct Args {
    tool: &'static str,
    rest: std::iter::Skip<std::env::Args>,
}

impl Args {
    /// The value after `flag`; without one, exits 2 saying the flag
    /// `needs` it ("a file argument", ...).
    pub fn value(&mut self, flag: &str, needs: &str) -> String {
        self.rest
            .next()
            .unwrap_or_else(|| fail(self.tool, format_args!("{flag} needs {needs}")))
    }

    /// The value after `flag` parsed straight into its field's type and
    /// at least `min`; anything else exits 2 naming the flag and value.
    pub fn number<T: std::str::FromStr + PartialOrd + Display>(&mut self, flag: &str, min: T) -> T {
        let v = self.value(flag, "a numeric argument");
        let n: T = v.parse().unwrap_or_else(|_| {
            let digits = !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit());
            let why = if digits {
                "out of range"
            } else {
                "expected a number"
            };
            fail(
                self.tool,
                format_args!("invalid value `{v}` for {flag} ({why})"),
            )
        });
        if n < min {
            fail(self.tool, format_args!("{flag} must be at least {min}"));
        }
        n
    }
}

/// The configuration digest a tool's snapshots carry: the tool's
/// `prefix` (its name and domain flags), then the run flags that shape
/// results, then the input `input` appends. The output paths stay out;
/// the trace ring's capacity, which shapes the recorded events, goes in.
pub fn config_digest(
    tool: &Tool,
    flags: &RunFlags,
    prefix: &str,
    input: impl FnOnce(&mut Vec<u8>),
) -> u64 {
    let trace_cap = flags
        .trace
        .as_deref()
        .map(|s| pim_tracer::parse_trace_spec(s).ok().map(|(_, cap)| cap));
    let mut bytes = format!(
        "{prefix}faults={:?}|{}={}|trace_cap={trace_cap:?}|",
        flags.faults,
        tool.report_flag.trim_start_matches('-'),
        flags.report.is_some(),
    )
    .into_bytes();
    input(&mut bytes);
    pim_ckpt::fnv1a64(&bytes)
}

/// Prints `tool: msg` and exits 2, the exit code of every bad flag.
fn fail(tool: &str, msg: impl Display) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(2)
}

/// Prints `tool: msg` and exits 1, the exit code of every failure at
/// run time.
fn die(tool: &str, msg: impl Display) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(1)
}

/// A process the harness can snapshot and restore: the engine's
/// workload side plus its checkpoint hooks.
pub trait Resumable: Process {
    /// Serializes the process state.
    fn save_ckpt(&self, w: &mut pim_ckpt::Writer);
    /// Restores state saved by [`Resumable::save_ckpt`].
    ///
    /// # Errors
    ///
    /// The refusal, when the snapshot does not fit this process.
    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError>;
}

impl Resumable for pim_sim::Replayer {
    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        pim_sim::Replayer::save_ckpt(self, w);
    }
    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        pim_sim::Replayer::restore_ckpt(self, r)
    }
}

impl Resumable for kl1_machine::Cluster {
    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        kl1_machine::Cluster::save_ckpt(self, w);
    }
    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        kl1_machine::Cluster::restore_ckpt(self, r)
    }
}

/// One run of one tool: the parsed run flags plus everything the run
/// shares between its checkpoint, telemetry and output paths.
pub struct Harness {
    tool: Tool,
    started: Instant,
    flags: RunFlags,
    config_digest: u64,
    checkpoint: Option<(String, Option<u64>)>,
    resume_payload: Option<Vec<u8>>,
    sigint: Option<&'static AtomicBool>,
    /// Live telemetry and the key of the run's one cell.
    telemetry: Option<(pim_telemetry::RunStatus, String)>,
    report: Option<(String, SharedMetrics)>,
    traced: Option<(String, SharedTracer)>,
    // Checkpoint provenance for the report's `checkpoint` block.
    resumed_from_cycle: Option<u64>,
    snapshots_written: u64,
}

impl Harness {
    /// Parses the command line: the run flags here, every other
    /// argument through `domain`, which returns `false` for one it does
    /// not know (an unknown flag: exit 2 with the usage). Installs
    /// `--io-chaos` as it is read and enables `--perf` at the end.
    pub fn parse(tool: Tool, mut domain: impl FnMut(&str, &mut Args) -> bool) -> Harness {
        let started = Instant::now();
        let mut flags = RunFlags::default();
        let mut args = Args {
            tool: tool.name,
            rest: std::env::args().skip(1),
        };
        while let Some(a) = args.rest.next() {
            match a.as_str() {
                "--perf" => flags.perf = true,
                "--faults" => {
                    let spec = args.value("--faults", "a spec like seed=7,rate=0.01");
                    match FaultConfig::parse_spec(&spec) {
                        Ok(c) => flags.faults = Some(c),
                        Err(e) => fail(tool.name, format_args!("bad --faults spec: {e}")),
                    }
                }
                "--timeout" => {
                    let secs = args.number("--timeout", 0u64);
                    if secs == 0 {
                        fail(tool.name, "--timeout must be at least 1 second");
                    }
                    flags.timeout_secs = Some(secs);
                }
                "--trace" => {
                    flags.trace = Some(args.value("--trace", "a file argument (FILE[:cap=N])"))
                }
                "--checkpoint" => {
                    let needs = "a file argument (FILE[:every=N])";
                    flags.checkpoint = Some(args.value("--checkpoint", needs));
                }
                "--resume" => {
                    flags.resume = Some(args.value("--resume", "a checkpoint file argument"))
                }
                "--status" => {
                    let needs = "a file argument (FILE[:every=SECS])";
                    flags.status = Some(args.value("--status", needs));
                }
                "--metrics" => flags.metrics = Some(args.value("--metrics", "a file argument")),
                "--io-chaos" => {
                    let needs = "a spec argument (seed=N[,rate=PPM][,kinds=...])";
                    let spec = args.value("--io-chaos", needs);
                    match pim_ckpt::vfs::IoChaosConfig::parse_spec(&spec) {
                        Ok(cfg) => pim_ckpt::vfs::install(cfg),
                        Err(e) => fail(tool.name, e),
                    }
                }
                "--help" | "-h" => usage(&tool),
                flag if flag == tool.report_flag => {
                    flags.report = Some(args.value(flag, "a file argument"))
                }
                other => {
                    if !domain(other, &mut args) {
                        eprintln!("{}: unknown flag `{other}`", tool.name);
                        usage(&tool)
                    }
                }
            }
        }
        if flags.perf {
            pim_perf::enable();
        }
        Harness {
            tool,
            started,
            flags,
            config_digest: 0,
            checkpoint: None,
            resume_payload: None,
            sigint: None,
            telemetry: None,
            report: None,
            traced: None,
            resumed_from_cycle: None,
            snapshots_written: 0,
        }
    }

    /// The run flags as given.
    pub fn flags(&self) -> &RunFlags {
        &self.flags
    }

    /// Prints the usage and exits 2.
    pub fn usage(&self) -> ! {
        usage(&self.tool)
    }

    /// Exits 2 with `tool: msg`: a flag error the tool found itself.
    pub fn fail(&self, msg: impl Display) -> ! {
        fail(self.tool.name, msg)
    }

    /// Validates `--checkpoint` (its spec and destination: exit 2) and
    /// loads the `--resume` payload (a missing or corrupt file is a
    /// refused checkpoint: exit 1), before the possibly long run.
    pub fn open_checkpoint(&mut self) {
        let tool = self.tool.name;
        if let Some(spec) = &self.flags.checkpoint {
            let parsed = pim_ckpt::parse_checkpoint_spec(spec)
                .unwrap_or_else(|e| fail(tool, format_args!("--checkpoint: {e}")));
            if let Err(e) = pim_ckpt::validate_destination(Path::new(&parsed.0)) {
                let path = &parsed.0;
                fail(
                    tool,
                    format_args!("--checkpoint: cannot write `{path}`: {e}"),
                );
            }
            self.checkpoint = Some(parsed);
            self.sigint = Some(pim_ckpt::install_sigint_flag());
        }
        if let Some(path) = &self.flags.resume {
            let payload = pim_ckpt::load_from_path(Path::new(path)).unwrap_or_else(|e| {
                die(
                    tool,
                    format_args!("--resume: refused checkpoint `{path}`: {e}"),
                )
            });
            self.resume_payload = Some(payload);
        }
    }

    /// Pins the run configuration into every snapshot, so a resume under
    /// different conditions is refused instead of silently diverging
    /// (see [`config_digest`]). Only a snapshot or a resume reads the
    /// digest, so without --checkpoint and --resume nothing is built.
    pub fn pin_config(&mut self, prefix: &str, input: impl FnOnce(&mut Vec<u8>)) {
        if self.flags.checkpoint.is_some() || self.flags.resume.is_some() {
            self.config_digest = config_digest(&self.tool, &self.flags, prefix, input);
        }
    }

    /// Starts live telemetry when `--status` or `--metrics` asks for it:
    /// a side file only, so stdout, the report and the trace bytes are
    /// identical with or without it. The whole run is one cell, `key`;
    /// engine chunks feed its step counters.
    pub fn open_telemetry(&mut self, key: String) {
        if self.flags.status.is_none() && self.flags.metrics.is_none() {
            return;
        }
        let tool = self.tool.name;
        let t = pim_telemetry::RunStatus::new(tool);
        t.set_workers(1);
        t.register_cell(&key);
        if let Some(spec) = &self.flags.status {
            let parsed = pim_ckpt::spec::parse_file_spec("status", spec, &["every"])
                .unwrap_or_else(|e| fail(tool, e));
            let every = parsed
                .get_u64("status", "every")
                .unwrap_or_else(|e| fail(tool, e));
            let every = every.unwrap_or(pim_telemetry::DEFAULT_EVERY_SECS);
            if let Err(e) = t.attach_status_file(&parsed.path, every) {
                let path = &parsed.path;
                fail(tool, format_args!("--status: cannot write `{path}`: {e}"));
            }
        }
        if let Some(path) = &self.flags.metrics {
            if let Err(e) = t.attach_metrics_file(path) {
                fail(tool, format_args!("--metrics: cannot write `{path}`: {e}"));
            }
        }
        self.telemetry = Some((t, key));
    }

    /// Validates the report and trace destinations now, so a bad path
    /// fails in milliseconds with the flag named, not after the run —
    /// probing without creating or truncating anything, so a failed run
    /// never leaves an empty file behind — and creates their sinks.
    pub fn open_outputs(&mut self) {
        let tool = self.tool.name;
        if let Some(path) = &self.flags.report {
            if let Err(e) = pim_ckpt::validate_destination(Path::new(path)) {
                let flag = self.tool.report_flag;
                fail(tool, format_args!("{flag}: cannot write `{path}`: {e}"));
            }
            self.report = Some((path.clone(), SharedMetrics::new()));
        }
        if let Some(spec) = &self.flags.trace {
            let (path, cap) = pim_tracer::parse_trace_spec(spec)
                .unwrap_or_else(|e| fail(tool, format_args!("--trace: {e}")));
            if let Err(e) = pim_ckpt::validate_destination(Path::new(&path)) {
                fail(tool, format_args!("--trace: cannot write `{path}`: {e}"));
            }
            self.traced = Some((path, SharedTracer::with_capacity(cap)));
        }
    }

    /// One observer per component slot: metrics, tracer, or both fanned
    /// out. `None` keeps the zero-overhead un-observed path.
    pub fn observer(&self) -> Option<Box<dyn Observer>> {
        match (&self.report, &self.traced) {
            (Some((_, s)), Some((_, t))) => Some(Box::new(Fanout::from_sinks(vec![
                s.observer(),
                t.observer(),
            ]))),
            (Some((_, s)), None) => Some(s.observer()),
            (None, Some((_, t))) => Some(t.observer()),
            (None, None) => None,
        }
    }

    /// Marks the run's cell running in the live telemetry.
    pub fn cell_running(&self) {
        if let Some((t, key)) = &self.telemetry {
            t.cell_running(key);
        }
    }

    /// Marks the run's cell done and writes the final telemetry.
    pub fn cell_done(&self) {
        if let Some((t, key)) = &self.telemetry {
            t.cell_done(key);
            t.finish();
        }
    }

    /// Runs `process` on `system` to completion with the run's observers
    /// and fault plan attached, restoring `--resume` state first, and
    /// returns the final statistics with the engine for reporting.
    pub fn run<S: MemorySystem, P: Resumable>(
        &mut self,
        mut system: S,
        process: &mut P,
    ) -> (RunStats, Engine<S>) {
        if let Some(obs) = self.observer() {
            system.set_observer(obs);
        }
        let mut engine = Engine::new(system, process.pe_count());
        if let Some(obs) = self.observer() {
            engine.set_observer(obs);
        }
        if let Some(fc) = &self.flags.faults {
            engine.set_fault_plan(FaultPlan::new(fc.clone()));
        }
        self.resume(&mut engine, process);
        let stats = self.drive(&mut engine, process);
        (stats, engine)
    }

    /// Unwraps a finished chunk or exits 1 with the engine's diagnostic
    /// (deadlock cycle, protocol misuse, watchdog expiry, stuck replay,
    /// wall-clock expiry).
    fn check(&self, run: Result<RunStats, SimError>) -> RunStats {
        run.unwrap_or_else(|e| die(self.tool.name, format_args!("simulation failed: {e}")))
    }

    /// Runs the engine to completion. With --checkpoint, --timeout or
    /// telemetry, runs in chunks: snapshots every `every` committed
    /// steps (when given), polls SIGINT and the wall-clock deadline
    /// between chunks, and on interrupt drains a final snapshot and
    /// exits 130 (timeout: drains, then reports a structured
    /// wall-clock-expired error at exit 1). Chunking is invisible in the
    /// results: the engine composes across run() calls bit-identically.
    fn drive<S: MemorySystem, P: Resumable>(
        &mut self,
        engine: &mut Engine<S>,
        process: &mut P,
    ) -> RunStats {
        // Armed as the engine starts driving; a deadline too far out for
        // `Instant` to represent is no deadline.
        let deadline = self
            .flags
            .timeout_secs
            .and_then(|secs| Instant::now().checked_add(Duration::from_secs(secs)));
        if self.checkpoint.is_none() && deadline.is_none() && self.telemetry.is_none() {
            return self.check(engine.run(process, u64::MAX));
        }
        let tool = self.tool.name;
        let path = self.checkpoint.as_ref().map(|(path, _)| path.clone());
        let every = self.checkpoint.as_ref().and_then(|(_, every)| *every);
        let chunk = every.unwrap_or(1 << 16);
        loop {
            let stats = self.check(engine.run(process, chunk));
            if let Some((t, _)) = &self.telemetry {
                t.engine_chunk(stats.steps);
            }
            if stats.finished {
                return stats;
            }
            let interrupted = self.sigint.is_some_and(|f| f.load(Ordering::SeqCst));
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            if let Some(path) = &path {
                if interrupted || expired || every.is_some() {
                    self.snapshot(engine, process, stats.makespan);
                }
                let cycle = stats.makespan;
                let drained = format!(
                    "state drained to `{path}` at cycle {cycle} (continue with --resume {path})"
                );
                if interrupted {
                    eprintln!("{tool}: interrupted: {drained}");
                    std::process::exit(130);
                }
                if expired {
                    eprintln!("{tool}: timeout: {drained}");
                }
            } else if interrupted {
                // No checkpoint configured: SIGINT falls back to the
                // default die-on-interrupt behaviour.
                std::process::exit(130);
            }
            if expired {
                self.check(Err(SimError::WallClockExpired {
                    budget_secs: self.flags.timeout_secs.unwrap_or(0),
                    cycle: stats.makespan,
                    steps: stats.steps,
                }));
            }
        }
    }

    /// Serializes one full snapshot (engine and system, process, metrics,
    /// tracer ring) and writes it atomically to the checkpoint path.
    fn snapshot<S: MemorySystem, P: Resumable>(
        &mut self,
        engine: &Engine<S>,
        process: &P,
        cycle: u64,
    ) {
        let Some((path, _)) = &self.checkpoint else {
            return;
        };
        let _perf = pim_perf::span(pim_perf::phase::CHECKPOINT);
        self.snapshots_written += 1;
        let mut w = pim_ckpt::Writer::new();
        w.section("meta", |w| {
            w.put_str(self.tool.name);
            w.put_u64(self.config_digest);
            w.put_u64(cycle);
            w.put_u64(self.snapshots_written);
        });
        w.section("engine", |w| engine.save_ckpt(w));
        w.section("process", |w| process.save_ckpt(w));
        w.section("obs", |w| match &self.report {
            Some((_, s)) => {
                w.put_bool(true);
                s.save_ckpt(w);
            }
            None => w.put_bool(false),
        });
        w.section("tracer", |w| match &self.traced {
            Some((_, t)) => {
                w.put_bool(true);
                t.save_ckpt(w);
            }
            None => w.put_bool(false),
        });
        if let Err(e) = pim_ckpt::save_to_path(Path::new(path), w) {
            die(self.tool.name, format_args!("--checkpoint: {e}"));
        }
    }

    /// Restores `--resume` state into the freshly built engine and
    /// process; a no-op without `--resume`. Every refusal names the
    /// reason and exits 1.
    fn resume<S: MemorySystem, P: Resumable>(&mut self, engine: &mut Engine<S>, process: &mut P) {
        let Some(payload) = self.resume_payload.as_deref() else {
            return;
        };
        let Tool {
            name,
            report_flag,
            input,
            ..
        } = self.tool;
        let refused = |e: pim_ckpt::CkptError| -> ! {
            die(name, format_args!("--resume: refused checkpoint: {e}"))
        };
        let mismatch = |detail: String| pim_ckpt::CkptError::Mismatch { detail };
        let mut r = pim_ckpt::Reader::new(payload);
        let (cycle, _snaps) = r
            .section("meta", |r| {
                let tool = r.get_str()?.to_string();
                if tool != name {
                    return Err(mismatch(format!(
                        "checkpoint was written by `{tool}`, not {name}"
                    )));
                }
                if r.get_u64()? != self.config_digest {
                    return Err(mismatch(format!(
                        "run configuration (flags or {input}) differs from the checkpointed run"
                    )));
                }
                Ok((r.get_u64()?, r.get_u64()?))
            })
            .unwrap_or_else(|e| refused(e));
        r.section("engine", |r| engine.restore_ckpt(r))
            .unwrap_or_else(|e| refused(e));
        r.section("process", |r| process.restore_ckpt(r))
            .unwrap_or_else(|e| refused(e));
        r.section("obs", |r| match (&self.report, r.get_bool()?) {
            (Some((_, s)), true) => s.restore_ckpt(r),
            (None, false) => Ok(()),
            _ => Err(mismatch(format!(
                "{report_flag} presence differs from the checkpointed run"
            ))),
        })
        .unwrap_or_else(|e| refused(e));
        r.section("tracer", |r| match (&self.traced, r.get_bool()?) {
            (Some((_, t)), true) => t.restore_ckpt(r),
            (None, false) => Ok(()),
            _ => Err(mismatch(
                "--trace presence differs from the checkpointed run".into(),
            )),
        })
        .unwrap_or_else(|e| refused(e));
        r.expect_end().unwrap_or_else(|e| refused(e));
        self.resumed_from_cycle = Some(cycle);
    }

    /// Exports and writes the trace file; a no-op without `--trace`.
    pub fn write_trace(&self, makespan: u64, pes: u32) {
        let Some((path, tracer)) = &self.traced else {
            return;
        };
        let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
        let tool = self.tool.name;
        let meta = tracer
            .write_chrome(Path::new(path), makespan, pes as usize)
            .unwrap_or_else(|e| die(tool, format_args!("cannot write {path}: {e}")));
        if meta.dropped > 0 {
            eprintln!(
                "{tool}: trace ring full: kept {} of {} events \
                 ({} dropped; raise with --trace {path}:cap=N)",
                meta.recorded, meta.emitted, meta.dropped
            );
        }
    }

    /// Builds and writes the report; a no-op without the report flag.
    /// `body` adds the tool's fields after the envelope and places the
    /// `checkpoint` block it is handed; the per-PE cycle accounts, the
    /// metrics and, under `--perf`, `host_perf` follow.
    pub fn write_report(&self, pe_cycles: &[PeCycles], body: impl FnOnce(&mut Json, Json)) {
        let Some((path, metrics)) = &self.report else {
            return;
        };
        let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
        let mut doc = report::envelope(self.tool.name);
        body(
            &mut doc,
            report::checkpoint_json(self.resumed_from_cycle, self.snapshots_written),
        );
        report::push_instrumentation(&mut doc, pe_cycles, &metrics.take());
        if pim_perf::is_enabled() {
            doc.push(
                "host_perf",
                report::host_perf_json(&pim_perf::snapshot(), &pim_perf::provenance()),
            );
        }
        if let Err(e) = report::write_report(path, &doc) {
            die(self.tool.name, format_args!("cannot write {path}: {e}"));
        }
    }

    /// The closing stderr lines: the throughput summary over `counts`,
    /// the `--perf` breakdown, and the `--io-chaos` summary. Stderr
    /// only, so stdout, which the determinism suites diff, stays
    /// byte-identical across hosts.
    pub fn finish(&self, counts: &[(u64, &str)]) {
        let elapsed = self.started.elapsed();
        eprintln!(
            "{}",
            pim_perf::throughput_line(self.tool.name, elapsed, counts)
        );
        if pim_perf::is_enabled() {
            eprint!("{}", pim_perf::take_report().render());
        }
        if let Some(line) = pim_ckpt::vfs::summary_line() {
            eprintln!("{line}");
        }
    }
}

/// Prints the tool's usage plus the run flags and exits 2.
fn usage(tool: &Tool) -> ! {
    eprintln!("{}", tool.usage);
    eprintln!(
        "run flags (see pim_repro::harness): [--faults SPEC] [--timeout SECS] [--perf] \
         [{} FILE] [--trace FILE[:cap=N]] [--checkpoint FILE[:every=N]] [--resume FILE] \
         [--status FILE[:every=SECS]] [--metrics FILE] \
         [--io-chaos seed=N[,rate=PPM][,kinds=...]]",
        tool.report_flag
    );
    std::process::exit(2)
}
