//! `tracesim` — replay a memory-access trace file through the PIM cache
//! (or the Illinois baseline) and print the traffic report.
//!
//! ```text
//! tracesim [options] <trace.txt>
//!
//! options:
//!   --pes N          processing elements (default: 1 + max PE in trace)
//!   --illinois       Illinois baseline instead of the PIM protocol
//!   --no-opt         downgrade DW/DWD/ER/RP/RI to plain R/W
//!   --block W        cache block words (default 4)
//!   --capacity W     cache data words per PE (default 4096)
//!   --ways N         associativity (default 4)
//!   --bus-width W    bus width in words (default 1)
//!   --gen NAME       ignore the file; generate a built-in synthetic trace
//!                    (producer-consumer | heap-mix | lock-churn | aurora)
//!   --faults SPEC    inject deterministic faults, e.g. `seed=7,rate=0.01`
//!                    (also `rate_ppm=N`, `retries=N`). Every injected
//!                    fault is recovered; the same seed always produces
//!                    the same fault schedule.
//!   --timeout SECS   wall-clock deadline on the replay: a pathological
//!                    trace stops with a structured wall-clock-expired
//!                    diagnostic (simulated cycle and step count reached)
//!                    and exit 1 instead of running forever. With
//!                    --checkpoint, a final snapshot is drained first so
//!                    the run can be resumed with a larger budget.
//!   --perf           profile the simulator itself: per-phase wall-time
//!                    breakdown (trace parse, engine run, checkpoint,
//!                    report write) on stderr, plus
//!                    a `host_perf` block (host/commit provenance and
//!                    the same breakdown) in the --report JSON. Without
//!                    --perf the report bytes are unchanged. Build with
//!                    `--features perf-alloc` to add per-phase
//!                    allocation counts. Every run prints a one-line
//!                    throughput summary on stderr regardless.
//!   --report FILE    write a JSON report (traffic, cycle accounts,
//!                    latency histograms, coherence transitions, fault
//!                    recovery counters) to FILE
//!   --trace FILE[:cap=N]
//!                    record cycle-stamped events (coherence transitions,
//!                    bus spans, lock waits, fault chains) to FILE as
//!                    Chrome trace_event JSON, loadable in Perfetto and
//!                    analyzable with `pimtrace`. The ring keeps at most
//!                    N events (default 2^20); drops are counted in the
//!                    file, never silent. Byte-identical from run to run.
//!   --checkpoint FILE[:every=N]
//!                    write crash-safe `pim-ckpt/v1` snapshots of the
//!                    whole simulator state to FILE: every N committed
//!                    steps when `:every=N` is given, and always on
//!                    SIGINT (the run drains to a final snapshot and
//!                    exits 130). Snapshot writes are atomic; a crash
//!                    mid-write leaves the previous snapshot intact.
//!   --resume FILE    restore a `--checkpoint` snapshot and continue.
//!                    The remaining flags (except --checkpoint and
//!                    --resume) and the trace must match the
//!                    checkpointed run; the resumed run's report and
//!                    trace file are byte-identical to an uninterrupted
//!                    run's (modulo the report's `checkpoint` block).
//!   --status FILE[:every=SECS]
//!                    write a crash-safe `pim-status/v1` live snapshot
//!                    (watch with `sweepwatch FILE`), updated at engine
//!                    chunk boundaries at most every SECS seconds
//!                    (default 2). Atomic writes: kill -9 never leaves
//!                    a torn file. Purely observational — stdout, the
//!                    report and the trace bytes are unchanged.
//!   --metrics FILE   write Prometheus text-format metrics (textfile-
//!                    collector compatible) on the same cadence.
//!   --io-chaos seed=N[,rate=PPM][,kinds=...]
//!                    torture the host-I/O layer: inject deterministic
//!                    disk faults (ENOSPC, EIO, short writes, torn
//!                    reads) under every durable write — report, trace,
//!                    checkpoint, telemetry. All faults are recovered
//!                    with bounded retries; the emitted files are
//!                    byte-identical to an undisturbed run. Also
//!                    `retries=N`, `backoff_ms=N`, `kill=CLASS@N`
//!                    (see pim_ckpt::vfs).
//! ```
//!
//! Trace lines are `PE OP ADDR AREA`, e.g. `0 DW 0x11000000 goal` — see
//! `pim_trace::textio`. A trace whose streams leave a PE blocked on a
//! lock that no remaining access releases fails with a named
//! `replay stuck` diagnostic (exit 1). Use `--gen` to try the tool
//! without a file:
//!
//! ```sh
//! tracesim --gen aurora --pes 8
//! ```

use pim_bus::BusTiming;
use pim_cache::{CacheGeometry, OptMask, PimSystem, SystemConfig};
use pim_fault::{FaultConfig, FaultPlan, FaultStats};
use pim_obs::{Fanout, Json, Observer, SharedMetrics};
use pim_repro::report;
use pim_sim::{Engine, IllinoisSystem, MemorySystem, Process, Replayer, RunStats};
use pim_trace::{Access, StorageArea};
use pim_tracer::SharedTracer;

fn usage() -> ! {
    eprintln!(
        "usage: tracesim [--pes N] [--illinois] [--no-opt] \
         [--block W] [--capacity W] [--ways N] [--bus-width W] \
         [--faults SPEC] [--timeout SECS] [--perf] [--report FILE] \
         [--trace FILE[:cap=N]] [--checkpoint FILE[:every=N]] [--resume FILE] \
         [--status FILE[:every=SECS]] [--metrics FILE] \
         [--io-chaos seed=N[,rate=PPM][,kinds=...]] \
         (<trace.txt> | --gen NAME)"
    );
    std::process::exit(2);
}

/// Unwraps a finished run or exits 1 with the engine's diagnostic
/// (deadlock cycle, protocol misuse, watchdog expiry, stuck replay).
fn check_run(run: Result<RunStats, pim_sim::SimError>) -> RunStats {
    match run {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("tracesim: simulation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let wall_start = std::time::Instant::now();
    let mut pes: Option<u32> = None;
    let mut illinois = false;
    let mut perf = false;
    let mut no_opt = false;
    let mut block = 4u64;
    let mut capacity = 4096u64;
    let mut ways = 4u64;
    let mut bus_width = 1u64;
    let mut generator: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut trace_spec: Option<String> = None;
    let mut faults: Option<FaultConfig> = None;
    let mut timeout_secs: Option<u64> = None;
    let mut ckpt_spec: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut status_spec: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        // Numeric flag values fail loudly: name the flag and the value.
        let mut next_u64 = |name: &str| -> u64 {
            let Some(v) = args.next() else {
                eprintln!("tracesim: --{name} needs a numeric argument");
                std::process::exit(2);
            };
            v.parse().unwrap_or_else(|_| {
                eprintln!("tracesim: invalid value `{v}` for --{name} (expected a number)");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--pes" => pes = Some(next_u64("pes") as u32),
            "--illinois" => illinois = true,
            "--perf" => perf = true,
            "--no-opt" => no_opt = true,
            "--block" => block = next_u64("block"),
            "--capacity" => capacity = next_u64("capacity"),
            "--ways" => ways = next_u64("ways"),
            "--bus-width" => bus_width = next_u64("bus-width"),
            "--timeout" => timeout_secs = Some(next_u64("timeout")),
            "--gen" => generator = Some(args.next().unwrap_or_else(|| usage())),
            "--faults" => {
                let Some(spec) = args.next() else {
                    eprintln!("tracesim: --faults needs a spec like seed=7,rate=0.01");
                    std::process::exit(2);
                };
                match FaultConfig::parse_spec(&spec) {
                    Ok(c) => faults = Some(c),
                    Err(e) => {
                        eprintln!("tracesim: bad --faults spec: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--report" => match args.next() {
                Some(path) => report_path = Some(path),
                None => {
                    eprintln!("tracesim: --report needs a file argument");
                    std::process::exit(2);
                }
            },
            "--trace" => match args.next() {
                Some(spec) => trace_spec = Some(spec),
                None => {
                    eprintln!("tracesim: --trace needs a file argument (FILE[:cap=N])");
                    std::process::exit(2);
                }
            },
            "--checkpoint" => match args.next() {
                Some(spec) => ckpt_spec = Some(spec),
                None => {
                    eprintln!("tracesim: --checkpoint needs a file argument (FILE[:every=N])");
                    std::process::exit(2);
                }
            },
            "--resume" => match args.next() {
                Some(path) => resume_path = Some(path),
                None => {
                    eprintln!("tracesim: --resume needs a checkpoint file argument");
                    std::process::exit(2);
                }
            },
            "--status" => match args.next() {
                Some(spec) => status_spec = Some(spec),
                None => {
                    eprintln!("tracesim: --status needs a file argument (FILE[:every=SECS])");
                    std::process::exit(2);
                }
            },
            "--metrics" => match args.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("tracesim: --metrics needs a file argument");
                    std::process::exit(2);
                }
            },
            "--io-chaos" => match args.next() {
                Some(spec) => match pim_ckpt::vfs::IoChaosConfig::parse_spec(&spec) {
                    Ok(cfg) => pim_ckpt::vfs::install(cfg),
                    Err(e) => {
                        eprintln!("tracesim: {e}");
                        std::process::exit(2);
                    }
                },
                None => {
                    eprintln!(
                        "tracesim: --io-chaos needs a spec argument (seed=N[,rate=PPM][,kinds=...])"
                    );
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("tracesim: unknown flag `{other}`");
                usage()
            }
            other => file = Some(other.to_string()),
        }
    }

    if pes == Some(0) {
        eprintln!("tracesim: --pes must be at least 1");
        std::process::exit(2);
    }
    if timeout_secs == Some(0) {
        eprintln!("tracesim: --timeout must be at least 1 second");
        std::process::exit(2);
    }
    if perf {
        pim_perf::enable();
    }

    // Validate checkpoint plumbing before the (possibly long) run: a bad
    // --checkpoint destination is a flag error (exit 2); a missing or
    // corrupt --resume file is a refused checkpoint (exit 1, named
    // diagnostic from pim-ckpt).
    let checkpoint: Option<(String, Option<u64>)> = ckpt_spec.map(|spec| {
        let parsed = pim_ckpt::parse_checkpoint_spec(&spec).unwrap_or_else(|e| {
            eprintln!("tracesim: --checkpoint: {e}");
            std::process::exit(2);
        });
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&parsed.0)) {
            eprintln!("tracesim: --checkpoint: cannot write `{}`: {e}", parsed.0);
            std::process::exit(2);
        }
        parsed
    });
    let resume_payload: Option<Vec<u8>> = resume_path.as_ref().map(|path| {
        pim_ckpt::load_from_path(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("tracesim: --resume: refused checkpoint `{path}`: {e}");
            std::process::exit(1);
        })
    });

    let parse_span = pim_perf::span(pim_perf::phase::TRACE_PARSE);
    let input_label;
    let trace: Vec<Access> = if let Some(name) = generator {
        input_label = format!("gen:{name}");
        let workers = pes.unwrap_or(4);
        match name.as_str() {
            "producer-consumer" => workloads::synthetic::producer_consumer(512, 8, block),
            "heap-mix" => workloads::synthetic::shared_heap_mix(workers, 50_000, 30, 1 << 14, 7),
            "lock-churn" => workloads::synthetic::lock_churn(workers, 5_000, 10, 7),
            "aurora" => workloads::synthetic::aurora_like(workers, 10_000, 1989),
            other => {
                eprintln!("tracesim: unknown generator `{other}`");
                std::process::exit(2);
            }
        }
    } else {
        let Some(path) = file else { usage() };
        input_label = path.clone();
        match pim_trace::read_trace_file(&path) {
            Ok(t) => t,
            // The diagnostic already names the file and line.
            Err(e) => {
                eprintln!("tracesim: {e}");
                std::process::exit(1);
            }
        }
    };
    drop(parse_span);
    if trace.is_empty() {
        eprintln!("tracesim: empty trace");
        std::process::exit(1);
    }

    // Live telemetry: side-file only, so the report/trace/stdout bytes
    // are identical with or without it. The whole replay is one "cell"
    // keyed on the input; engine chunks feed the step counters.
    let telemetry: Option<pim_telemetry::RunStatus> =
        (status_spec.is_some() || metrics_path.is_some()).then(|| {
            let t = pim_telemetry::RunStatus::new("tracesim");
            t.set_workers(1);
            t.register_cell(&input_label);
            if let Some(spec) = &status_spec {
                let parsed = pim_ckpt::spec::parse_file_spec("status", spec, &["every"])
                    .unwrap_or_else(|e| {
                        eprintln!("tracesim: {e}");
                        std::process::exit(2);
                    });
                let every = parsed.get_u64("status", "every").unwrap_or_else(|e| {
                    eprintln!("tracesim: {e}");
                    std::process::exit(2);
                });
                if let Err(e) = t.attach_status_file(
                    &parsed.path,
                    every.unwrap_or(pim_telemetry::DEFAULT_EVERY_SECS),
                ) {
                    eprintln!("tracesim: --status: cannot write `{}`: {e}", parsed.path);
                    std::process::exit(2);
                }
            }
            if let Some(path) = &metrics_path {
                if let Err(e) = t.attach_metrics_file(path) {
                    eprintln!("tracesim: --metrics: cannot write `{path}`: {e}");
                    std::process::exit(2);
                }
            }
            t
        });

    let needed = 1 + trace.iter().map(|a| a.pe.0).max().unwrap_or(0);
    // An explicit --pes that cannot hold the trace is an error, not a
    // silent clamp: the user asked for a specific machine size.
    let pes = match pes {
        Some(n) if n < needed => {
            eprintln!(
                "tracesim: --pes {n} is too small: the trace references PE {} \
                 (need --pes >= {needed})",
                needed - 1
            );
            std::process::exit(2);
        }
        Some(n) => n,
        None => needed,
    };
    let config = SystemConfig {
        pes,
        geometry: CacheGeometry::with_shape(capacity, block, ways),
        timing: BusTiming {
            bus_width_words: bus_width,
            memory_cycles: 8,
        },
        opt_mask: if no_opt {
            OptMask::none()
        } else {
            OptMask::all()
        },
        ..SystemConfig::default()
    };

    // Pins the run configuration (flags + input trace, minus the
    // checkpoint flags themselves) into every snapshot, so a resume
    // under different conditions is refused instead of silently
    // diverging.
    let config_digest = {
        let mut bytes = Vec::with_capacity(trace.len() * 24 + 128);
        bytes.extend_from_slice(
            format!(
                "tracesim|pes={pes}|illinois={illinois}|no_opt={no_opt}|block={block}\
                 |capacity={capacity}|ways={ways}|bus_width={bus_width}|faults={faults:?}\
                 |report={}|trace_cap={:?}|",
                report_path.is_some(),
                // Ring capacity shapes the recorded events; the output
                // path does not, so it stays out of the digest.
                trace_spec
                    .as_deref()
                    .map(|s| pim_tracer::parse_trace_spec(s).ok().map(|(_, cap)| cap))
            )
            .as_bytes(),
        );
        for a in &trace {
            bytes.extend_from_slice(&a.pe.0.to_le_bytes());
            bytes.extend_from_slice(&a.addr.to_le_bytes());
            bytes.extend_from_slice(format!("{:?}/{:?};", a.op, a.area).as_bytes());
        }
        pim_ckpt::fnv1a64(&bytes)
    };

    let shared = report_path.as_ref().map(|path| {
        // Validate the report destination now, so a bad path fails in
        // milliseconds with the flag named, not after the sim.
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(path)) {
            eprintln!("tracesim: --report: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        SharedMetrics::new()
    });

    // Validate the trace destination before the (possibly long) run:
    // parse the spec and probe the path now — without creating or
    // truncating anything, so a failed run never leaves a zero-byte
    // trace file behind.
    let traced: Option<(String, SharedTracer)> = trace_spec.as_ref().map(|spec| {
        let (path, cap) = pim_tracer::parse_trace_spec(spec).unwrap_or_else(|e| {
            eprintln!("tracesim: --trace: {e}");
            std::process::exit(2);
        });
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&path)) {
            eprintln!("tracesim: --trace: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        (path, SharedTracer::with_capacity(cap))
    });

    let mut runner = Runner {
        config_digest,
        sigint: checkpoint.as_ref().map(|_| pim_ckpt::install_sigint_flag()),
        checkpoint,
        resume_payload,
        // Wall-clock deadline for --timeout, armed before the engine
        // starts driving and checked between run chunks.
        deadline: timeout_secs
            .map(|secs| std::time::Instant::now() + std::time::Duration::from_secs(secs)),
        timeout_secs,
        telemetry,
        shared,
        traced,
        resumed_from_cycle: None,
        snapshots_written: 0,
    };

    let mut replayer = Replayer::from_merged(&trace, pes);
    if let Some(t) = &runner.telemetry {
        t.cell_running(&input_label);
    }
    let (label, (run, fstats, system)) = if illinois {
        let run = runner.replay(IllinoisSystem::new(config), &mut replayer, faults.as_ref());
        ("Illinois", run)
    } else {
        let run = runner.replay(PimSystem::new(config), &mut replayer, faults.as_ref());
        ("PIM", run)
    };
    let makespan = run.makespan;
    runner.write_trace(makespan, pes);
    if let (Some(path), Some(s)) = (&report_path, &runner.shared) {
        let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
        let mut doc = report::envelope("tracesim");
        doc.push("protocol", Json::from(label));
        doc.push(
            "config",
            Json::obj([
                ("pes", Json::from(pes)),
                ("capacity_words", Json::from(capacity)),
                ("ways", Json::from(ways)),
                ("block_words", Json::from(block)),
                ("bus_width_words", Json::from(bus_width)),
            ]),
        );
        doc.push(
            "checkpoint",
            report::checkpoint_json(runner.resumed_from_cycle, runner.snapshots_written),
        );
        if let Some(fc) = &faults {
            doc.push(
                "fault_plan",
                Json::obj([
                    ("seed", Json::from(fc.seed)),
                    ("rate_ppm", Json::from(fc.rate_ppm)),
                    ("max_retries", Json::from(fc.max_retries)),
                    ("injected", Json::from(fstats.total_injected())),
                    ("recovered", Json::from(fstats.total_recovered())),
                    ("retries", Json::from(fstats.retries)),
                    ("penalty_cycles", Json::from(fstats.penalty_cycles)),
                ]),
            );
        }
        doc.push("accesses", Json::from(trace.len()));
        doc.push("memory", report::memory_json(&*system, makespan));
        report::push_instrumentation(&mut doc, &run.pe_cycles, &s.take());
        if pim_perf::is_enabled() {
            doc.push(
                "host_perf",
                report::host_perf_json(&pim_perf::snapshot(), &pim_perf::provenance()),
            );
        }
        if let Err(e) = report::write_report(path, &doc) {
            eprintln!("tracesim: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    let report = summarize(&*system, makespan, trace.len(), &fstats);
    if let Some(t) = &runner.telemetry {
        t.cell_done(&input_label);
        t.finish();
    }
    println!("protocol: {label}  ({pes} PEs, {capacity}w {ways}-way, {block}-word blocks, {bus_width}-word bus)");
    print!("{report}");
    // The throughput summary goes to stderr so stdout (which the
    // determinism suites diff) stays byte-identical across hosts.
    eprintln!(
        "{}",
        pim_perf::throughput_line(
            "tracesim",
            wall_start.elapsed(),
            &[(trace.len() as u64, "accesses"), (makespan, "sim-cycles"),],
        )
    );
    if pim_perf::is_enabled() {
        eprint!("{}", pim_perf::take_report().render());
    }
    if let Some(line) = pim_ckpt::vfs::summary_line() {
        eprintln!("{line}");
    }
}

/// The run-wide state the replay shares with its checkpoint, telemetry
/// and output paths, whichever protocol it simulates.
struct Runner {
    config_digest: u64,
    checkpoint: Option<(String, Option<u64>)>,
    resume_payload: Option<Vec<u8>>,
    deadline: Option<std::time::Instant>,
    timeout_secs: Option<u64>,
    telemetry: Option<pim_telemetry::RunStatus>,
    sigint: Option<&'static std::sync::atomic::AtomicBool>,
    shared: Option<SharedMetrics>,
    traced: Option<(String, SharedTracer)>,
    // Checkpoint provenance for the report's `checkpoint` block.
    resumed_from_cycle: Option<u64>,
    snapshots_written: u64,
}

impl Runner {
    /// One observer per component slot: metrics, tracer, or both fanned
    /// out. `None` keeps the zero-overhead un-observed path.
    fn observer(&self) -> Option<Box<dyn Observer>> {
        match (&self.shared, &self.traced) {
            (Some(s), Some((_, t))) => Some(Box::new(Fanout::from_sinks(vec![
                s.observer(),
                t.observer(),
            ]))),
            (Some(s), None) => Some(s.observer()),
            (None, Some((_, t))) => Some(t.observer()),
            (None, None) => None,
        }
    }

    /// Replays `replayer` through `system` with the run's observers and
    /// fault plan attached, returning the run's statistics, its fault
    /// counters, and the system for reporting.
    fn replay<S: MemorySystem + 'static>(
        &mut self,
        mut system: S,
        replayer: &mut Replayer,
        faults: Option<&FaultConfig>,
    ) -> (RunStats, FaultStats, Box<dyn MemorySystem>) {
        if let Some(obs) = self.observer() {
            system.set_observer(obs);
        }
        let mut engine = Engine::new(system, replayer.pe_count());
        if let Some(obs) = self.observer() {
            engine.set_observer(obs);
        }
        if let Some(fc) = faults {
            engine.set_fault_plan(FaultPlan::new(fc.clone()));
        }
        let run = self.drive(&mut engine, replayer);
        let fstats = engine.fault_stats().clone();
        (run, fstats, Box::new(engine.into_system()))
    }

    /// Runs the engine to completion. With --checkpoint, --timeout or
    /// telemetry, runs in chunks: snapshots every `every` committed
    /// steps (when given), polls SIGINT and the wall-clock deadline
    /// between chunks, and on interrupt drains a final snapshot and
    /// exits 130 (timeout: drains, then reports a structured
    /// wall-clock-expired error at exit 1). Chunking is invisible in
    /// the results: the engine composes across run() calls
    /// bit-identically.
    fn drive<S: MemorySystem>(
        &mut self,
        engine: &mut Engine<S>,
        replayer: &mut Replayer,
    ) -> RunStats {
        self.resume(engine, replayer);
        if self.checkpoint.is_none() && self.deadline.is_none() && self.telemetry.is_none() {
            return check_run(engine.run(replayer, u64::MAX));
        }
        let path = self.checkpoint.as_ref().map(|(path, _)| path.clone());
        let every = self.checkpoint.as_ref().and_then(|(_, every)| *every);
        let chunk = every.unwrap_or(1 << 16);
        loop {
            let stats = check_run(engine.run(replayer, chunk));
            if let Some(t) = &self.telemetry {
                t.engine_chunk(stats.steps);
            }
            if stats.finished {
                return stats;
            }
            let interrupted = self
                .sigint
                .is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst));
            let expired = self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d);
            if let Some(path) = &path {
                if interrupted || expired || every.is_some() {
                    self.snapshot(engine, replayer, stats.makespan);
                }
                if interrupted {
                    eprintln!(
                        "tracesim: interrupted: state drained to `{path}` at cycle {} \
                         (continue with --resume {path})",
                        stats.makespan
                    );
                    std::process::exit(130);
                }
                if expired {
                    eprintln!(
                        "tracesim: timeout: state drained to `{path}` at cycle {} \
                         (continue with --resume {path})",
                        stats.makespan
                    );
                }
            } else if interrupted {
                // No checkpoint configured: SIGINT falls back to the
                // default die-on-interrupt behaviour.
                std::process::exit(130);
            }
            if expired {
                check_run(Err(pim_sim::SimError::WallClockExpired {
                    budget_secs: self.timeout_secs.unwrap_or(0),
                    cycle: stats.makespan,
                    steps: stats.steps,
                }));
            }
        }
    }

    /// Serializes one full snapshot (engine + system, process cursors,
    /// metrics, tracer ring) and writes it atomically to the checkpoint
    /// path; a no-op without `--checkpoint`.
    fn snapshot<S: MemorySystem>(&mut self, engine: &Engine<S>, replayer: &Replayer, cycle: u64) {
        let Some((path, _)) = &self.checkpoint else {
            return;
        };
        let _perf = pim_perf::span(pim_perf::phase::CHECKPOINT);
        self.snapshots_written += 1;
        let mut w = pim_ckpt::Writer::new();
        w.section("meta", |w| {
            w.put_str("tracesim");
            w.put_u64(self.config_digest);
            w.put_u64(cycle);
            w.put_u64(self.snapshots_written);
        });
        w.section("engine", |w| engine.save_ckpt(w));
        w.section("process", |w| replayer.save_ckpt(w));
        w.section("obs", |w| match &self.shared {
            Some(s) => {
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
        if let Err(e) = pim_ckpt::save_to_path(std::path::Path::new(path), w) {
            eprintln!("tracesim: --checkpoint: {e}");
            std::process::exit(1);
        }
    }

    /// Restores `--resume` state into the freshly built engine and
    /// replayer; a no-op without `--resume`. Every refusal names the
    /// reason and exits 1.
    fn resume<S: MemorySystem>(&mut self, engine: &mut Engine<S>, replayer: &mut Replayer) {
        let Some(payload) = self.resume_payload.as_deref() else {
            return;
        };
        let refused = |e: pim_ckpt::CkptError| -> ! {
            eprintln!("tracesim: --resume: refused checkpoint: {e}");
            std::process::exit(1)
        };
        let mut r = pim_ckpt::Reader::new(payload);
        let (cycle, _snaps) = r
            .section("meta", |r| {
                let tool = r.get_str()?.to_string();
                if tool != "tracesim" {
                    return Err(pim_ckpt::CkptError::Mismatch {
                        detail: format!("checkpoint was written by `{tool}`, not tracesim"),
                    });
                }
                let digest = r.get_u64()?;
                if digest != self.config_digest {
                    return Err(pim_ckpt::CkptError::Mismatch {
                        detail: "run configuration (flags or input trace) differs \
                                 from the checkpointed run"
                            .into(),
                    });
                }
                Ok((r.get_u64()?, r.get_u64()?))
            })
            .unwrap_or_else(|e| refused(e));
        r.section("engine", |r| engine.restore_ckpt(r))
            .unwrap_or_else(|e| refused(e));
        r.section("process", |r| replayer.restore_ckpt(r))
            .unwrap_or_else(|e| refused(e));
        r.section("obs", |r| match (&self.shared, r.get_bool()?) {
            (Some(s), true) => s.restore_ckpt(r),
            (None, false) => Ok(()),
            _ => Err(pim_ckpt::CkptError::Mismatch {
                detail: "--report presence differs from the checkpointed run".into(),
            }),
        })
        .unwrap_or_else(|e| refused(e));
        r.section("tracer", |r| match (&self.traced, r.get_bool()?) {
            (Some((_, t)), true) => t.restore_ckpt(r),
            (None, false) => Ok(()),
            _ => Err(pim_ckpt::CkptError::Mismatch {
                detail: "--trace presence differs from the checkpointed run".into(),
            }),
        })
        .unwrap_or_else(|e| refused(e));
        r.expect_end().unwrap_or_else(|e| refused(e));
        self.resumed_from_cycle = Some(cycle);
    }

    /// Exports and writes the trace file; a no-op without `--trace`.
    fn write_trace(&self, makespan: u64, pes: u32) {
        let Some((path, tracer)) = &self.traced else {
            return;
        };
        let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
        let (emitted, recorded, dropped) =
            (tracer.emitted(), tracer.recorded() as u64, tracer.dropped());
        let text = pim_tracer::export_chrome(
            &tracer.take_sorted(),
            &pim_tracer::TraceMeta {
                makespan,
                pes: pes as usize,
                emitted,
                recorded,
                dropped,
            },
        );
        if let Err(e) = pim_ckpt::atomic_write_class(
            pim_ckpt::vfs::PathClass::Trace,
            std::path::Path::new(path),
            text.as_bytes(),
        ) {
            eprintln!("tracesim: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if dropped > 0 {
            eprintln!(
                "tracesim: trace ring full: kept {recorded} of {emitted} events \
                 ({dropped} dropped; raise with --trace {path}:cap=N)"
            );
        }
    }
}

fn summarize(
    sys: &dyn MemorySystem,
    makespan: u64,
    accesses: usize,
    fstats: &FaultStats,
) -> String {
    let mut out = String::new();
    let bus = sys.bus_stats();
    out += &format!("accesses:       {accesses}\n");
    out += &format!("bus cycles:     {}\n", bus.total_cycles());
    for area in StorageArea::ALL {
        let cycles = bus.area_cycles(area);
        if cycles > 0 {
            out += &format!(
                "  {:5}         {:>10}  ({:.1}%)\n",
                area.label(),
                cycles,
                bus.area_cycle_pct(area)
            );
        }
    }
    out += &format!("memory busy:    {} cycles\n", bus.memory_busy_cycles());
    out += &format!("miss ratio:     {:.4}\n", sys.access_stats().miss_ratio());
    let locks = sys.lock_stats();
    if locks.lr_total > 0 {
        out += &format!(
            "locks:          {} LR ({:.1}% exclusive hits), {:.1}% unlocks silent\n",
            locks.lr_total,
            100.0 * locks.lr_hit_exclusive_ratio(),
            100.0 * locks.unlock_no_waiter_ratio()
        );
    }
    if fstats.total_injected() > 0 {
        out += &format!(
            "faults:         {} injected, {} recovered, {} retries, {} penalty cycles\n",
            fstats.total_injected(),
            fstats.total_recovered(),
            fstats.retries,
            fstats.penalty_cycles
        );
    }
    out += &format!("simulated time: {makespan} cycles\n");
    if makespan > 0 {
        out += &format!(
            "bus utilization:{:.1}%\n",
            100.0 * bus.total_cycles() as f64 / makespan as f64
        );
    }
    out
}
