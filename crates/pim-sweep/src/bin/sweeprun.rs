//! `sweeprun` — supervised execution of a declarative sweep spec.
//!
//! ```text
//! sweeprun --sweep FILE[:retries=N][:timeout=SECS] [--journal FILE]
//!          [--threads N] [--chaos seed=N[,kill=PPM][,delay=PPM][,max_delay_ms=MS]]
//!          [--io-chaos seed=N[,rate=PPM][,kinds=...]]
//!          [--report FILE] [--status FILE[:every=SECS]] [--metrics FILE] [--quiet]
//! ```
//!
//! The spec file declares a grid of cells (see `pim_sweep::spec`); the
//! runner executes them under per-cell timeouts with retry, backoff and
//! quarantine, journaling every completion to `--journal` so a killed
//! sweep resumes exactly. The report (stdout, or `--report FILE`) is
//! byte-identical across thread counts, resume, and chaos, modulo its
//! `provenance` block.
//!
//! `--status` writes a crash-safe `pim-status/v1` snapshot (watch it
//! live with `sweepwatch`), `--metrics` a Prometheus text file;
//! `--quiet` drops the per-cell progress lines but never quarantine or
//! error lines. All telemetry is stderr/side-file only: report,
//! journal, and stdout bytes are identical with telemetry on or off.
//!
//! Exit codes: 0 — every cell done; 1 — degraded (quarantined or
//! skipped cells, journal trouble) or a refused journal; 2 — bad
//! flags or spec; 130 — interrupted (SIGINT), in-flight cells drained
//! to the journal.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::exit;
use std::sync::atomic::Ordering;

use pim_fault::chaos::{ChaosConfig, ChaosPlan};
use pim_sweep::report::Provenance;
use pim_sweep::{run_sweep, CellFate, ExecConfig, Journal, SweepSpec};

const USAGE: &str = "usage: sweeprun --sweep FILE[:retries=N][:timeout=SECS] \
                     [--journal FILE] [--threads N] [--chaos SPEC] [--io-chaos SPEC] \
                     [--report FILE] \
                     [--status FILE[:every=SECS]] [--metrics FILE] [--quiet]";

fn fail2(msg: &str) -> ! {
    eprintln!("sweeprun: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let mut sweep_arg: Option<String> = None;
    let mut journal_arg: Option<String> = None;
    let mut report_arg: Option<String> = None;
    let mut status_arg: Option<String> = None;
    let mut metrics_arg: Option<String> = None;
    let mut quiet = false;
    let mut threads: usize = 0;
    let mut chaos: Option<ChaosPlan> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| fail2(&format!("--{flag} needs a value")))
        };
        match arg.as_str() {
            "--sweep" => sweep_arg = Some(next("sweep")),
            "--journal" => journal_arg = Some(next("journal")),
            "--report" => report_arg = Some(next("report")),
            "--status" => status_arg = Some(next("status")),
            "--metrics" => metrics_arg = Some(next("metrics")),
            "--quiet" => quiet = true,
            "--threads" => {
                let v = next("threads");
                threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail2(&format!("bad value `{v}` for --threads")));
            }
            "--chaos" => {
                let v = next("chaos");
                let config = ChaosConfig::parse_spec(&v).unwrap_or_else(|e| fail2(&e));
                chaos = Some(ChaosPlan::new(config));
            }
            "--io-chaos" => {
                let v = next("io-chaos");
                let config =
                    pim_ckpt::vfs::IoChaosConfig::parse_spec(&v).unwrap_or_else(|e| fail2(&e));
                pim_ckpt::vfs::install(config);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail2(&format!("unknown flag `{other}`")),
        }
    }
    let Some(sweep_arg) = sweep_arg else {
        fail2("--sweep is required");
    };
    let sweep_spec = pim_ckpt::spec::parse_file_spec("sweep", &sweep_arg, &["retries", "timeout"])
        .unwrap_or_else(|e| fail2(&e));
    let journal_path = journal_arg.map(|a| {
        pim_ckpt::spec::parse_file_spec("journal", &a, &[])
            .unwrap_or_else(|e| fail2(&e))
            .path
    });
    let text = std::fs::read_to_string(&sweep_spec.path)
        .unwrap_or_else(|e| fail2(&format!("cannot read {}: {e}", sweep_spec.path)));
    let mut spec = SweepSpec::parse(&text).unwrap_or_else(|e| fail2(&e));
    if let Some(n) = sweep_spec
        .get_u64("sweep", "retries")
        .unwrap_or_else(|e| fail2(&e))
    {
        if n == 0 {
            fail2("retries in --sweep must be >= 1");
        }
        spec.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }
    if let Some(secs) = sweep_spec
        .get_u64("sweep", "timeout")
        .unwrap_or_else(|e| fail2(&e))
    {
        if secs == 0 {
            fail2("timeout in --sweep must be >= 1 second");
        }
        spec.timeout_secs = Some(secs);
    }

    let cells = spec.cells();
    let spec_digest = spec.digest();
    let started = std::time::Instant::now();

    // Probe the report destination before the journal opens, so an
    // unwritable path fails now instead of after the whole grid ran.
    if let Some(path) = &report_arg {
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(path)) {
            eprintln!("sweeprun: cannot write report {path}: {e}");
            exit(1);
        }
    }

    // Open (or resume) the journal before any work: a journal for a
    // different sweep, or a file that is not a journal, is refused.
    let mut prior = BTreeMap::new();
    let mut resumed = false;
    let mut journal = None;
    if let Some(path) = &journal_path {
        match Journal::open(std::path::Path::new(path), spec_digest) {
            Ok((j, replay)) => {
                resumed = replay.records > 0;
                prior = replay.outcomes;
                journal = Some(j);
            }
            Err(e) => {
                eprintln!("sweeprun: refusing journal {path}: {e}");
                exit(1);
            }
        }
    }

    // Live telemetry is always collected (it is cheap and drives the
    // progress lines); side files are only written when asked for.
    let telemetry = pim_telemetry::RunStatus::new("sweeprun");
    telemetry.set_progress_stderr(!quiet);
    if let Some(a) = &status_arg {
        let status_spec =
            pim_ckpt::spec::parse_file_spec("status", a, &["every"]).unwrap_or_else(|e| fail2(&e));
        let every = status_spec
            .get_u64("status", "every")
            .unwrap_or_else(|e| fail2(&e))
            .unwrap_or(pim_telemetry::DEFAULT_EVERY_SECS);
        if let Err(e) = telemetry.attach_status_file(&status_spec.path, every) {
            eprintln!("sweeprun: cannot write status {}: {e}", status_spec.path);
            exit(1);
        }
    }
    if let Some(path) = &metrics_arg {
        if let Err(e) = telemetry.attach_metrics_file(path) {
            eprintln!("sweeprun: cannot write metrics {path}: {e}");
            exit(1);
        }
    }

    let sigint = pim_ckpt::install_sigint_flag();
    pim_sweep::exec::silence_panic_output();
    let chaos_on = chaos.is_some();
    let cfg = ExecConfig {
        threads,
        max_attempts: spec.max_attempts,
        timeout_secs: spec.timeout_secs,
        backoff_ms: spec.backoff_ms,
        chaos,
    };
    let result = run_sweep(
        &cells,
        &prior,
        &cfg,
        journal.as_mut(),
        Some(sigint),
        Some(&telemetry),
    );
    telemetry.finish();

    let interrupted = sigint.load(Ordering::Relaxed);
    let prov = Provenance {
        executed: result.executed,
        reused: result.reused,
        retries: result.retries,
        threads: cfg.threads as u64,
        chaos: chaos_on,
        resumed,
        interrupted,
        wall_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        cell_wall_ms: result.wall_hist.clone(),
    };
    let doc = pim_sweep::report::render(spec_digest, &result, &prov);
    match &report_arg {
        Some(path) => {
            if let Err(e) = pim_ckpt::atomic_write_class(
                pim_ckpt::vfs::PathClass::Report,
                std::path::Path::new(path),
                doc.to_string_pretty().as_bytes(),
            ) {
                eprintln!("sweeprun: cannot write report {path}: {e}");
                exit(1);
            }
        }
        None => println!("{}", doc.to_string_pretty()),
    }

    let mut done = 0u64;
    let mut quarantined = 0u64;
    let mut skipped = 0u64;
    for (cell, fate) in &result.cells {
        match fate {
            CellFate::Done(_) => done += 1,
            CellFate::Quarantined { attempts, error } => {
                quarantined += 1;
                eprintln!(
                    "sweeprun: quarantined `{}` after {attempts} attempts: {error}",
                    cell.key()
                );
            }
            CellFate::Skipped => skipped += 1,
        }
    }
    if let Some(e) = &result.journal_error {
        // The journal disk failed mid-run: the sweep finished and every
        // cell result is in the report above, but completions after the
        // failure were not recorded — so resume is disabled (a rerun
        // would trust an incomplete journal). Name the path and the
        // failing syscall; the record of *which* run to redo is the
        // resume command below.
        eprintln!("sweeprun: journal degraded: {e}");
        if let Some(path) = &journal_path {
            eprintln!(
                "sweeprun: resume is disabled for this run: records appended before the \
                 failure are durable, later completions are not; rerun in full with: \
                 rm {path} && sweeprun --sweep {sweep_arg} --journal {path}"
            );
        }
    }
    eprintln!(
        "sweeprun: {} cells: {done} done, {quarantined} quarantined, {skipped} skipped \
         ({} served from journal, {} executed) in {} ms",
        result.cells.len(),
        result.reused,
        result.executed,
        prov.wall_ms
    );
    if quarantined > 0 {
        if let Some(path) = &journal_path {
            eprintln!(
                "sweeprun: quarantines are recorded in the journal at {path}; retry them with: \
                 rm {path} && sweeprun --sweep {sweep_arg} --journal {path}"
            );
        }
    }
    if let Some(line) = pim_ckpt::vfs::summary_line() {
        eprintln!("{line}");
    }
    if interrupted {
        match &journal_path {
            Some(path) => eprintln!(
                "sweeprun: interrupted: completed cells are safe in the journal at {path}; \
                 resume with: sweeprun --sweep {sweep_arg} --journal {path}"
            ),
            None => eprintln!(
                "sweeprun: interrupted: no journal was configured, so completed work is lost; \
                 rerun with --journal FILE to make the sweep resumable"
            ),
        }
        exit(130);
    }
    if result.degraded() {
        exit(1);
    }
}
