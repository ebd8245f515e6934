//! End-to-end tests of the sweeprun telemetry surface: `--status`,
//! `--metrics`, `--quiet`, and the determinism contract — telemetry is
//! stderr/side-file only, so report, journal, and stdout bytes are
//! identical with telemetry on or off at any thread count.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pim_telemetry::Snapshot;

fn sweeprun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweeprun"))
}

/// `sweepwatch` lives in the pim-telemetry crate, so there is no
/// `CARGO_BIN_EXE_` for it here; it is a sibling of `sweeprun` in the
/// shared target directory whenever the workspace test suite is built.
fn sweepwatch_path() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_sweeprun")).with_file_name(if cfg!(windows) {
        "sweepwatch.exe"
    } else {
        "sweepwatch"
    })
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweeprun-tel-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_spec(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Strips the `provenance` block — the one section legitimately
/// different between runs (it carries wall-clock timing).
fn strip_provenance(report: &str) -> String {
    let Some(start) = report.find(r#""provenance""#) else {
        return report.to_string();
    };
    let bytes = report.as_bytes();
    let mut depth = 0usize;
    let mut end = start;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = i + 1;
                    break;
                }
            }
            _ => {}
        }
    }
    format!("{}{}", &report[..start], &report[end..])
}

const CHAOS_SPEC: &str = "\
protocols = pim, illinois\n\
benches = tri, semi\n\
scales = smoke\n\
pes = 2\n\
retries = 3\n\
backoff = 1\n";

#[test]
fn telemetry_on_and_off_yield_identical_reports_and_journals() {
    let dir = tempdir("diff");
    let spec = write_spec(&dir, "s.sweep", CHAOS_SPEC);
    let chaos = "seed=5,kill=300000,delay=200000,max_delay_ms=5";
    let run = |tag: &str, threads: &str, telemetry: bool| -> (String, String, Vec<u8>) {
        let report = dir.join(format!("r-{tag}.json"));
        let journal = dir.join(format!("j-{tag}.swl"));
        let mut cmd = sweeprun();
        cmd.args(["--sweep", spec.to_str().unwrap(), "--threads", threads])
            .args(["--chaos", chaos])
            .args(["--journal", journal.to_str().unwrap()])
            .args(["--report", report.to_str().unwrap()]);
        if telemetry {
            let status = dir.join(format!("s-{tag}.json"));
            let metrics = dir.join(format!("m-{tag}.prom"));
            cmd.args(["--status", status.to_str().unwrap()])
                .args(["--metrics", metrics.to_str().unwrap()]);
        }
        let out = cmd.output().expect("sweeprun runs");
        assert!(out.status.success(), "{tag}: {}", stderr_of(&out));
        (
            String::from_utf8(out.stdout).unwrap(),
            std::fs::read_to_string(&report).unwrap(),
            std::fs::read(&journal).unwrap(),
        )
    };
    // Telemetry must not perturb a single byte of stdout, the report
    // (modulo provenance), or — at one thread, where record order is
    // deterministic — the journal.
    let (stdout_off, report_off, journal_off) = run("off-1", "1", false);
    let (stdout_on, report_on, journal_on) = run("on-1", "1", true);
    assert_eq!(stdout_off, stdout_on);
    assert_eq!(strip_provenance(&report_off), strip_provenance(&report_on));
    assert_eq!(journal_off, journal_on);
    // And thread count changes nothing outside provenance either way.
    let (_, report_on2, _) = run("on-2", "2", true);
    assert_eq!(strip_provenance(&report_off), strip_provenance(&report_on2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_and_metrics_files_carry_the_final_counts() {
    let dir = tempdir("files");
    let spec = write_spec(&dir, "s.sweep", CHAOS_SPEC);
    let status = dir.join("s.json");
    let metrics = dir.join("m.prom");
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--status", status.to_str().unwrap()])
        .args(["--metrics", metrics.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .output()
        .expect("sweeprun runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let snap = Snapshot::parse(&std::fs::read_to_string(&status).unwrap()).expect("parses");
    assert_eq!(snap.tool, "sweeprun");
    assert!(snap.finished);
    assert_eq!(snap.total, 4);
    assert_eq!(snap.done, 4);
    assert_eq!(snap.pending, 0);
    assert_eq!(snap.workers, 2);
    assert!(!snap.degraded());
    assert!(snap.engine_steps > 0, "engine chunks fed the registry");
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        prom.contains("pim_cells_done_total{tool=\"sweeprun\"} 4"),
        "{prom}"
    );
    assert!(
        prom.contains("pim_run_finished{tool=\"sweeprun\"} 1"),
        "{prom}"
    );
    assert!(prom.contains("# TYPE pim_cells_total gauge"), "{prom}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The ISSUE's crash-safety contract: SIGKILL mid-sweep leaves the
/// status file either absent or a complete, parseable `pim-status/v1`
/// document — never a torn write.
#[cfg(unix)]
#[test]
fn sigkill_mid_sweep_leaves_an_untorn_snapshot_that_sweepwatch_renders() {
    let dir = tempdir("kill9");
    // Enough work (24 small-scale cells on one worker) that the run is
    // still going when the mid-run snapshot appears.
    let spec = write_spec(
        &dir,
        "s.sweep",
        "protocols = pim, illinois\nbenches = tri, semi, puzzle, pascal\n\
         scales = small\npes = 1, 2, 4\nbackoff = 1\n",
    );
    let status = dir.join("s.json");
    let mut child = sweeprun()
        .args(["--sweep", spec.to_str().unwrap(), "--threads", "1"])
        .args(["--status", &format!("{}:every=1", status.to_str().unwrap())])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("sweeprun spawns");
    // SIGKILL the instant the on-disk snapshot shows a live mid-run
    // state — a fixed sleep races the run length across build profiles.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Ok(snap) = std::fs::read_to_string(&status)
            .map_err(|e| e.to_string())
            .and_then(|text| Snapshot::parse(&text))
        {
            if snap.total > 0 && !snap.finished {
                break;
            }
        }
        assert!(
            child.try_wait().expect("poll child").is_none(),
            "sweeprun finished before a live mid-run snapshot appeared"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "no live snapshot within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");

    let text = std::fs::read_to_string(&status).unwrap();
    let snap = Snapshot::parse(&text).expect("snapshot survived SIGKILL un-torn");
    assert!(!snap.finished, "killed mid-run");
    assert_eq!(snap.total, 24);

    // sweepwatch --once renders it and exits 0 (alive, not degraded).
    let watch = sweepwatch_path();
    if watch.exists() {
        let out = Command::new(&watch)
            .args(["--once", status.to_str().unwrap()])
            .output()
            .expect("sweepwatch runs");
        let rendered = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        assert!(rendered.contains("cells settled"), "{rendered}");
        assert!(rendered.contains("sweeprun"), "{rendered}");
    } else {
        // `cargo test -p pim-sweep` alone does not build the
        // pim-telemetry binaries; the full-workspace suite and CI do.
        eprintln!("sweepwatch not built; skipping the render check");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_suppresses_progress_lines_but_never_quarantine_lines() {
    let dir = tempdir("quiet");
    let spec = write_spec(
        &dir,
        "s.sweep",
        "protocols = pim\nbenches = tri, poison, semi\nscales = smoke\npes = 2\n\
         retries = 2\nbackoff = 1\n",
    );
    let run = |quiet: bool| -> String {
        let mut cmd = sweeprun();
        cmd.args(["--sweep", spec.to_str().unwrap(), "--threads", "1"]);
        if quiet {
            cmd.arg("--quiet");
        }
        let out = cmd
            .stdout(std::process::Stdio::null())
            .output()
            .expect("sweeprun runs");
        // The poison cell keeps both variants at exit 1.
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        stderr_of(&out)
    };
    let loud = run(false);
    assert!(loud.contains("done `proto=pim bench=Tri"), "{loud}");
    assert!(loud.contains("retry `proto=pim bench=poison"), "{loud}");
    assert!(
        loud.contains("quarantined `proto=pim bench=poison"),
        "{loud}"
    );
    let quiet = run(true);
    assert!(!quiet.contains("done `"), "{quiet}");
    assert!(!quiet.contains("retry `"), "{quiet}");
    // Quarantine and summary lines survive --quiet.
    assert!(
        quiet.contains("quarantined `proto=pim bench=poison"),
        "{quiet}"
    );
    assert!(quiet.contains("1 quarantined"), "{quiet}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_status_spec_or_unwritable_paths_fail_fast() {
    let dir = tempdir("badflags");
    let spec = write_spec(&dir, "s.sweep", CHAOS_SPEC);
    // Unknown key in the --status spec is a flag error.
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap()])
        .args(["--status", "s.json:bogus=1"])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("bogus"), "{}", stderr_of(&out));
    // An unwritable metrics destination fails before any cell runs.
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap()])
        .args(["--metrics", "/nonexistent-dir/m.prom"])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("cannot write metrics"),
        "{}",
        stderr_of(&out)
    );
    // So does an unwritable report destination: no cell runs first.
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap()])
        .args(["--report", "/nonexistent-dir/r.json"])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("cannot write report"), "{stderr}");
    assert!(!stderr.contains(": done `"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
