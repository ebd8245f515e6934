//! End-to-end tests of `sweeprun`: crash-safe resume, journal reuse,
//! chaos convergence, quarantine, refused journals, and SIGINT drain.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn sweeprun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweeprun"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweeprun-cli-{tag}-{}", std::process::id()));
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
/// different between an undisturbed run and its resumed/chaos twin.
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

fn provenance_field(report: &str, key: &str) -> u64 {
    let prov = &report[report.find(r#""provenance""#).expect("provenance block")..];
    let at = prov.find(&format!("\"{key}\"")).expect("field");
    let tail = &prov[at..];
    let colon = tail.find(':').unwrap();
    tail[colon + 1..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

const BASIC_SPEC: &str = "\
protocols = pim, illinois\n\
benches = tri, semi\n\
scales = smoke\n\
pes = 2\n\
backoff = 1\n";

#[test]
fn full_sweep_exits_0_and_is_thread_invariant_modulo_provenance() {
    let dir = tempdir("threads");
    let spec = write_spec(&dir, "s.sweep", BASIC_SPEC);
    let mut reports = Vec::new();
    for threads in ["1", "2"] {
        let report = dir.join(format!("r{threads}.json"));
        let out = sweeprun()
            .args(["--sweep", spec.to_str().unwrap(), "--threads", threads])
            .args(["--report", report.to_str().unwrap()])
            .output()
            .expect("sweeprun runs");
        assert!(out.status.success(), "{}", stderr_of(&out));
        reports.push(std::fs::read_to_string(&report).unwrap());
    }
    assert_ne!(reports[0], ""); // sanity
    assert_eq!(strip_provenance(&reports[0]), strip_provenance(&reports[1]));
    assert!(reports[0].contains(r#""schema": "pim-sweep/v1""#));
    assert!(reports[0].contains(r#""done": 4"#));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_timeout_too_large_to_represent_is_no_deadline() {
    let dir = tempdir("hugetimeout");
    let spec = write_spec(&dir, "s.sweep", BASIC_SPEC);
    let report = dir.join("r.json");
    let out = sweeprun()
        .args([
            "--sweep",
            &format!("{}:timeout=18446744073709551615", spec.display()),
        ])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let body = std::fs::read_to_string(&report).unwrap();
    assert!(body.contains(r#""done": 4"#), "{body}");
    assert!(body.contains(r#""quarantined": 0"#), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn completed_cells_are_served_from_the_journal_not_rerun() {
    let dir = tempdir("reuse");
    let spec = write_spec(&dir, "s.sweep", BASIC_SPEC);
    let journal = dir.join("j.swl");
    let run = |report: &str| {
        let path = dir.join(report);
        let out = sweeprun()
            .args(["--sweep", spec.to_str().unwrap(), "--threads", "2"])
            .args(["--journal", journal.to_str().unwrap()])
            .args(["--report", path.to_str().unwrap()])
            .output()
            .expect("sweeprun runs");
        assert!(out.status.success(), "{}", stderr_of(&out));
        std::fs::read_to_string(&path).unwrap()
    };
    let first = run("r1.json");
    assert_eq!(provenance_field(&first, "executed"), 4);
    assert_eq!(provenance_field(&first, "reused"), 0);
    // Second invocation over a complete journal executes nothing: the
    // cell-execution counter proves every cell came from the journal.
    let second = run("r2.json");
    assert_eq!(provenance_field(&second, "executed"), 0);
    assert_eq!(provenance_field(&second, "reused"), 4);
    assert_eq!(strip_provenance(&first), strip_provenance(&second));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_mid_sweep_then_resume_matches_an_undisturbed_run() {
    let dir = tempdir("kill9");
    // Enough cells that a kill shortly after start lands mid-sweep.
    let spec_body = "\
        protocols = pim\n\
        benches = tri, semi, puzzle, pascal\n\
        scales = smoke\n\
        pes = 1, 2\n\
        backoff = 1\n";
    let spec = write_spec(&dir, "s.sweep", spec_body);
    // The undisturbed twin, no journal at all.
    let clean_report = dir.join("clean.json");
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--report", clean_report.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let clean = std::fs::read_to_string(&clean_report).unwrap();

    for threads in ["1", "2"] {
        let journal = dir.join(format!("j{threads}.swl"));
        // Start a journaled sweep and SIGKILL it mid-run: no drain, no
        // atexit — the journal's fsync'd records are all that survives.
        let mut child = sweeprun()
            .args(["--sweep", spec.to_str().unwrap(), "--threads", threads])
            .args(["--journal", journal.to_str().unwrap()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("sweeprun spawns");
        std::thread::sleep(std::time::Duration::from_millis(400));
        child.kill().expect("SIGKILL");
        child.wait().expect("reaped");

        // Resume from whatever the journal holds; the report must be
        // byte-identical to the undisturbed run modulo provenance.
        let resumed_report = dir.join(format!("resumed{threads}.json"));
        let out = sweeprun()
            .args(["--sweep", spec.to_str().unwrap(), "--threads", threads])
            .args(["--journal", journal.to_str().unwrap()])
            .args(["--report", resumed_report.to_str().unwrap()])
            .output()
            .expect("sweeprun runs");
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            stderr_of(&out)
        );
        let resumed = std::fs::read_to_string(&resumed_report).unwrap();
        assert_eq!(
            strip_provenance(&clean),
            strip_provenance(&resumed),
            "threads {threads}"
        );
        // And a third pass over the now-complete journal runs nothing.
        let third_report = dir.join(format!("third{threads}.json"));
        let out = sweeprun()
            .args(["--sweep", spec.to_str().unwrap(), "--threads", threads])
            .args(["--journal", journal.to_str().unwrap()])
            .args(["--report", third_report.to_str().unwrap()])
            .output()
            .expect("sweeprun runs");
        assert!(out.status.success(), "{}", stderr_of(&out));
        let third = std::fs::read_to_string(&third_report).unwrap();
        assert_eq!(provenance_field(&third, "executed"), 0);
        assert_eq!(strip_provenance(&clean), strip_provenance(&third));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_cell_is_quarantined_by_name_while_the_rest_complete() {
    let dir = tempdir("poison");
    let spec = write_spec(
        &dir,
        "s.sweep",
        "protocols = pim\nbenches = tri, poison, semi\nscales = smoke\npes = 2\n\
         retries = 3\nbackoff = 1\n",
    );
    let report = dir.join("r.json");
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("quarantined `proto=pim bench=poison scale=smoke pes=2 block=4`"),
        "{stderr}"
    );
    assert!(stderr.contains("after 3 attempts"), "{stderr}");
    let body = std::fs::read_to_string(&report).unwrap();
    assert!(body.contains(r#""done": 2"#), "{body}");
    assert!(body.contains(r#""quarantined": 1"#), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_runs_converge_to_the_undisturbed_report() {
    let dir = tempdir("chaos");
    let spec = write_spec(
        &dir,
        "s.sweep",
        "protocols = pim\nbenches = tri, semi, poison\nscales = smoke\npes = 2\n\
         retries = 3\nbackoff = 1\n",
    );
    let run = |extra: &[&str], report: &str| {
        let path = dir.join(report);
        let out = sweeprun()
            .args(["--sweep", spec.to_str().unwrap()])
            .args(extra)
            .args(["--report", path.to_str().unwrap()])
            .output()
            .expect("sweeprun runs");
        // The poison cell keeps every variant at exit 1; chaos must not
        // change that, nor the report body.
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        std::fs::read_to_string(&path).unwrap()
    };
    let clean = run(&["--threads", "2"], "clean.json");
    for (seed, threads) in [("1", "1"), ("2", "2")] {
        let chaotic = run(
            &[
                "--threads",
                threads,
                "--chaos",
                &format!("seed={seed},kill=500000,delay=300000,max_delay_ms=5"),
            ],
            &format!("chaos{seed}.json"),
        );
        assert_eq!(
            strip_provenance(&clean),
            strip_provenance(&chaotic),
            "seed {seed}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_or_mismatched_journals_are_refused_with_named_errors() {
    let dir = tempdir("refuse");
    let spec = write_spec(&dir, "s.sweep", BASIC_SPEC);
    // Not a journal at all.
    let bogus = dir.join("bogus.swl");
    std::fs::write(&bogus, b"definitely not a journal").unwrap();
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap()])
        .args(["--journal", bogus.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("refusing journal"), "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
    // A journal from a different sweep grid.
    let other_spec = write_spec(
        &dir,
        "other.sweep",
        "protocols = pim\nbenches = tri\nscales = smoke\npes = 1\n",
    );
    let journal = dir.join("other.swl");
    let out = sweeprun()
        .args(["--sweep", other_spec.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", journal.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .output()
        .expect("sweeprun runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap()])
        .args(["--journal", journal.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("different sweep"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flag_and_spec_errors_exit_2_with_the_flag_named() {
    let dir = tempdir("flags");
    let out = sweeprun().output().expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--sweep is required"));
    let spec = write_spec(&dir, "s.sweep", BASIC_SPEC);
    let arg = format!("{}:retries=zero", spec.to_str().unwrap());
    let out = sweeprun()
        .args(["--sweep", &arg])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("bad value `zero` for `retries` in --sweep"),
        "{stderr}"
    );
    let bad = write_spec(&dir, "bad.sweep", "protocols = mesi\n");
    let out = sweeprun()
        .args(["--sweep", bad.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown protocol `mesi`"));
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigint_drains_to_the_journal_and_exits_130_with_a_resume_hint() {
    let dir = tempdir("sigint");
    let spec_body = "\
        protocols = pim, illinois\n\
        benches = tri, semi, puzzle, pascal\n\
        scales = smoke\n\
        pes = 1, 2\n\
        backoff = 1\n";
    let spec = write_spec(&dir, "s.sweep", spec_body);
    let journal = dir.join("j.swl");
    let report = dir.join("r.json");
    let mut child = sweeprun()
        .args(["--sweep", spec.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", journal.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("sweeprun spawns");
    // Interrupt as soon as the first cell completes — a fixed sleep
    // races a release-mode sweep that finishes in a few hundred ms.
    use std::io::Read;
    let mut pipe = child.stderr.take().expect("stderr piped");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 256];
    while !String::from_utf8_lossy(&raw).contains("done `") {
        let n = pipe.read(&mut chunk).expect("stderr readable");
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    pipe.read_to_end(&mut raw).expect("stderr drains");
    let status = child.wait().expect("sweeprun exits");
    let stderr = String::from_utf8_lossy(&raw);
    assert_eq!(status.code(), Some(130), "{stderr}");
    assert!(stderr.contains("interrupted"), "{stderr}");
    assert!(stderr.contains("resume"), "{stderr}");
    // The hint names the journal path and spells out the exact resume
    // command, ready to paste.
    assert!(stderr.contains(journal.to_str().unwrap()), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "resume with: sweeprun --sweep {} --journal {}",
            spec.to_str().unwrap(),
            journal.to_str().unwrap()
        )),
        "{stderr}"
    );
    // Even the interrupted invocation wrote a valid report enumerating
    // every cell (done + skipped).
    let body = std::fs::read_to_string(&report).unwrap();
    assert!(body.contains(r#""schema": "pim-sweep/v1""#));
    // Resuming completes the remaining cells with exit 0.
    let resumed = dir.join("resumed.json");
    let out = sweeprun()
        .args(["--sweep", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--journal", journal.to_str().unwrap()])
        .args(["--report", resumed.to_str().unwrap()])
        .output()
        .expect("sweeprun runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let resumed = std::fs::read_to_string(&resumed).unwrap();
    assert!(resumed.contains(r#""skipped": 0"#), "{resumed}");
    std::fs::remove_dir_all(&dir).ok();
}
