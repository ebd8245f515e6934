//! End-to-end tests of `--checkpoint`/`--resume`: resuming from a
//! mid-run checkpoint must be invisible in every output (traces
//! byte-identical, reports identical modulo the `checkpoint` provenance
//! block), wherever the run paused and under fault injection — and a
//! corrupted checkpoint must be refused with a named diagnostic, never
//! a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn kl1run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kl1run"))
}

fn tracesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracesim"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_ckpt_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A report with the `checkpoint` provenance lines removed — the one
/// block allowed to differ between a resumed run and its twin.
fn modulo_checkpoint(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("\"resumed_from_cycle\"") && !l.contains("\"snapshots\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "expected success, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_refused(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{what}: expected exit 1, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("refused checkpoint"),
        "{what}: diagnostic must name the refusal\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{what}: refusal must not be a panic\nstderr: {stderr}"
    );
}

#[test]
fn tracesim_resume_is_invisible_at_every_pause_point() {
    let dir = tmpdir("pauses");
    // Both protocols resume through the same harness.
    for protocol in [&[][..], &["--illinois"][..]] {
        let tag = protocol.first().map_or("pim", |_| "illinois");
        let full_report = dir.join(format!("full-{tag}.json"));
        let full_trace = dir.join(format!("full-{tag}.trace"));

        let out = tracesim()
            .args(["--gen", "producer-consumer", "--pes", "2"])
            .args(protocol)
            .args(["--report", full_report.to_str().unwrap()])
            .args(["--trace", full_trace.to_str().unwrap()])
            .output()
            .expect("tracesim runs");
        assert_ok(&out);

        // Each cadence leaves `ck` holding a different last mid-run state.
        // Instrumentation presence is part of the resume contract, so the
        // checkpointed run carries the same --report/--trace flags.
        for every in ["500", "2000", "3500"] {
            let ck = dir.join(format!("mid{every}-{tag}.ck"));
            let out = tracesim()
                .args(["--gen", "producer-consumer", "--pes", "2"])
                .args(protocol)
                .args(["--report", dir.join("ck.json").to_str().unwrap()])
                .args(["--trace", dir.join("ck.trace").to_str().unwrap()])
                .args(["--checkpoint", &format!("{}:every={every}", ck.display())])
                .output()
                .expect("tracesim runs");
            assert_ok(&out);
            assert!(ck.exists(), "periodic checkpointing must leave a snapshot");

            let report = dir.join(format!("res{every}-{tag}.json"));
            let trace = dir.join(format!("res{every}-{tag}.trace"));
            let out = tracesim()
                .args(["--gen", "producer-consumer", "--pes", "2"])
                .args(protocol)
                .args(["--resume", ck.to_str().unwrap()])
                .args(["--report", report.to_str().unwrap()])
                .args(["--trace", trace.to_str().unwrap()])
                .output()
                .expect("tracesim runs");
            assert_ok(&out);
            assert_eq!(
                std::fs::read(&full_trace).unwrap(),
                std::fs::read(&trace).unwrap(),
                "trace must be byte-identical after resume from every={every}"
            );
            assert_eq!(
                modulo_checkpoint(&read(&full_report)),
                modulo_checkpoint(&read(&report)),
                "report must match modulo checkpoint block after resume from every={every}"
            );
            assert!(
                read(&report).contains("\"resumed_from_cycle\":"),
                "resumed report must carry checkpoint provenance"
            );
        }
    }
}

#[test]
fn tracesim_resume_is_invisible_under_fault_injection() {
    let dir = tmpdir("faults");
    let full_report = dir.join("full.json");
    let ck = dir.join("mid.ck");
    let faults = ["--faults", "seed=7,rate=0.002"];

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(faults)
        .args(["--report", full_report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(faults)
        .args(["--report", dir.join("ck.json").to_str().unwrap()])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    let report = dir.join("res.json");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(faults)
        .args(["--resume", ck.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    assert_eq!(
        modulo_checkpoint(&read(&full_report)),
        modulo_checkpoint(&read(&report)),
        "fault-seeded resume must reproduce the uninterrupted report"
    );
}

#[test]
fn kl1run_resume_reproduces_answer_and_profile() {
    let dir = tmpdir("kl1run");
    // Both protocols resume through the same harness.
    for protocol in [&[][..], &["--illinois"][..]] {
        let tag = protocol.first().map_or("pim", |_| "illinois");
        let full_profile = dir.join(format!("full-{tag}.json"));
        let ck = dir.join(format!("mid-{tag}.ck"));

        let out = kl1run()
            .args(["--pes", "4"])
            .args(protocol)
            .args(["--profile", full_profile.to_str().unwrap()])
            .arg("examples/fghc/hanoi.fghc")
            .output()
            .expect("kl1run runs");
        assert_ok(&out);
        let answer = String::from_utf8_lossy(&out.stdout).trim().to_string();
        assert_eq!(answer, "X = 1023");

        let out = kl1run()
            .args(["--pes", "4"])
            .args(protocol)
            .args(["--profile", dir.join("ck.json").to_str().unwrap()])
            .args(["--checkpoint", &format!("{}:every=10000", ck.display())])
            .arg("examples/fghc/hanoi.fghc")
            .output()
            .expect("kl1run runs");
        assert_ok(&out);
        assert!(ck.exists());

        let profile = dir.join(format!("res-{tag}.json"));
        let out = kl1run()
            .args(["--pes", "4"])
            .args(protocol)
            .args(["--resume", ck.to_str().unwrap()])
            .args(["--profile", profile.to_str().unwrap()])
            .arg("examples/fghc/hanoi.fghc")
            .output()
            .expect("kl1run runs");
        assert_ok(&out);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            answer,
            "resumed run must print the same answer"
        );
        assert_eq!(
            modulo_checkpoint(&read(&full_profile)),
            modulo_checkpoint(&read(&profile)),
            "resumed profile must match modulo checkpoint block"
        );
    }
}

#[test]
fn corrupt_checkpoints_are_refused_never_panic() {
    let dir = tmpdir("fuzz");
    let ck = dir.join("mid.ck");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let good = std::fs::read(&ck).unwrap();
    assert!(good.len() > 64, "checkpoint should be non-trivial");

    let resume = |path: &Path| {
        tracesim()
            .args(["--gen", "producer-consumer", "--pes", "2"])
            .args(["--resume", path.to_str().unwrap()])
            .output()
            .expect("tracesim runs")
    };

    // Truncation at every region of the file: inside the magic, the
    // length word, the payload, and just short of the checksum.
    let bad = dir.join("bad.ck");
    for cut in [0, 1, 7, 12, 19, good.len() / 2, good.len() - 1] {
        std::fs::write(&bad, &good[..cut]).unwrap();
        assert_refused(&resume(&bad), &format!("truncated to {cut} bytes"));
    }

    // Single-byte corruption in each region: the FNV checksum (or the
    // magic / length checks) must catch every one.
    for (i, flip) in [
        (0usize, 0xffu8),
        (5, 0x01),
        (12, 0x80),
        (13, 0x01),
        (24, 0xa5),
        (good.len() / 2, 0x10),
        (good.len() - 1, 0x01),
    ] {
        let mut bytes = good.clone();
        bytes[i] ^= flip;
        std::fs::write(&bad, &bytes).unwrap();
        assert_refused(&resume(&bad), &format!("byte {i} xor {flip:#x}"));
    }

    // Garbage that is not a checkpoint at all.
    std::fs::write(&bad, b"this is not a checkpoint file").unwrap();
    assert_refused(&resume(&bad), "non-checkpoint garbage");

    // A missing file is refused up front, before any simulation state
    // is built.
    let out = resume(&dir.join("does-not-exist.ck"));
    assert_refused(&out, "missing file");

    // The pristine file still resumes cleanly after all that.
    assert_ok(&resume(&ck));
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_run() {
    let dir = tmpdir("mismatch");
    let ck = dir.join("mid.ck");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    // Same tool, different configuration.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "4"])
        .args(["--resume", ck.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_refused(&out, "different --pes");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("configuration"),
        "diagnostic should blame the configuration"
    );

    // A different tool's checkpoint.
    let out = kl1run()
        .args(["--pes", "2"])
        .args(["--resume", ck.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_refused(&out, "tracesim checkpoint fed to kl1run");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("tracesim"),
        "diagnostic should name the writing tool"
    );
}

#[test]
fn checkpoint_flags_are_validated_up_front() {
    let dir = tmpdir("flags");

    // A zero snapshot interval is a flag error.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", "x.ck:every=0"])
        .output()
        .expect("tracesim runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint"));

    // An unwritable checkpoint destination fails before simulating.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", "/nonexistent-dir/x.ck"])
        .output()
        .expect("tracesim runs");
    assert_eq!(out.status.code(), Some(2));

    // --flat has no engine to snapshot.
    let out = kl1run()
        .args(["--flat", "--checkpoint", dir.join("x.ck").to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--flat"));
}

#[test]
fn reports_always_carry_the_checkpoint_block() {
    // The `checkpoint` provenance block is part of the pinned report
    // schema: present in every document, `null`/0 for a plain run.
    let dir = tmpdir("schema");
    let report = dir.join("r.json");
    let profile = dir.join("p.json");

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let doc = read(&report);
    assert!(
        doc.contains(
            "\"checkpoint\": {\n    \"resumed_from_cycle\": null,\n    \"snapshots\": 0\n  }"
        ),
        "tracesim report checkpoint block drifted:\n{doc}"
    );

    let out = kl1run()
        .args(["--pes", "2"])
        .args(["--profile", profile.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_ok(&out);
    let doc = read(&profile);
    assert!(
        doc.contains(
            "\"checkpoint\": {\n    \"resumed_from_cycle\": null,\n    \"snapshots\": 0\n  }"
        ),
        "kl1run profile checkpoint block drifted:\n{doc}"
    );
}

#[test]
fn failed_flag_validation_leaves_existing_outputs_untouched() {
    // Up-front destination validation must not truncate files that a
    // previous successful run wrote (the probe is append-mode).
    let dir = tmpdir("preserve");
    let trace = dir.join("t.json");
    let report = dir.join("r.json");
    std::fs::write(&trace, "sentinel-trace").unwrap();
    std::fs::write(&report, "sentinel-report").unwrap();

    let out = tracesim()
        .args(["--gen", "no-such-workload", "--pes", "2"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(read(&trace), "sentinel-trace");
    assert_eq!(read(&report), "sentinel-report");

    let out = kl1run()
        .args(["--pes", "0"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--profile", report.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(read(&trace), "sentinel-trace");
    assert_eq!(read(&report), "sentinel-report");
}
