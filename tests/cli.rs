//! End-to-end tests of the two command-line tools.

use std::process::Command;

fn kl1run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kl1run"))
}

fn tracesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracesim"))
}

#[test]
fn kl1run_executes_a_program_and_prints_the_answer() {
    let out = kl1run()
        .args(["--pes", "4", "examples/fghc/quicksort.fghc"])
        .output()
        .expect("kl1run runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), "X = [1,2,3,5,9,9,10,14,27,27,30,63,82]");
}

#[test]
fn kl1run_stats_and_gc_options_work() {
    let out = kl1run()
        .args([
            "--pes",
            "2",
            "--gc",
            "2048",
            "--stats",
            "examples/fghc/hanoi.fghc",
        ])
        .output()
        .expect("kl1run runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "X = 1023");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("reductions:"), "{stderr}");
    assert!(stderr.contains("bus cycles:"), "{stderr}");
}

#[test]
fn kl1run_flat_and_illinois_modes_agree() {
    let run = |extra: &[&str]| {
        let mut cmd = kl1run();
        cmd.args(extra).arg("examples/fghc/primes.fghc");
        let out = cmd.output().expect("kl1run runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    let pim = run(&[]);
    let flat = run(&["--flat"]);
    let illinois = run(&["--illinois"]);
    assert_eq!(pim, flat);
    assert_eq!(pim, illinois);
    assert!(pim.starts_with("X = [2,3,5,7,11"));
}

#[test]
fn kl1run_dumps_compiled_code() {
    let out = kl1run()
        .args(["--code", "examples/fghc/hanoi.fghc"])
        .output()
        .expect("kl1run runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hanoi/2"), "{text}");
    assert!(text.contains("Commit"), "{text}");
}

#[test]
fn kl1run_reports_compile_errors_with_position() {
    let dir = std::env::temp_dir().join("kl1run_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.fghc");
    std::fs::write(&bad, "main :- true | nope(1).\n").unwrap();
    let out = kl1run().arg(bad.to_str().unwrap()).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("undefined procedure nope/1"), "{stderr}");

    // A syntax error exits 2 naming the file plus line:column.
    let bad = dir.join("syntax.fghc");
    std::fs::write(&bad, "main :- true | X = .\n").unwrap();
    let out = kl1run().arg(bad.to_str().unwrap()).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("syntax.fghc: 1:20:"), "{stderr}");
}

#[test]
fn tracesim_replays_a_generated_workload() {
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .output()
        .expect("tracesim runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("protocol: PIM"), "{stdout}");
    assert!(stdout.contains("bus cycles:"), "{stdout}");
}

#[test]
fn tracesim_replays_a_trace_file() {
    let dir = std::env::temp_dir().join("tracesim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.txt");
    // A DW-created goal record consumed with ER by another PE.
    let map = pim_trace::AreaMap::standard();
    let g = map.base(pim_trace::StorageArea::Goal);
    let text = format!(
        "# tiny trace\n0 DW {g:#x} goal\n0 W {:#x} goal\n1 ER {g:#x} goal\n1 ER {:#x} goal\n",
        g + 1,
        g + 1
    );
    std::fs::write(&path, text).unwrap();
    let out = tracesim()
        .arg(path.to_str().unwrap())
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("accesses:       4"), "{stdout}");
}

#[test]
fn kl1run_rejects_zero_pes_with_named_flag() {
    for flag in ["--pes", "--gc"] {
        let out = kl1run()
            .args([flag, "0", "examples/fghc/hanoi.fghc"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
    }
}

#[test]
fn kl1run_rejects_zero_threads_with_named_flag() {
    // kl1run has no --threads: any value is an unknown flag.
    for value in ["0", "2"] {
        let out = kl1run()
            .args(["--threads", value, "examples/fghc/hanoi.fghc"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag `--threads`"), "{stderr}");
    }
}

#[test]
fn tracesim_rejects_too_small_pes_instead_of_clamping() {
    // The trace references PE 3; an explicit --pes 2 must be an error
    // naming the flag and the needed minimum, not a silent clamp.
    let dir = std::env::temp_dir().join("tracesim_cli_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.txt");
    let map = pim_trace::AreaMap::standard();
    let h = map.base(pim_trace::StorageArea::Heap);
    std::fs::write(&path, format!("0 R {h:#x} heap\n3 R {h:#x} heap\n")).unwrap();
    let out = tracesim()
        .args(["--pes", "2", path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--pes"), "{stderr}");
    assert!(stderr.contains("PE 3"), "{stderr}");
    assert!(stderr.contains(">= 4"), "{stderr}");
    // Without the flag the trace still replays (PE count inferred).
    let out = tracesim()
        .arg(path.to_str().unwrap())
        .output()
        .expect("runs");
    assert!(out.status.success());
}

#[test]
fn tracesim_rejects_zero_pes_and_threads() {
    // Beside zero, values that used to wrap silently (a PE count past
    // u32) or panic (cache shapes the geometry cannot build, a zero-width
    // bus) are flag errors too.
    for (flag, value) in [
        ("--pes", "0"),
        ("--threads", "0"),
        ("--pes", "4294967296"),
        ("--pes", "4294967297"),
        ("--block", "3"),
        ("--block", "0"),
        ("--capacity", "0"),
        ("--capacity", "12"),
        ("--ways", "0"),
        ("--ways", "3"),
        ("--bus-width", "0"),
    ] {
        let out = tracesim()
            .args(["--gen", "aurora", flag, value])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    // tracesim has no --threads: any value is an unknown flag.
    let out = tracesim()
        .args(["--gen", "aurora", "--threads", "2"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--threads`"), "{stderr}");
}

#[test]
fn tracesim_reports_are_identical_run_to_run() {
    let dir = std::env::temp_dir().join("tracesim_cli_test4");
    std::fs::create_dir_all(&dir).unwrap();
    let report = |run: &str| {
        let path = dir.join(format!("report-{run}.json"));
        let out = tracesim()
            .args(["--gen", "lock-churn", "--pes", "4"])
            .args(["--report", path.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read_to_string(&path).unwrap(),
        )
    };
    let (out1, rep1) = report("1");
    let (out2, rep2) = report("2");
    assert_eq!(out2, out1, "stdout diverged between runs");
    assert_eq!(rep2, rep1, "report diverged between runs");
    assert!(rep1.contains("\"schema\": \"pim-repro/v1\""), "{rep1}");
}

#[test]
fn tracesim_rejects_malformed_traces() {
    let dir = std::env::temp_dir().join("tracesim_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    std::fs::write(&path, "0 ZZ 0x10 heap\n").unwrap();
    let out = tracesim()
        .arg(path.to_str().unwrap())
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad operation"), "{stderr}");
    // The diagnostic names the file and the offending line.
    assert!(stderr.contains("bad.txt:1:"), "{stderr}");
}

#[test]
fn tracesim_reports_a_stuck_replay_instead_of_hanging() {
    // PE0 locks a word and its stream ends without releasing it; PE1
    // then blocks on that lock with nothing left that could free it.
    let dir = std::env::temp_dir().join("tracesim_cli_stuck");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stuck.txt");
    let h = pim_trace::AreaMap::standard().base(pim_trace::StorageArea::Heap);
    std::fs::write(
        &path,
        format!(
            "0 LR {h:#x} heap\n1 R {:#x} heap\n1 R {:#x} heap\n1 LR {h:#x} heap\n1 U {h:#x} heap\n",
            h + 0x10,
            h + 0x20
        ),
    )
    .unwrap();
    let out = tracesim()
        .args(["--timeout", "10", path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replay stuck: PE1 blocked"), "{stderr}");
    assert!(!stderr.contains("wall-clock"), "{stderr}");
}

#[test]
fn tracesim_fault_injection_is_deterministic_run_to_run() {
    let dir = std::env::temp_dir().join("tracesim_cli_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let report = |run: &str| {
        let path = dir.join(format!("report-{run}.json"));
        let out = tracesim()
            .args(["--gen", "lock-churn", "--pes", "4"])
            .args(["--faults", "seed=7,rate=0.01"])
            .args(["--report", path.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read_to_string(&path).unwrap(),
        )
    };
    let (out1, rep1) = report("1");
    assert!(out1.contains("faults:"), "{out1}");
    assert!(rep1.contains("\"fault_plan\""), "{rep1}");
    let (out2, rep2) = report("2");
    assert_eq!(out2, out1, "stdout diverged between runs");
    assert_eq!(rep2, rep1, "report diverged between runs");
}

#[test]
fn tracesim_rejects_bad_fault_specs() {
    let out = tracesim()
        .args(["--gen", "aurora", "--faults", "seed=7,rate=banana"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults"));
}

#[test]
fn kl1run_completes_under_fault_injection() {
    // Faults are timing-only: the answer must match the fault-free run
    // and the stats line must account for them.
    let run = |args: &[&str]| {
        let mut cmd = kl1run();
        cmd.args(args).arg("examples/fghc/hanoi.fghc");
        let out = cmd.output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).trim().to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let (clean, _) = run(&["--pes", "2"]);
    let (faulty, stderr) = run(&["--pes", "2", "--stats", "--faults", "seed=7,rate=0.02"]);
    assert_eq!(faulty, clean);
    assert!(stderr.contains("faults:"), "{stderr}");
}

#[test]
fn tracesim_trace_files_are_byte_identical_run_to_run() {
    let dir = std::env::temp_dir().join("tracesim_cli_trace1");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = |run: &str| {
        let path = dir.join(format!("trace-{run}.json"));
        let out = tracesim()
            .args(["--gen", "aurora", "--pes", "4"])
            .args(["--trace", path.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&path).unwrap()
    };
    let t1 = trace("1");
    let t2 = trace("2");
    assert_eq!(t1, t2, "trace bytes diverged between runs");
    assert!(t1.contains("\"schema\":\"pim-trace/v1\""));
}

#[test]
fn kl1run_trace_is_schema_valid_perfetto_json() {
    let dir = std::env::temp_dir().join("kl1run_cli_trace1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hanoi.json");
    let out = kl1run()
        .args(["--pes", "4", "--trace", path.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    // Trace::parse rejects any event missing ph/ts/pid/tid.
    let trace = pim_tracer::Trace::parse(&text).expect("schema-valid trace_event JSON");
    assert!(trace.makespan > 0);
    assert_eq!(trace.dropped, trace.emitted - trace.recorded);
    assert!(trace.events.len() as u64 >= trace.recorded);
    // B/E spans are balanced on every track and never dip negative.
    let mut depth = std::collections::HashMap::new();
    for e in &trace.events {
        let d: &mut i64 = depth.entry(e.tid).or_default();
        match e.ph.as_str() {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "E before B on track {}", e.tid);
            }
            _ => {}
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "unbalanced B/E on track {tid}");
    }
    // KL1 events made it into the trace alongside the memory system's.
    assert!(
        trace.events.iter().any(|e| e.name == "reduce"),
        "no reductions"
    );
    assert!(trace.events.iter().any(|e| e.ph == "X"), "no spans");
}

#[test]
fn tracesim_rejects_bad_trace_destination_before_running() {
    // Unwritable path: fails up front, exit 2, flag named.
    let out = tracesim()
        .args(["--gen", "lock-churn", "--pes", "2"])
        .args(["--trace", "/nonexistent-dir-pim/x.json"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "{stderr}");

    // Malformed capacity suffix: same contract.
    let out = tracesim()
        .args(["--gen", "lock-churn", "--pes", "2"])
        .args(["--trace", "/tmp/x.json:cap=banana"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "{stderr}");
}

#[test]
fn kl1run_rejects_bad_trace_destination_before_running() {
    let out = kl1run()
        .args(["--pes", "2", "--trace", "/nonexistent-dir-pim/x.json"])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "{stderr}");

    // --flat has no simulated cycles to stamp; refuse the combination.
    let out = kl1run()
        .args(["--pes", "2", "--flat", "--trace", "/tmp/x.json"])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "{stderr}");
}

#[test]
fn tracesim_trace_ring_cap_drops_loudly_and_stays_deterministic() {
    let dir = std::env::temp_dir().join("tracesim_cli_trace2");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = |run: &str| {
        let path = dir.join(format!("capped-{run}.json"));
        let spec = format!("{}:cap=200", path.to_str().unwrap());
        let out = tracesim()
            .args(["--gen", "lock-churn", "--pes", "4"])
            .args(["--trace", &spec])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Dropping is never silent: the run says what was kept.
        assert!(stderr.contains("trace ring full"), "{stderr}");
        std::fs::read_to_string(&path).unwrap()
    };
    let t1 = trace("1");
    let t2 = trace("2");
    assert_eq!(t1, t2, "capped trace diverged between runs");
    let parsed = pim_tracer::Trace::parse(&t1).expect("parses");
    assert_eq!(parsed.recorded, 200);
    assert!(parsed.dropped > 0);
    assert_eq!(parsed.dropped, parsed.emitted - parsed.recorded);
}

#[test]
fn throughput_summary_is_stderr_only() {
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[throughput] tracesim:"), "{stderr}");
    assert!(stderr.contains("accesses"), "{stderr}");
    assert!(stderr.contains("sim-cycles"), "{stderr}");
    // stdout is what the determinism suites diff; host timings must
    // never leak into it.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("throughput"), "{stdout}");

    let out = kl1run()
        .args(["--pes", "2", "examples/fghc/hanoi.fghc"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[throughput] kl1run:"), "{stderr}");
    assert!(stderr.contains("reductions"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("throughput"));
}

#[test]
fn perf_off_leaves_reports_byte_identical_and_perf_on_only_adds_host_perf() {
    let dir = std::env::temp_dir().join("tracesim_cli_perf");
    std::fs::create_dir_all(&dir).unwrap();
    let report = |name: &str, perf: bool| {
        let path = dir.join(name);
        let mut cmd = tracesim();
        cmd.args(["--gen", "heap-mix", "--pes", "4"]);
        if perf {
            cmd.arg("--perf");
        }
        cmd.args(["--report", path.to_str().unwrap()]);
        let out = cmd.output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&path).unwrap(),
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let (plain_a, stdout_a, stderr_a) = report("plain-a.json", false);
    let (plain_b, _, _) = report("plain-b.json", false);
    assert_eq!(plain_a, plain_b, "default reports must be byte-identical");
    assert!(!plain_a.contains("host_perf"));
    assert!(!stderr_a.contains("[perf]"), "{stderr_a}");

    let (perf_report, stdout_p, stderr_p) = report("perf.json", true);
    // Same simulation, same stdout; the report gains exactly the
    // host_perf block and stderr gains the phase breakdown.
    assert_eq!(stdout_a, stdout_p);
    assert!(perf_report.contains("\"host_perf\""), "{perf_report}");
    assert!(perf_report.contains("\"provenance\""), "{perf_report}");
    assert!(perf_report.contains("\"engine run\""), "{perf_report}");
    assert!(stderr_p.contains("[perf] phase"), "{stderr_p}");
    let doc = pim_tracer::parse_json(&perf_report).expect("report parses");
    use pim_tracer::JsonExt;
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("pim-repro/v1"),
        "--perf must not change the report schema"
    );
}

#[test]
fn timeout_zero_is_rejected_up_front_by_both_tools() {
    let out = tracesim()
        .args(["--gen", "aurora", "--timeout", "0"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--timeout must be at least 1 second"),
        "{stderr}"
    );

    let out = kl1run()
        .args(["--timeout", "0", "examples/fghc/hanoi.fghc"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--timeout must be at least 1 second"),
        "{stderr}"
    );
}

#[test]
fn kl1run_refuses_timeout_with_flat_mode() {
    // --flat bypasses the chunked engine loop the deadline hangs off.
    let out = kl1run()
        .args(["--flat", "--timeout", "5", "examples/fghc/hanoi.fghc"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--timeout is not available with --flat"),
        "{stderr}"
    );
}

#[test]
fn generous_timeout_leaves_results_untouched() {
    // A deadline that never fires must not perturb the simulation: the
    // chunked drive loop is bit-compatible with the unbounded one.
    let run = |extra: &[&str]| {
        let mut cmd = kl1run();
        cmd.args(["--pes", "2"]).args(extra);
        cmd.arg("examples/fghc/hanoi.fghc");
        let out = cmd.output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    assert_eq!(run(&["--timeout", "300"]), run(&[]));
    // A deadline too far out to represent is no deadline, not a panic.
    assert_eq!(run(&["--timeout", "18446744073709551615"]), run(&[]));
}

#[test]
fn kl1run_expired_timeout_is_a_structured_error() {
    // A divergent workload the deadline must cut short: a counting loop
    // far past what one wall-clock second of simulation can retire.
    let dir = std::env::temp_dir().join("kl1run_cli_timeout");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spin.fghc");
    std::fs::write(
        &path,
        "main(R) :- true | loop(100000000, R).\n\
         loop(0, R) :- true | R = 0.\n\
         loop(N, R) :- N > 0 | N1 := N - 1, loop(N1, R).\n",
    )
    .unwrap();
    let out = kl1run()
        .args(["--pes", "2", "--timeout", "1"])
        .arg(path.to_str().unwrap())
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wall-clock timeout"), "{stderr}");
    assert!(stderr.contains("--timeout 1"), "{stderr}");
    // The structured error carries where the simulation got to.
    assert!(stderr.contains("cycle"), "{stderr}");
}

#[test]
fn kl1run_perf_adds_host_perf_to_the_profile() {
    let dir = std::env::temp_dir().join("kl1run_cli_perf");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    let out = kl1run()
        .args(["--pes", "2", "--perf", "--profile", path.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile = std::fs::read_to_string(&path).unwrap();
    assert!(profile.contains("\"host_perf\""), "{profile}");
    assert!(profile.contains("\"wall_ns\""), "{profile}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[perf] phase"), "{stderr}");
    assert!(stderr.contains("engine run"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Hostile FILE[:key=value] spec inputs: every malformed checkpoint /
// trace / status spec must exit 2 with the flag and the offending
// key or value named (the shared parse_file_spec/parse_checkpoint_spec
// contract), never start the run, and never create the file.

#[test]
fn hostile_checkpoint_specs_exit_2_with_named_diagnostics() {
    for (spec, needle) in [
        ("out.ck:evry=5", "unknown key `evry` in --checkpoint"),
        ("out.ck:every=", "empty value for `every` in --checkpoint"),
        (":every=5", "empty path in --checkpoint"),
        (
            "out.ck:every=banana",
            "bad value `banana` for `every` in --checkpoint",
        ),
        (
            "out.ck:every=0",
            "snapshot interval in --checkpoint must be >= 1",
        ),
        // Duplicate keys are last-wins: the trailing every=0 is the one
        // that gets rejected, pinning the precedence order.
        ("out.ck:every=5:every=0", "must be >= 1"),
    ] {
        let out = tracesim()
            .args(["--gen", "aurora", "--pes", "2", "--checkpoint", spec])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "spec `{spec}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "spec `{spec}`: {stderr}");

        let out = kl1run()
            .args(["--checkpoint", spec, "examples/fghc/hanoi.fghc"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "kl1run spec `{spec}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "kl1run spec `{spec}`: {stderr}");
    }
    assert!(!std::path::Path::new("out.ck").exists());
}

#[test]
fn hostile_status_and_trace_specs_exit_2_with_named_diagnostics() {
    for (args, needle) in [
        (
            ["--status", "s.json:evry=2"],
            "unknown key `evry` in --status",
        ),
        (
            ["--status", "s.json:every="],
            "empty value for `every` in --status",
        ),
        (["--status", ":every=2"], "empty path in --status"),
        (
            ["--trace", "t.json:cap="],
            "empty value for `cap` in --trace",
        ),
        (["--trace", ":cap=8"], "empty path in --trace"),
    ] {
        let out = tracesim()
            .args(["--gen", "aurora", "--pes", "2"])
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "args {args:?}: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// --io-chaos on the simulator binaries: heavy host-I/O fault injection
// must leave every emitted artifact byte-identical to the undisturbed
// run (all faults recovered below the writers), and bad specs must be
// exit-2 flag errors.

#[test]
fn tracesim_io_chaos_leaves_all_artifacts_byte_identical() {
    let dir = std::env::temp_dir().join(format!("tracesim-iochaos-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str, io_chaos: Option<&str>| {
        let report = dir.join(format!("r-{tag}.json"));
        let trace = dir.join(format!("t-{tag}.json"));
        let ckpt = dir.join(format!("c-{tag}.ck"));
        let mut cmd = tracesim();
        cmd.args(["--gen", "lock-churn", "--pes", "2"])
            .args(["--report", report.to_str().unwrap()])
            .args(["--trace", trace.to_str().unwrap()])
            .args([
                "--checkpoint",
                &format!("{}:every=64", ckpt.to_str().unwrap()),
            ]);
        if let Some(spec) = io_chaos {
            cmd.args(["--io-chaos", spec]);
        }
        let out = cmd.output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read_to_string(&report).unwrap(),
            std::fs::read_to_string(&trace).unwrap(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (clean_stdout, clean_report, clean_trace, _) = run("clean", None);
    let (chaos_stdout, chaos_report, chaos_trace, chaos_stderr) =
        run("chaos", Some("seed=11,rate=900000,backoff_ms=0"));
    assert_eq!(clean_stdout, chaos_stdout);
    assert_eq!(clean_report, chaos_report);
    assert_eq!(clean_trace, chaos_trace);
    assert!(
        chaos_stderr.contains("[io-chaos]"),
        "missing summary: {chaos_stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_io_chaos_specs_are_exit_2_flag_errors_on_both_tools() {
    let out = tracesim()
        .args(["--gen", "aurora", "--io-chaos", "seed=1,bogus=2"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key `bogus` in --io-chaos"));

    let out = kl1run()
        .args(["--io-chaos", "rate=5", "examples/fghc/hanoi.fghc"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing `seed` in --io-chaos"));
}
