//! End-to-end tests of the `pimbench` binary: the exit-code convention
//! (2 for bad flags, 1 for regressions and file errors, 0 otherwise)
//! and the run → diff round trip.

use std::process::Command;

fn pimbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pimbench"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pimbench_cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn bad_flags_exit_2_with_the_flag_named() {
    for (args, needle) in [
        (vec!["frobnicate"], "unknown command"),
        (vec!["run", "--filter"], "--filter"),
        (vec!["run", "--out"], "--out"),
        (vec!["run", "--bogus"], "--bogus"),
        (vec!["diff", "a.json"], "exactly two files"),
        (
            vec!["diff", "a.json", "b.json", "--threshold"],
            "--threshold",
        ),
        (
            vec!["diff", "a.json", "b.json", "--threshold", "abc"],
            "abc",
        ),
        (vec![], "usage"),
    ] {
        let out = pimbench().args(&args).output().expect("pimbench runs");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "args {args:?}: {stderr}");
    }
}

#[test]
fn unreadable_diff_input_exits_1() {
    let out = pimbench()
        .args(["diff", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .expect("pimbench runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn list_names_every_suite_benchmark() {
    let out = pimbench().arg("list").output().expect("pimbench runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "micro/cache_hit",
        "micro/bus_arbitrate",
        "replay/heap-mix @t1",
        "table1/tri",
        "ckpt/save_restore",
    ] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn run_then_self_diff_round_trips() {
    let out_path = tmp("self.json");
    let out = pimbench()
        .args(["run", "--quick", "--filter", "micro/cache_hit"])
        .args(["--out", out_path.to_str().unwrap()])
        .output()
        .expect("pimbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pim_tracer::parse_json(&std::fs::read_to_string(&out_path).unwrap())
        .expect("document parses");
    assert_eq!(bench::suite::validate(&doc), Ok(1));

    let diff = pimbench()
        .args(["diff", "--check"])
        .arg(&out_path)
        .arg(&out_path)
        .output()
        .expect("pimbench runs");
    assert!(diff.status.success());
    assert!(String::from_utf8_lossy(&diff.stdout).contains("ok: no median regressed"));
}

#[test]
fn check_fails_on_a_2x_regression_and_passes_without_check() {
    // Hand-built documents so the test is instant and exact.
    let entry = |ns: u64| {
        format!(
            r#"{{"name":"micro/x","kind":"micro","threads":1,"iters":1,"samples":3,
                "items":100,"unit":"accesses",
                "wall_ns":{{"median":{ns},"min":{ns},"max":{ns}}},"per_sec":1.0}}"#
        )
    };
    let doc = |ns: u64| {
        format!(
            r#"{{"schema":"pim-bench/v1","suite":"pimbench","mode":"quick",
                "provenance":{{}},"entries":[{}]}}"#,
            entry(ns)
        )
    };
    let old = tmp("old.json");
    let new = tmp("new.json");
    std::fs::write(&old, doc(1_000_000)).unwrap();
    std::fs::write(&new, doc(2_000_000)).unwrap();

    let checked = pimbench()
        .args(["diff", "--check", "--threshold", "50"])
        .arg(&old)
        .arg(&new)
        .output()
        .expect("pimbench runs");
    assert_eq!(checked.status.code(), Some(1), "2x must fail --check");
    assert!(String::from_utf8_lossy(&checked.stdout).contains("REGRESSED"));

    // Without --check the diff reports but never fails.
    let unchecked = pimbench()
        .args(["diff"])
        .arg(&old)
        .arg(&new)
        .output()
        .expect("pimbench runs");
    assert!(unchecked.status.success());

    // A generous threshold tolerates the same delta.
    let loose = pimbench()
        .args(["diff", "--check", "--threshold", "150"])
        .arg(&old)
        .arg(&new)
        .output()
        .expect("pimbench runs");
    assert!(loose.status.success());
}
