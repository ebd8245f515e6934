//! End-to-end tests of the `simbench` binary: quick mode over every
//! workload, the one-line result, flag errors, and a lint that keeps
//! `BENCHMARK.json` and `simbench list` naming the same things.

use pim_obs::Json;
use pim_tracer::{parse_json, JsonExt};
use std::process::Command;

fn simbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(args)
        .output()
        .expect("simbench starts")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `(kind, name, rest)` for every line of `simbench list`.
fn listed() -> Vec<(String, String, String)> {
    let out = simbench(&["list"]);
    assert!(out.status.success());
    stdout(&out)
        .lines()
        .map(|l| {
            let mut p = l.splitn(3, ' ');
            let mut next = || p.next().unwrap_or_default().to_string();
            (next(), next(), next())
        })
        .collect()
}

#[test]
fn quick_mode_runs_and_verifies_every_workload() {
    let dir = std::env::temp_dir().join(format!("simbench-quick-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("quick.json");
    let out = simbench(&[
        "run",
        "--quick",
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse_json(&std::fs::read_to_string(&path).expect("report written")).expect("JSON");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        doc.get("schema").and_then(JsonExt::as_str),
        Some("pim-simbench/v1")
    );
    let Some(Json::Arr(reports)) = doc.get("workloads") else {
        panic!("workloads array");
    };
    let listed = listed();
    let workloads: Vec<&str> = listed
        .iter()
        .filter(|(k, _, _)| k == "workload")
        .map(|(_, n, _)| n.as_str())
        .collect();
    assert_eq!(reports.len(), workloads.len());
    for (report, name) in reports.iter().zip(&workloads) {
        assert_eq!(report.get("name").and_then(JsonExt::as_str), Some(*name));
        assert_eq!(
            report.get("failed").and_then(JsonExt::as_u64),
            Some(0),
            "{name}"
        );
        // Quick mode makes no percentile claim: p90 is left out.
        for (kind, metric, rest) in &listed {
            let unit = rest.split(' ').next().unwrap_or_default();
            let expected = kind != "workload" && metric != "run_s_p90";
            let line = format!("{name} {metric} ");
            let printed = text.lines().find(|l| l.starts_with(&line));
            assert_eq!(printed.is_some(), expected, "{line}");
            if let Some(l) = printed {
                assert!(l.ends_with(&format!(" {unit}")), "{l}");
            }
        }
    }
}

#[test]
fn a_single_workload_ends_with_a_one_line_result() {
    let listed = listed();
    // Quick mode: 2 measured units, and 1 traced unit with `--trace 1`.
    for (trace, kind, attempted) in [("0", "end_to_end", 2), ("1", "per_layer", 3)] {
        let out = simbench(&[
            "run",
            "--workload",
            "replay-heap-mix",
            "--seed",
            "5",
            "--quick",
            "--trace",
            trace,
        ]);
        assert!(out.status.success());
        let text = stdout(&out);
        let last = text.lines().last().expect("output");
        let result = parse_json(last).expect("last line is JSON");
        let Json::Obj(pairs) = &result else {
            panic!("an object: {last}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            result.get("attempted").and_then(JsonExt::as_u64),
            Some(attempted)
        );
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = listed
            .iter()
            .filter(|(k, _, _)| k == kind)
            .map(|(_, n, _)| n.as_str())
            .collect();
        assert_eq!(names, want, "--trace {trace}");
        for (name, m) in metrics {
            match m.get("value") {
                // End-to-end metrics never read 0; a layer's can.
                Some(Json::F64(v)) => assert!(*v > 0.0 || kind == "per_layer", "{name}"),
                other => panic!("{name}: value {other:?}"),
            }
        }
    }
}

#[test]
fn bad_flags_exit_2_and_name_the_flag() {
    for (args, needle) in [
        (&["run", "--workload", "nope"][..], "--workload"),
        (&["run", "--seconds", "0"][..], "--seconds"),
        (&["run", "--trace", "2"][..], "--trace"),
        (&["run", "--seed"][..], "--seed"),
        (&["run", "--bogus", "1"][..], "--bogus"),
        (&["frobnicate"][..], "usage"),
    ] {
        let out = simbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} prints no result");
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_names_what_simbench_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let mut declared = Vec::new();
    for (section, kind) in [
        ("workloads", "workload"),
        ("end_to_end", "end_to_end"),
        ("per_layer", "per_layer"),
    ] {
        let Some(Json::Arr(entries)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} array");
        };
        for e in entries {
            let name = e.get("name").and_then(JsonExt::as_str).expect("a name");
            let rest = match kind {
                "workload" => e
                    .get("why")
                    .and_then(JsonExt::as_str)
                    .expect("a why")
                    .to_string(),
                _ => {
                    let field = |k| e.get(k).and_then(JsonExt::as_str).expect(k).to_string();
                    let bound = match e.get("bound") {
                        Some(Json::F64(b)) => format!(" {b}"),
                        _ => String::new(),
                    };
                    format!("{} {}{bound}", field("unit"), field("better"))
                }
            };
            declared.push((kind.to_string(), name.to_string(), rest));
        }
    }
    // `reported` metrics are printed but have no place in BENCHMARK.json.
    let listed: Vec<_> = listed()
        .into_iter()
        .filter(|(kind, _, _)| kind != "reported")
        .collect();
    for entry in &declared {
        assert!(is_name(&entry.1), "{:?} is not [A-Za-z0-9_.-]+", entry.1);
        assert!(
            listed.contains(entry),
            "BENCHMARK.json declares {entry:?}, simbench lists no such"
        );
    }
    for entry in &listed {
        assert!(is_name(&entry.1), "{:?} is not [A-Za-z0-9_.-]+", entry.1);
        assert!(
            declared.contains(entry),
            "simbench lists {entry:?}, BENCHMARK.json lacks it"
        );
    }
}
