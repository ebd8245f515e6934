//! The committed `BENCH_*.json` perf-trajectory baseline must stay a
//! valid `pim-bench/v1` document: CI regenerates the suite and diffs
//! against it, so a malformed baseline would silently disable the
//! regression gate.

use bench::suite;
use pim_obs::Json;
use pim_tracer::JsonExt;

fn load_baseline() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0006.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed baseline {path} must be readable: {e}"));
    pim_tracer::parse_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_baseline_is_a_valid_suite_document() {
    let doc = load_baseline();
    let entries = suite::validate(&doc).unwrap_or_else(|e| panic!("schema violation: {e}"));
    assert!(entries >= 8, "expected >= 8 suite entries, got {entries}");
}

#[test]
fn committed_baseline_covers_micro_and_macro() {
    let doc = load_baseline();
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        panic!("entries array vanished after validate");
    };
    let kinds: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("kind")?.as_str())
        .collect();
    assert!(kinds.contains(&"micro"), "no micro benchmarks in baseline");
    assert!(kinds.contains(&"macro"), "no macro benchmarks in baseline");
}

#[test]
fn baseline_diffed_against_itself_is_clean() {
    let doc = load_baseline();
    let rows = suite::diff(&doc, &doc);
    for (name, threads) in suite::BENCHMARKS {
        let key = format!("{name} @t{threads}");
        assert!(
            rows.iter().any(|r| r.key == key),
            "suite entry {key} missing from the baseline"
        );
    }
    let (rendered, regressions) = suite::render_diff(&rows, 50.0);
    assert_eq!(regressions, 0, "{rendered}");
}
