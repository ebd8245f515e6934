//! `simbench` command line.
//!
//! `run` measures each selected workload in a fresh child process (a
//! re-exec of this binary as `worker`), so the peak heap and allocator
//! state do not leak between workloads. It prints one `workload metric value
//! unit` line per metric, optionally writes a `pim-simbench/v1` document,
//! and, when one workload is selected, ends with a one-line JSON result.
//! It exits 1 if any unit fails verification, 2 on bad flags.
//!
//! `simbench` is an end-to-end and per-layer host-throughput benchmark of
//! the simulator pipeline (`fghc` -> `kl1-machine` -> `pim-sim` ->
//! `pim-cache`/`pim-bus`), over four workloads. See `README.md`.

mod alloc;
mod digest;
#[cfg(test)]
mod equivalence;
mod golden;
mod measure;
mod span;
mod stats;
mod workload;

use measure::{MetricDef, Options, END_TO_END, PER_LAYER, REPORTED};
use pim_obs::Json;
use std::process::{Command, Stdio};
use workload::{inputs, run_unit, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  simbench run [--workload NAME] [--seed N] [--seconds S] [--quick] [--trace 0|1] [--out FILE]
  simbench list
  simbench digest --workload NAME [--seed N]";

/// Length of the measured pass when `--seconds` is not given. The
/// `BENCHMARK.json` command is run with `--seconds <run_seconds>`.
const DEFAULT_SECONDS: f64 = 25.0;

const SCHEMA: &str = "pim-simbench/v1";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                a.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => a.out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = argv
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let code = match (command, parse_args(rest)) {
        ("list", Ok(_)) => list(),
        ("run", Ok(a)) => run(&a),
        ("worker", Ok(a)) => worker(&a),
        ("digest", Ok(a)) => digest(&a),
        (_, Err(e)) => {
            eprintln!("simbench: {e}\n{USAGE}");
            2
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn list() -> i32 {
    for w in Workload::ALL {
        println!("workload {} {}", w.name(), w.why());
    }
    for m in END_TO_END {
        let bound = m.bound.map_or(String::new(), |b| format!(" {b}"));
        println!("end_to_end {} {} {}{bound}", m.name, m.unit, m.better);
    }
    for m in REPORTED {
        println!("reported {} {} {}", m.name, m.unit, m.better);
    }
    for m in PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, m.better);
    }
    0
}

fn digest(a: &Args) -> i32 {
    let Some(workload) = a.workload else {
        eprintln!("simbench: digest needs --workload\n{USAGE}");
        return 2;
    };
    let unit = run_unit(&inputs(workload, a.seed), false);
    if let Some(e) = unit.error {
        eprintln!("simbench: {}: {e}", workload.name());
        return 1;
    }
    print!("{}", digest::render(&unit.cells));
    0
}

/// Measures one workload in this process and prints the outcome as
/// lines for the parent `run`: `metric NAME VALUE`, `info KEY VALUE`,
/// and `failure MESSAGE`.
fn worker(a: &Args) -> i32 {
    let Some(workload) = a.workload else {
        eprintln!("simbench: worker needs --workload");
        return 2;
    };
    let outcome = measure::measure(&Options {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        trace: a.trace != Some(false),
    });
    for (name, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("metric {name} {value}");
    }
    println!("info attempted {}", outcome.attempted);
    println!("info failed {}", outcome.failed);
    println!("info samples {}", outcome.samples);
    if let Some(p) = outcome.tail_percentile {
        println!("info tail_percentile {p}");
    }
    if let Some(f) = outcome.first_failure {
        println!("failure {}", f.replace('\n', " "));
    }
    0
}

/// One workload's result as reported by its worker.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<(String, f64)>,
    info: Vec<(String, u64)>,
    failure: Option<String>,
}

impl Report {
    fn parse(stdout: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in stdout.lines() {
            if let Some(failure) = line.strip_prefix("failure ") {
                r.failure = Some(failure.to_string());
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (kind, key, value) = (parts.next(), parts.next(), parts.next());
            let bad = || format!("unreadable worker line {line:?}");
            match (kind, key, value) {
                (Some("metric"), Some(k), Some(v)) => {
                    r.metrics
                        .push((k.to_string(), v.parse().map_err(|_| bad())?));
                }
                (Some("info"), Some(k), Some(v)) => {
                    r.info.push((k.to_string(), v.parse().map_err(|_| bad())?));
                }
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }

    fn info(&self, key: &str) -> Option<u64> {
        self.info.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&REPORTED)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
}

fn run_worker(workload: Workload, a: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", "--workload", workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace == Some(false) { "0" } else { "1" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker exited with {}", out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

fn run(a: &Args) -> i32 {
    let selected = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut docs = Vec::new();
    let mut reports = Vec::new();
    for workload in &selected {
        let report = match run_worker(*workload, a) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simbench: {}: {e}", workload.name());
                return 1;
            }
        };
        let mut metrics = Json::obj::<String>([]);
        for (name, value) in &report.metrics {
            let unit = metric_def(name).map_or("", |m| m.unit);
            println!("{} {name} {value} {unit}", workload.name());
            metrics.push(
                name.clone(),
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(unit))]),
            );
        }
        let info: Vec<String> = report
            .info
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("# {} {}", workload.name(), info.join(" "));
        if let Some(f) = &report.failure {
            eprintln!("simbench: {}: first failed unit: {f}", workload.name());
        }
        let mut doc = Json::obj([("name", Json::from(workload.name()))]);
        for (k, v) in &report.info {
            doc.push(k.clone(), Json::from(*v));
        }
        doc.push("metrics", metrics);
        docs.push(doc);
        reports.push(report);
    }
    if let Some(path) = &a.out {
        let doc = Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(a.seed)),
            ("seconds", Json::from(a.seconds)),
            ("quick", Json::from(a.quick)),
            ("workloads", Json::arr(docs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_string_pretty()) {
            eprintln!("simbench: cannot write {path}: {e}");
            return 1;
        }
    }
    let attempted: u64 = reports.iter().filter_map(|r| r.info("attempted")).sum();
    let failed: u64 = reports.iter().filter_map(|r| r.info("failed")).sum();
    if let [report] = reports.as_slice() {
        let wanted = |name: &str| match a.trace {
            Some(true) => PER_LAYER.iter().any(|m| m.name == name),
            Some(false) => END_TO_END.iter().any(|m| m.name == name),
            None => true,
        };
        let mut metrics = Json::obj::<String>([]);
        for (name, value) in &report.metrics {
            if let Some(def) = metric_def(name).filter(|_| wanted(name)) {
                metrics.push(
                    name.clone(),
                    Json::obj([
                        ("value", Json::from(*value)),
                        ("unit", Json::from(def.unit)),
                    ]),
                );
            }
        }
        let result = Json::obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", metrics),
        ]);
        println!("{}", result.to_string_compact());
    }
    i32::from(failed > 0)
}
