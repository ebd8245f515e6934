//! `pimbench` — host-performance benchmark suite of the simulator stack.
//!
//! ```text
//! pimbench run [--quick] [--filter SUBSTR] [--out FILE]
//! pimbench list
//! pimbench diff OLD.json NEW.json [--check] [--threshold PCT]
//! ```
//!
//! `run` executes the fixed deterministic micro+macro suite and writes a
//! schema-versioned `pim-bench/v1` document (default `BENCH_0030.json`).
//! The committed `BENCH_*.json` files at the repo root form the
//! project's performance trajectory, one per perf-relevant PR.
//!
//! `diff` compares two documents entry by entry on the median wall
//! time. With `--check` it exits 1 when any median regressed by more
//! than `--threshold` percent (default 50) — slower is a regression,
//! faster never is; entries only present on one side are reported but
//! never fail the check.
//!
//! Exit codes: 0 success (or `diff --check` within threshold); 1
//! regression found or file/suite error; 2 bad flags or usage, with the
//! flag named on stderr.

use bench::suite::{self, Mode};

const DEFAULT_OUT: &str = "BENCH_0030.json";

fn usage() -> ! {
    eprintln!(
        "usage: pimbench run [--quick] [--filter SUBSTR] [--out FILE]\n\
         \x20      pimbench list\n\
         \x20      pimbench diff OLD.json NEW.json [--check] [--threshold PCT]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> pim_obs::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("pimbench: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = pim_tracer::parse_json(&text).unwrap_or_else(|e| {
        eprintln!("pimbench: {path}: {e}");
        std::process::exit(1);
    });
    if let Err(e) = suite::validate(&doc) {
        eprintln!(
            "pimbench: {path}: not a valid {} document: {e}",
            suite::SCHEMA
        );
        std::process::exit(1);
    }
    doc
}

fn cmd_run(args: &[String]) {
    let mut mode = Mode::Full;
    let mut filter = String::new();
    let mut out = DEFAULT_OUT.to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--filter" => match iter.next() {
                Some(s) => filter = s.clone(),
                None => {
                    eprintln!("pimbench: --filter needs a substring argument");
                    std::process::exit(2);
                }
            },
            "--out" => match iter.next() {
                Some(s) => out = s.clone(),
                None => {
                    eprintln!("pimbench: --out needs a file argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("pimbench: unknown argument `{other}` for run");
                usage()
            }
        }
    }
    if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&out)) {
        eprintln!("pimbench: --out: cannot write `{out}`: {e}");
        std::process::exit(2);
    }
    let wall = std::time::Instant::now();
    let entries = suite::run(mode, &filter, &|name| eprintln!("[pimbench] {name} ..."));
    if entries.is_empty() {
        eprintln!("pimbench: no benchmark matches filter `{filter}`");
        std::process::exit(1);
    }
    for e in &entries {
        let (median, _, _) = e.wall_ns;
        eprintln!(
            "[pimbench] {:24} @t{} {:>12}  {}",
            e.name,
            e.threads,
            pim_perf::fmt_ns(median as f64),
            pim_perf::fmt_rate(e.per_sec()) + " " + e.unit + "/s",
        );
    }
    let doc = suite::document(mode, &entries);
    if let Err(e) = pim_ckpt::atomic_write_class(
        pim_ckpt::vfs::PathClass::Bench,
        std::path::Path::new(&out),
        doc.to_string_pretty().as_bytes(),
    ) {
        eprintln!("pimbench: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[pimbench] {} entries ({} mode) -> {out} in {:.1?}",
        entries.len(),
        mode.label(),
        wall.elapsed()
    );
}

fn cmd_diff(args: &[String]) {
    let mut check = false;
    let mut threshold = 50.0f64;
    let mut files: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--threshold" => {
                let Some(v) = iter.next() else {
                    eprintln!("pimbench: --threshold needs a percentage argument");
                    std::process::exit(2);
                };
                threshold = v.parse().unwrap_or_else(|_| {
                    eprintln!("pimbench: invalid value `{v}` for --threshold (expected a number)");
                    std::process::exit(2);
                });
            }
            other if other.starts_with("--") => {
                eprintln!("pimbench: unknown flag `{other}` for diff");
                usage()
            }
            _ => files.push(arg),
        }
    }
    let [old_path, new_path] = files[..] else {
        eprintln!("pimbench: diff needs exactly two files");
        usage()
    };
    let old = load(old_path);
    let new = load(new_path);
    let rows = suite::diff(&old, &new);
    let (rendered, regressions) = suite::render_diff(&rows, threshold);
    print!("{rendered}");
    if regressions > 0 {
        println!("{regressions} regression(s) beyond {threshold}% ({old_path} -> {new_path})");
        if check {
            std::process::exit(1);
        }
    } else if check {
        println!("ok: no median regressed beyond {threshold}%");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list") => {
            for (name, threads) in suite::BENCHMARKS {
                println!("{name} @t{threads}");
            }
        }
        Some("diff") => cmd_diff(&args[1..]),
        Some("--help" | "-h") | None => usage(),
        Some(other) => {
            eprintln!("pimbench: unknown command `{other}`");
            usage()
        }
    }
}
