//! `tracesim` — replay a memory-access trace file through the PIM cache
//! (or the Illinois baseline) and print the traffic report.
//!
//! ```text
//! tracesim [options] [run flags] <trace.txt>
//!
//! options:
//!   --pes N          processing elements (default: 1 + max PE in trace)
//!   --illinois       Illinois baseline instead of the PIM protocol
//!   --no-opt         downgrade DW/DWD/ER/RP/RI to plain R/W
//!   --block W        cache block words (default 4)
//!   --capacity W     cache data words per PE (default 4096)
//!   --ways N         associativity (default 4)
//!   --bus-width W    bus width in words (default 1)
//!   --gen NAME       ignore the file; generate a built-in synthetic trace
//!                    (producer-consumer | heap-mix | lock-churn | aurora)
//! ```
//!
//! The run flags — `--faults`, `--timeout`, `--perf`, `--report`,
//! `--trace`, `--checkpoint`, `--resume`, `--status`, `--metrics` and
//! `--io-chaos` — are shared with `kl1run` and documented in
//! `pim_repro::harness`. The `--report` document carries the traffic,
//! cycle accounts, latency histograms, coherence transitions and fault
//! recovery counters.
//!
//! Trace lines are `PE OP ADDR AREA`, e.g. `0 DW 0x11000000 goal` — see
//! `pim_trace::textio`. A trace whose streams leave a PE blocked on a
//! lock that no remaining access releases fails with a named
//! `replay stuck` diagnostic (exit 1). Use `--gen` to try the tool
//! without a file:
//!
//! ```sh
//! tracesim --gen aurora --pes 8
//! ```

use pim_bus::BusTiming;
use pim_cache::{CacheGeometry, OptMask, PimSystem, SystemConfig};
use pim_fault::FaultStats;
use pim_obs::Json;
use pim_repro::harness::{Args, Harness, Tool};
use pim_repro::report;
use pim_sim::{IllinoisSystem, MemorySystem, Replayer};
use pim_trace::{Access, StorageArea};

const TOOL: Tool = Tool {
    name: "tracesim",
    report_flag: "--report",
    input: "input trace",
    usage: "usage: tracesim [--pes N] [--illinois] [--no-opt] \
            [--block W] [--capacity W] [--ways N] [--bus-width W] [run flags] \
            (<trace.txt> | --gen NAME)",
};

/// The domain flags.
struct Options {
    pes: Option<u32>,
    illinois: bool,
    no_opt: bool,
    block: u64,
    capacity: u64,
    ways: u64,
    bus_width: u64,
    generator: Option<String>,
    file: Option<String>,
}

impl Options {
    /// Takes one domain flag (or the trace file); `false` for an
    /// unknown flag.
    fn set(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--pes" => self.pes = Some(args.number(flag, 1)),
            "--illinois" => self.illinois = true,
            "--no-opt" => self.no_opt = true,
            "--block" => self.block = args.number(flag, 1),
            "--capacity" => self.capacity = args.number(flag, 1),
            "--ways" => self.ways = args.number(flag, 1),
            "--bus-width" => self.bus_width = args.number(flag, 1),
            "--gen" => self.generator = Some(args.value(flag, "a generator name")),
            other if !other.starts_with("--") => self.file = Some(other.to_string()),
            _ => return false,
        }
        true
    }
}

fn main() {
    let mut o = Options {
        pes: None,
        illinois: false,
        no_opt: false,
        block: 4,
        capacity: 4096,
        ways: 4,
        bus_width: 1,
        generator: None,
        file: None,
    };
    let mut h = Harness::parse(TOOL, |flag, args| o.set(flag, args));
    let geometry = CacheGeometry::try_with_shape(o.capacity, o.block, o.ways)
        .unwrap_or_else(|e| h.fail(format_args!("--{}: {e}", e.param)));
    h.open_checkpoint();

    let parse_span = pim_perf::span(pim_perf::phase::TRACE_PARSE);
    let input_label;
    let trace: Vec<Access> = if let Some(name) = &o.generator {
        input_label = format!("gen:{name}");
        let workers = o.pes.unwrap_or(4);
        match name.as_str() {
            "producer-consumer" => workloads::synthetic::producer_consumer(512, 8, o.block),
            "heap-mix" => workloads::synthetic::shared_heap_mix(workers, 50_000, 30, 1 << 14, 7),
            "lock-churn" => workloads::synthetic::lock_churn(workers, 5_000, 10, 7),
            "aurora" => workloads::synthetic::aurora_like(workers, 10_000, 1989),
            other => h.fail(format_args!("unknown generator `{other}`")),
        }
    } else {
        let Some(path) = &o.file else { h.usage() };
        input_label = path.clone();
        match pim_trace::read_trace_file(path) {
            Ok(t) => t,
            // The diagnostic already names the file and line.
            Err(e) => {
                eprintln!("tracesim: {e}");
                std::process::exit(1);
            }
        }
    };
    drop(parse_span);
    if trace.is_empty() {
        eprintln!("tracesim: empty trace");
        std::process::exit(1);
    }
    h.open_telemetry(input_label);

    let needed = 1 + trace.iter().map(|a| a.pe.0).max().unwrap_or(0);
    // An explicit --pes that cannot hold the trace is an error, not a
    // silent clamp: the user asked for a specific machine size.
    let pes = match o.pes {
        Some(n) if n < needed => h.fail(format_args!(
            "--pes {n} is too small: the trace references PE {} (need --pes >= {needed})",
            needed - 1
        )),
        Some(n) => n,
        None => needed,
    };
    let config = SystemConfig {
        pes,
        geometry,
        timing: BusTiming {
            bus_width_words: o.bus_width,
            memory_cycles: 8,
        },
        opt_mask: if o.no_opt {
            OptMask::none()
        } else {
            OptMask::all()
        },
        ..SystemConfig::default()
    };
    h.pin_config(
        &format!(
            "tracesim|pes={pes}|illinois={}|no_opt={}|block={}|capacity={}|ways={}|bus_width={}|",
            o.illinois, o.no_opt, o.block, o.capacity, o.ways, o.bus_width
        ),
        |bytes| {
            bytes.reserve(trace.len() * 24);
            for a in &trace {
                bytes.extend_from_slice(&a.pe.0.to_le_bytes());
                bytes.extend_from_slice(&a.addr.to_le_bytes());
                bytes.extend_from_slice(format!("{:?}/{:?};", a.op, a.area).as_bytes());
            }
        },
    );
    h.open_outputs();

    let makespan = if o.illinois {
        replay(
            &mut h,
            &o,
            "Illinois",
            IllinoisSystem::new(config),
            &trace,
            pes,
        )
    } else {
        replay(&mut h, &o, "PIM", PimSystem::new(config), &trace, pes)
    };
    h.finish(&[(trace.len() as u64, "accesses"), (makespan, "sim-cycles")]);
}

/// Replays `trace` through `system`, writes the trace file and the
/// report, and prints the summary; returns the makespan.
fn replay<S: MemorySystem>(
    h: &mut Harness,
    o: &Options,
    label: &str,
    system: S,
    trace: &[Access],
    pes: u32,
) -> u64 {
    let mut replayer = Replayer::from_merged(trace, pes);
    h.cell_running();
    let (run, engine) = h.run(system, &mut replayer);
    let accesses = trace.len();
    let (makespan, sys, fstats) = (run.makespan, engine.system(), engine.fault_stats());
    h.write_trace(makespan, pes);
    h.write_report(&run.pe_cycles, |doc, checkpoint| {
        doc.push("protocol", Json::from(label));
        doc.push(
            "config",
            Json::obj([
                ("pes", Json::from(pes)),
                ("capacity_words", Json::from(o.capacity)),
                ("ways", Json::from(o.ways)),
                ("block_words", Json::from(o.block)),
                ("bus_width_words", Json::from(o.bus_width)),
            ]),
        );
        doc.push("checkpoint", checkpoint);
        if let Some(fc) = &h.flags().faults {
            doc.push(
                "fault_plan",
                Json::obj([
                    ("seed", Json::from(fc.seed)),
                    ("rate_ppm", Json::from(fc.rate_ppm)),
                    ("max_retries", Json::from(fc.max_retries)),
                    ("injected", Json::from(fstats.total_injected())),
                    ("recovered", Json::from(fstats.total_recovered())),
                    ("retries", Json::from(fstats.retries)),
                    ("penalty_cycles", Json::from(fstats.penalty_cycles)),
                ]),
            );
        }
        doc.push("accesses", Json::from(accesses));
        doc.push("memory", report::memory_json(sys, makespan));
    });
    let summary = summarize(sys, makespan, accesses, fstats);
    h.cell_done();
    println!(
        "protocol: {label}  ({pes} PEs, {}w {}-way, {}-word blocks, {}-word bus)",
        o.capacity, o.ways, o.block, o.bus_width
    );
    print!("{summary}");
    makespan
}

fn summarize(
    sys: &dyn MemorySystem,
    makespan: u64,
    accesses: usize,
    fstats: &FaultStats,
) -> String {
    let mut out = String::new();
    let bus = sys.bus_stats();
    out += &format!("accesses:       {accesses}\n");
    out += &format!("bus cycles:     {}\n", bus.total_cycles());
    for area in StorageArea::ALL {
        let cycles = bus.area_cycles(area);
        if cycles > 0 {
            out += &format!(
                "  {:5}         {:>10}  ({:.1}%)\n",
                area.label(),
                cycles,
                bus.area_cycle_pct(area)
            );
        }
    }
    out += &format!("memory busy:    {} cycles\n", bus.memory_busy_cycles());
    out += &format!("miss ratio:     {:.4}\n", sys.access_stats().miss_ratio());
    let locks = sys.lock_stats();
    if locks.lr_total > 0 {
        out += &format!(
            "locks:          {} LR ({:.1}% exclusive hits), {:.1}% unlocks silent\n",
            locks.lr_total,
            100.0 * locks.lr_hit_exclusive_ratio(),
            100.0 * locks.unlock_no_waiter_ratio()
        );
    }
    if fstats.total_injected() > 0 {
        out += &format!(
            "faults:         {} injected, {} recovered, {} retries, {} penalty cycles\n",
            fstats.total_injected(),
            fstats.total_recovered(),
            fstats.retries,
            fstats.penalty_cycles
        );
    }
    out += &format!("simulated time: {makespan} cycles\n");
    if makespan > 0 {
        out += &format!(
            "bus utilization:{:.1}%\n",
            100.0 * bus.total_cycles() as f64 / makespan as f64
        );
    }
    out
}
