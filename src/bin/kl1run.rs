//! `kl1run` — run an FGHC program file on the simulated PIM machine.
//!
//! ```text
//! kl1run [options] [run flags] <program.fghc> [goal]
//!
//! options:
//!   --pes N           processing elements (default 8, must be >= 1)
//!   --flat            skip the cache simulation (functional run); not
//!                     available with --trace, --checkpoint, --resume or
//!                     --timeout, which need simulated time
//!   --illinois        use the Illinois baseline protocol
//!   --no-opt          disable the DW/ER/RP/RI optimized commands
//!   --gc WORDS        enable stop-and-copy GC with WORDS-word semispaces
//!                     (must be >= 1)
//!   --indexed         compile with first-argument clause indexing
//!   --stats           print machine and memory statistics
//!   --code            dump the compiled abstract code and exit
//!
//! The goal defaults to `main/1` called as `main(X)`; pass a name to call
//! `<name>(X)` instead. The binding of X is printed as the result.
//! ```
//!
//! The run flags — `--faults`, `--timeout`, `--perf`, `--profile`,
//! `--trace`, `--checkpoint`, `--resume`, `--status`, `--metrics` and
//! `--io-chaos` — are shared with `tracesim` and documented in
//! `pim_repro::harness`. The `--profile` document carries the machine
//! statistics besides the cycle accounts, latency histograms and
//! coherence transitions; a checkpoint holds the whole machine and
//! cache state, and resuming needs the identical program source.

use kl1_machine::{Cluster, ClusterConfig};
use pim_cache::{OptMask, PimSystem, SystemConfig};
use pim_fault::FaultStats;
use pim_obs::{Json, PeCycles};
use pim_repro::harness::{Args, Harness, Tool};
use pim_repro::report;
use pim_sim::{IllinoisSystem, MemorySystem};
use pim_trace::{PeId, StorageArea};

const TOOL: Tool = Tool {
    name: "kl1run",
    report_flag: "--profile",
    input: "program source",
    usage: "usage: kl1run [--pes N] [--flat] [--illinois] [--no-opt] \
            [--gc WORDS] [--indexed] [--stats] [--code] [run flags] <program.fghc> [goal]",
};

/// The domain flags and positional arguments.
struct Options {
    pes: u32,
    flat: bool,
    illinois: bool,
    no_opt: bool,
    gc: Option<u64>,
    indexed: bool,
    stats: bool,
    code: bool,
    positional: Vec<String>,
}

impl Options {
    /// Takes one domain flag (or positional argument); `false` for an
    /// unknown flag.
    fn set(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--pes" => self.pes = args.number(flag, 1),
            "--flat" => self.flat = true,
            "--illinois" => self.illinois = true,
            "--no-opt" => self.no_opt = true,
            "--gc" => self.gc = Some(args.number(flag, 1)),
            "--indexed" => self.indexed = true,
            "--stats" => self.stats = true,
            "--code" => self.code = true,
            other if !other.starts_with("--") => self.positional.push(other.to_string()),
            _ => return false,
        }
        true
    }
}

/// What the result and profile writers need to know about the run.
struct Run<'a> {
    o: &'a Options,
    file: &'a str,
    goal: &'a str,
    arity1: bool,
    started: std::time::Instant,
}

fn main() {
    let mut o = Options {
        pes: 8,
        flat: false,
        illinois: false,
        no_opt: false,
        gc: None,
        indexed: false,
        stats: false,
        code: false,
        positional: Vec::new(),
    };
    let mut h = Harness::parse(TOOL, |flag, args| o.set(flag, args));
    let (file, goal) = match o.positional.as_slice() {
        [file] => (file.clone(), "main".to_string()),
        [file, goal] => (file.clone(), goal.clone()),
        _ => h.usage(),
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kl1run: cannot read {file}: {e}");
            std::process::exit(1);
        }
    };
    let parse_span = pim_perf::span(pim_perf::phase::TRACE_PARSE);
    let program = match fghc::compile_with(
        &source,
        fghc::CompileOptions {
            first_arg_indexing: o.indexed,
        },
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{file}: {e}");
            std::process::exit(2);
        }
    };
    drop(parse_span);
    if o.code {
        print!("{program}");
        return;
    }

    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: o.pes,
            heap_semispace_words: o.gc,
            ..Default::default()
        },
    );
    // Prefer goal/1 with a result variable; fall back to goal/0.
    let arity1 = cluster.program().lookup(&goal, 1).is_some();
    let query = if arity1 {
        cluster.set_query(&goal, vec![fghc::Term::Var("X".into())])
    } else {
        cluster.set_query(&goal, vec![])
    };
    if let Err(e) = query {
        eprintln!("kl1run: {e} in {file}");
        std::process::exit(1);
    }

    let started = std::time::Instant::now();
    let config = SystemConfig {
        pes: o.pes,
        opt_mask: if o.no_opt {
            OptMask::none()
        } else {
            OptMask::all()
        },
        ..Default::default()
    };

    if o.flat && h.flags().trace.is_some() {
        h.fail("--trace is not available with --flat (no simulated cycles to stamp)");
    }
    if o.flat && (h.flags().checkpoint.is_some() || h.flags().resume.is_some()) {
        h.fail("--checkpoint/--resume are not available with --flat");
    }
    if o.flat && h.flags().timeout_secs.is_some() {
        h.fail("--timeout is not available with --flat (no chunked engine loop)");
    }
    h.open_checkpoint();
    // The program text itself is digested again by the machine's own
    // checkpoint hook.
    h.pin_config(
        &format!(
            "kl1run|pes={}|illinois={}|no_opt={}|gc={:?}|indexed={}|goal={goal}|",
            o.pes, o.illinois, o.no_opt, o.gc, o.indexed
        ),
        |bytes| bytes.extend_from_slice(source.as_bytes()),
    );
    h.open_outputs();
    h.open_telemetry(format!("{file} {goal}"));
    if let Some(obs) = h.observer() {
        cluster.set_observer(obs);
    }

    let run = Run {
        o: &o,
        file: &file,
        goal: &goal,
        arity1,
        started,
    };
    h.cell_running();
    let makespan = if o.flat {
        let port = kl1_machine::run_flat(&mut cluster, u64::MAX);
        let result = if arity1 {
            cluster.extract(&port, "X")
        } else {
            None
        };
        run.print_result(&cluster, result);
        run.print_stats(&cluster, None, 0, None);
        run.write_profile(&h, "flat", &cluster, Json::Null, &[]);
        0
    } else if o.illinois {
        simulate(
            &mut h,
            &run,
            "illinois",
            IllinoisSystem::new(config),
            &mut cluster,
        )
    } else {
        simulate(&mut h, &run, "pim", PimSystem::new(config), &mut cluster)
    };
    h.cell_done();
    h.finish(&[
        (cluster.stats().reductions, "reductions"),
        (makespan, "sim-cycles"),
    ]);
}

/// Runs the program on the cache simulation over `system`, prints the
/// answer and statistics, and writes the profile and the trace file;
/// returns the makespan.
fn simulate<S: MemorySystem>(
    h: &mut Harness,
    run: &Run<'_>,
    protocol: &str,
    system: S,
    cluster: &mut Cluster,
) -> u64 {
    let (stats, mut engine) = h.run(system, cluster);
    let result = if run.arity1 {
        engine.with_port(PeId(0), |p| cluster.extract(p, "X"))
    } else {
        None
    };
    run.print_result(cluster, result);
    let (sys, makespan) = (engine.system(), stats.makespan);
    run.print_stats(cluster, Some(sys), makespan, Some(engine.fault_stats()));
    let memory = report::memory_json(sys, makespan);
    run.write_profile(h, protocol, cluster, memory, &stats.pe_cycles);
    h.write_trace(makespan, run.o.pes);
    makespan
}

impl Run<'_> {
    fn print_result(&self, cluster: &Cluster, result: Option<fghc::Term>) {
        if let Some(msg) = cluster.failure() {
            eprintln!("kl1run: program failed: {msg}");
            std::process::exit(1);
        }
        match result {
            Some(term) => println!("X = {term}"),
            None => println!("ok"),
        }
    }

    fn print_stats(
        &self,
        cluster: &Cluster,
        sys: Option<&dyn MemorySystem>,
        makespan: u64,
        fstats: Option<&FaultStats>,
    ) {
        if !self.o.stats {
            return;
        }
        let m = cluster.stats();
        eprintln!("--- machine ---");
        eprintln!("reductions:     {}", m.reductions);
        eprintln!("suspensions:    {}", m.suspensions);
        eprintln!("instructions:   {}", m.instructions);
        eprintln!("goal migrations:{}", m.goals_migrated);
        eprintln!("heap words:     {}", m.heap_words);
        if m.gc.collections > 0 {
            eprintln!(
                "gc:             {} collections, {} copied, {} reclaimed",
                m.gc.collections, m.gc.words_copied, m.gc.words_reclaimed
            );
        }
        if let Some(sys) = sys {
            eprintln!("--- memory system ---");
            eprintln!("references:     {}", sys.ref_stats().total());
            eprintln!("bus cycles:     {}", sys.bus_stats().total_cycles());
            for area in StorageArea::ALL {
                eprintln!(
                    "  {:5}         {:5.1}%",
                    area.label(),
                    sys.bus_stats().area_cycle_pct(area)
                );
            }
            eprintln!("miss ratio:     {:.4}", sys.access_stats().miss_ratio());
            eprintln!(
                "locks:          {} LR, {:.1}% free, {:.1}% unlocks silent",
                sys.lock_stats().lr_total,
                100.0 * sys.lock_stats().lr_hit_exclusive_ratio(),
                100.0 * sys.lock_stats().unlock_no_waiter_ratio(),
            );
            eprintln!("simulated time: {makespan} cycles");
        }
        if let Some(fs) = fstats {
            if fs.total_injected() > 0 {
                eprintln!(
                    "faults:         {} injected, {} recovered, {} retries, {} penalty cycles",
                    fs.total_injected(),
                    fs.total_recovered(),
                    fs.retries,
                    fs.penalty_cycles
                );
            }
        }
        eprintln!("wall time:      {:.2?}", self.started.elapsed());
    }

    /// Builds and writes the JSON profile; a no-op without `--profile`.
    fn write_profile(
        &self,
        h: &Harness,
        protocol: &str,
        cluster: &Cluster,
        memory: Json,
        pe_cycles: &[PeCycles],
    ) {
        h.write_report(pe_cycles, |doc, checkpoint| {
            doc.push("program", Json::from(self.file));
            doc.push("goal", Json::from(self.goal));
            doc.push("pes", Json::from(self.o.pes));
            doc.push("protocol", Json::from(protocol));
            doc.push("checkpoint", checkpoint);
            doc.push("machine", report::machine_json(&cluster.stats()));
            doc.push("memory", memory);
        });
    }
}
