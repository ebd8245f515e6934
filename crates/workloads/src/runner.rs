//! Benchmark run harness: drives a benchmark on the flat port or through
//! the full cache simulation and gathers every statistic the paper's
//! tables and figures consume.

use crate::{reference, Bench, Scale};
use fghc::Term;
use kl1_machine::{Cluster, ClusterConfig, FlatPort};
use pim_bus::BusStats;
use pim_cache::{
    AccessStats, CoherenceProtocol, CoherentSystem, LockStats, PimSystem, SystemConfig,
};
use pim_obs::{Fanout, Metrics, Observer, PeCycles, SharedMetrics};
use pim_sim::{Engine, IllinoisSystem, MemorySystem};
use pim_trace::{PeId, RefStats};

/// Everything measured in one benchmark run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which benchmark ran.
    pub bench: Bench,
    /// At which scale.
    pub scale: Scale,
    /// PE count.
    pub pes: u32,
    /// Reductions / suspensions / instructions / migrations / heap use.
    pub machine: kl1_machine::MachineStats,
    /// Per-area, per-operation reference counts.
    pub refs: RefStats,
    /// Bus statistics (zeroed for flat runs).
    pub bus: BusStats,
    /// Cache hit/miss statistics (zeroed for flat runs).
    pub access: AccessStats,
    /// Lock-protocol statistics (zeroed for flat runs).
    pub locks: LockStats,
    /// Simulated completion time in cycles (0 for flat runs).
    pub makespan: u64,
    /// Per-PE busy / bus-wait / lock-wait / idle cycle accounting
    /// (empty for flat runs).
    pub pe_cycles: Vec<PeCycles>,
    /// Event-level metrics, present only for profiled runs
    /// ([`run_pim_profiled`] and friends).
    pub metrics: Option<Metrics>,
    /// The computed answer (already validated against the oracle).
    pub answer: Term,
}

const MAX_STEPS: u64 = 4_000_000_000;

/// Which cache protocol a supervised cell runs under ([`run_cell`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's PIM lock-directory cache.
    Pim,
    /// The Illinois (MESI) baseline.
    Illinois,
}

impl Protocol {
    /// The protocol's name in sweep specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Pim => "pim",
            Protocol::Illinois => "illinois",
        }
    }

    /// Parses a protocol name (case-insensitive), the inverse of
    /// [`Protocol::name`].
    pub fn from_name(name: &str) -> Option<Protocol> {
        [Protocol::Pim, Protocol::Illinois]
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }
}

/// Why a supervised cell run ([`run_cell`]) produced no report.
///
/// Unlike the panic-on-failure harness entry points, the cell runner
/// returns every failure as data so a sweep supervisor can retry,
/// quarantine, or record it without unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The benchmark source failed to compile.
    Compile(String),
    /// The query could not be posed against the compiled program.
    Query(String),
    /// The engine refused to continue (deadlock, protocol misuse,
    /// watchdog or wall-clock expiry, stuck replay).
    Sim(pim_sim::SimError),
    /// The run exceeded the harness step budget without finishing.
    StepBudget {
        /// Micro-steps executed when the budget ran out.
        steps: u64,
    },
    /// The program itself signalled failure.
    Failed(String),
    /// The run finished but the query variable `R` was never bound.
    Unbound,
    /// The answer disagrees with the reference oracle.
    WrongAnswer {
        /// The computed answer.
        got: String,
        /// The oracle's answer.
        want: String,
    },
    /// The supervisor's cancel flag was raised between chunks (SIGINT
    /// drain or shutdown); the run stopped at a chunk boundary.
    Cancelled {
        /// Micro-steps executed before the stop.
        steps: u64,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Compile(e) => write!(f, "compile error: {e}"),
            CellError::Query(e) => write!(f, "query error: {e}"),
            CellError::Sim(e) => write!(f, "{e}"),
            CellError::StepBudget { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            CellError::Failed(msg) => write!(f, "program failed: {msg}"),
            CellError::Unbound => write!(f, "query var R unbound"),
            CellError::WrongAnswer { got, want } => {
                write!(f, "wrong answer (got {got}, want {want})")
            }
            CellError::Cancelled { steps } => {
                write!(f, "cancelled after {steps} steps")
            }
        }
    }
}

impl std::error::Error for CellError {}

/// Supervision controls for [`run_cell`]: a wall-clock deadline and a
/// cooperative cancel flag, both checked between engine chunks, plus an
/// optional progress tick fired at the same boundaries.
#[derive(Clone, Copy, Default)]
pub struct CellControl<'a> {
    /// Stop with [`SimError::WallClockExpired`] once this instant passes.
    ///
    /// [`SimError::WallClockExpired`]: pim_sim::SimError::WallClockExpired
    pub deadline: Option<std::time::Instant>,
    /// Stop with [`CellError::Cancelled`] once this flag is raised.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
    /// The configured deadline in whole seconds, echoed into the
    /// [`SimError::WallClockExpired`] diagnostic.
    ///
    /// [`SimError::WallClockExpired`]: pim_sim::SimError::WallClockExpired
    pub budget_secs: u64,
    /// Called after every engine chunk with the chunk's step count — a
    /// live-telemetry feed. Strictly passive: it must not affect the
    /// run (chunked execution stays bit-identical with or without it).
    pub progress: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl std::fmt::Debug for CellControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellControl")
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel)
            .field("budget_secs", &self.budget_secs)
            .field("progress", &self.progress.map(|_| "fn"))
            .finish()
    }
}

/// Steps per engine chunk in [`run_cell`]: small enough that deadline
/// and cancel checks land within tens of milliseconds, large enough
/// that chunking cost is noise.
const CELL_CHUNK: u64 = 1 << 16;

/// Runs one sweep cell — `bench` at `scale` under `protocol` with
/// `config` — without panicking: every failure comes back as a
/// [`CellError`], and when `ctl` supervises the run the engine loop is
/// chunked so its deadline and cancel flag are honored mid-run. Chunked execution is
/// bit-identical to a single uninterrupted run, so cell results are
/// reproducible regardless of supervision.
pub fn run_cell(
    protocol: Protocol,
    bench: Bench,
    scale: Scale,
    config: SystemConfig,
    ctl: &CellControl<'_>,
) -> Result<RunReport, CellError> {
    let pes = config.pes;
    let setup = Setup::aligned(config.geometry.block_words);
    Ok(match protocol {
        Protocol::Pim => run_body(bench, scale, pes, PimSystem::new(config), setup, ctl)?.0,
        Protocol::Illinois => {
            run_body(bench, scale, pes, IllinoisSystem::new(config), setup, ctl)?.0
        }
    })
}

/// How one run is set up beyond the benchmark, the scale and the
/// memory system.
#[derive(Default)]
struct Setup<'a> {
    /// Record alignment the machine compiles for.
    block_words: u64,
    /// Stop-and-copy GC semispace per PE, when GC is on.
    semispace_words: Option<u64>,
    options: fghc::CompileOptions,
    /// The metrics sink, whose aggregate lands in [`RunReport::metrics`].
    profile: Option<&'a SharedMetrics>,
    /// A caller's extra sink, one fresh clone per component.
    extra: Option<&'a mut dyn FnMut() -> Box<dyn Observer>>,
}

impl Setup<'_> {
    fn aligned(block_words: u64) -> Self {
        Setup {
            block_words,
            ..Setup::default()
        }
    }
}

/// Compiles `bench` and poses its query on a fresh machine.
fn build_cluster(
    bench: Bench,
    scale: Scale,
    config: ClusterConfig,
    options: fghc::CompileOptions,
) -> Result<Cluster, CellError> {
    let program = fghc::compile_with(bench.source(), options)
        .map_err(|e| CellError::Compile(e.to_string()))?;
    let mut cluster = Cluster::new(program, config);
    let (proc, args) = bench.query(scale);
    cluster
        .set_query(proc, args)
        .map_err(|e| CellError::Query(e.to_string()))?;
    Ok(cluster)
}

/// The one body behind every engine-driven entry point: build the
/// machine, attach observers, drive the engine, and check the outcome
/// and the answer against the oracle. A run that `ctl` supervises goes
/// in chunks, so its deadline, cancel flag and progress tick are
/// honoured mid-run; any other run is one engine call. Chunked
/// execution is bit-identical to an uninterrupted run.
fn run_body<S: MemorySystem>(
    bench: Bench,
    scale: Scale,
    pes: u32,
    mut system: S,
    mut setup: Setup<'_>,
    ctl: &CellControl<'_>,
) -> Result<(RunReport, S), CellError> {
    use std::sync::atomic::Ordering;
    let mut cluster = build_cluster(
        bench,
        scale,
        ClusterConfig {
            pes,
            block_words: setup.block_words,
            heap_semispace_words: setup.semispace_words,
            ..ClusterConfig::default()
        },
        setup.options,
    )?;
    // One observer per component slot: the metrics sink, the caller's
    // extra sink (e.g. an event tracer), or both fanned out.
    let profile = setup.profile;
    let mut make = || -> Option<Box<dyn Observer>> {
        match (profile, setup.extra.as_mut()) {
            (Some(s), Some(f)) => Some(Box::new(Fanout::from_sinks(vec![s.observer(), f()]))),
            (Some(s), None) => Some(s.observer()),
            (None, Some(f)) => Some(f()),
            (None, None) => None,
        }
    };
    if let Some(obs) = make() {
        cluster.set_observer(obs);
    }
    if let Some(obs) = make() {
        system.set_observer(obs);
    }
    let mut engine = Engine::new(system, pes);
    if let Some(obs) = make() {
        engine.set_observer(obs);
    }
    let supervised = ctl.deadline.is_some() || ctl.cancel.is_some() || ctl.progress.is_some();
    let chunk = if supervised { CELL_CHUNK } else { MAX_STEPS };
    let mut total_steps = 0u64;
    let stats = loop {
        let budget = chunk.min(MAX_STEPS - total_steps);
        let stats = engine.run(&mut cluster, budget).map_err(CellError::Sim)?;
        total_steps += stats.steps;
        if let Some(tick) = ctl.progress {
            tick(stats.steps);
        }
        if stats.finished {
            break stats;
        }
        if total_steps >= MAX_STEPS {
            return Err(CellError::StepBudget { steps: total_steps });
        }
        if ctl.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Err(CellError::Cancelled { steps: total_steps });
        }
        if ctl.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return Err(CellError::Sim(pim_sim::SimError::WallClockExpired {
                budget_secs: ctl.budget_secs,
                cycle: stats.makespan,
                steps: total_steps,
            }));
        }
    };
    if let Some(msg) = cluster.failure() {
        return Err(CellError::Failed(msg.to_string()));
    }
    let answer = engine.with_port(PeId(0), |port| cluster.extract(port, "R"));
    let answer = check_answer(bench, scale, answer)?;
    let system = engine.into_system();
    let report = RunReport {
        bench,
        scale,
        pes,
        machine: cluster.stats(),
        refs: system.ref_stats().clone(),
        bus: system.bus_stats().clone(),
        access: *system.access_stats(),
        locks: *system.lock_stats(),
        makespan: stats.makespan,
        pe_cycles: stats.pe_cycles,
        metrics: profile.map(SharedMetrics::take),
        answer,
    };
    Ok((report, system))
}

/// The bound query variable, if it matches the reference oracle.
fn check_answer(bench: Bench, scale: Scale, answer: Option<Term>) -> Result<Term, CellError> {
    let answer = answer.ok_or(CellError::Unbound)?;
    let want = reference::expected(bench, scale);
    if answer != want {
        return Err(CellError::WrongAnswer {
            got: answer.to_string(),
            want: want.to_string(),
        });
    }
    Ok(answer)
}

/// Unwraps a run of the panicking entry points, naming the benchmark.
fn expect_run<T>(bench: Bench, run: Result<T, CellError>) -> T {
    run.unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

/// Runs `bench` unsupervised on a PIM cache built from `config`,
/// panicking on any failure; the system comes back for checks.
fn run_pim_with(
    bench: Bench,
    scale: Scale,
    config: SystemConfig,
    setup: Setup<'_>,
) -> (RunReport, PimSystem) {
    let setup = Setup {
        block_words: config.geometry.block_words,
        ..setup
    };
    let (pes, ctl) = (config.pes, CellControl::default());
    let run = run_body(bench, scale, pes, PimSystem::new(config), setup, &ctl);
    expect_run(bench, run)
}

/// The report of a run whose final state passes the coherence
/// invariants, under either protocol.
fn checked<P: CoherenceProtocol>((report, system): (RunReport, CoherentSystem<P>)) -> RunReport {
    system
        .check_coherence_invariants()
        .unwrap_or_else(|e| panic!("coherence invariants after run: {e}"));
    report
}

/// Runs `bench` on the PIM cache with stop-and-copy GC enabled over
/// `semispace_words`-word semispaces per PE (for the GC experiment).
pub fn run_pim_gc(
    bench: Bench,
    scale: Scale,
    config: SystemConfig,
    semispace_words: u64,
) -> (RunReport, kl1_machine::GcStats) {
    let setup = Setup {
        semispace_words: Some(semispace_words),
        ..Setup::default()
    };
    let (report, _) = run_pim_with(bench, scale, config, setup);
    let gc = report.machine.gc;
    (report, gc)
}

/// Runs `bench` on the PIM cache with explicit compiler options (for the
/// clause-indexing ablation).
pub fn run_pim_compiled(
    bench: Bench,
    scale: Scale,
    config: SystemConfig,
    options: fghc::CompileOptions,
) -> RunReport {
    let setup = Setup {
        options,
        ..Setup::default()
    };
    run_pim_with(bench, scale, config, setup).0
}

/// Runs `bench` on the flat (cache-less) port — the mode behind the
/// reference-count columns of Tables 1–3.
///
/// # Panics
///
/// Panics if the program fails or computes a wrong answer.
pub fn run_flat(bench: Bench, scale: Scale, pes: u32) -> RunReport {
    let (cluster, port) = flat_port_of(bench, scale, pes);
    let answer = cluster.extract(&port, "R");
    let answer = expect_run(bench, check_answer(bench, scale, answer));
    RunReport {
        bench,
        scale,
        pes,
        machine: cluster.stats(),
        refs: port.stats(),
        bus: BusStats::new(),
        access: AccessStats::new(),
        locks: LockStats::new(),
        makespan: 0,
        pe_cycles: Vec::new(),
        metrics: None,
        answer,
    }
}

/// Runs `bench` through the engine on an arbitrary memory system.
///
/// # Panics
///
/// Panics if the program fails, exceeds the step budget, or computes a
/// wrong answer.
pub fn run_on<S>(bench: Bench, scale: Scale, pes: u32, system: S) -> (RunReport, S)
where
    S: MemorySystem + 'static,
{
    let block_words = 4; // record alignment; geometry-specific runs override below
    run_on_aligned(bench, scale, pes, system, block_words)
}

/// Like [`run_on`], with an explicit record alignment (use the cache's
/// block size so `DW`/`ER` hit their special cases — the paper's software
/// is compiled for its cache line size).
pub fn run_on_aligned<S: MemorySystem>(
    bench: Bench,
    scale: Scale,
    pes: u32,
    system: S,
    block_words: u64,
) -> (RunReport, S) {
    let setup = Setup::aligned(block_words);
    let ctl = CellControl::default();
    expect_run(bench, run_body(bench, scale, pes, system, setup, &ctl))
}

/// Like [`run_on_aligned`], with event-level metrics collection: the
/// shared sink is attached to the machine, the memory system, and the
/// engine, and the aggregate lands in [`RunReport::metrics`].
pub fn run_on_profiled<S: MemorySystem>(
    bench: Bench,
    scale: Scale,
    pes: u32,
    system: S,
    block_words: u64,
) -> (RunReport, S) {
    let shared = SharedMetrics::new();
    let setup = Setup {
        profile: Some(&shared),
        ..Setup::aligned(block_words)
    };
    let ctl = CellControl::default();
    expect_run(bench, run_body(bench, scale, pes, system, setup, &ctl))
}

/// Runs `bench` on the PIM cache with the given configuration.
pub fn run_pim(bench: Bench, scale: Scale, config: SystemConfig) -> RunReport {
    checked(run_pim_with(bench, scale, config, Setup::default()))
}

/// Runs `bench` on the PIM cache with event-level metrics collection
/// ([`RunReport::metrics`] is `Some`). Observation is passive: the
/// simulated results are identical to [`run_pim`]'s.
pub fn run_pim_profiled(bench: Bench, scale: Scale, config: SystemConfig) -> RunReport {
    let shared = SharedMetrics::new();
    let setup = Setup {
        profile: Some(&shared),
        ..Setup::default()
    };
    checked(run_pim_with(bench, scale, config, setup))
}

/// Runs `bench` on the PIM cache with a caller-supplied observer
/// attached to the machine, the memory system, and the engine — one
/// fresh sink per component from `make` (clones of an event tracer,
/// say). Observation is passive: results are identical to
/// [`run_pim`]'s.
pub fn run_pim_observed(
    bench: Bench,
    scale: Scale,
    config: SystemConfig,
    make: &mut dyn FnMut() -> Box<dyn Observer>,
) -> RunReport {
    let setup = Setup {
        extra: Some(make),
        ..Setup::default()
    };
    checked(run_pim_with(bench, scale, config, setup))
}

/// Runs `bench` on the Illinois baseline with the given configuration.
pub fn run_illinois(bench: Bench, scale: Scale, config: SystemConfig) -> RunReport {
    let (pes, block) = (config.pes, config.geometry.block_words);
    checked(run_on_aligned(
        bench,
        scale,
        pes,
        IllinoisSystem::new(config),
        block,
    ))
}

/// Convenience: flat-port run returning only the raw port (for tests
/// needing per-PE reference stats).
pub fn flat_port_of(bench: Bench, scale: Scale, pes: u32) -> (Cluster, FlatPort) {
    let config = ClusterConfig {
        pes,
        block_words: 4,
        ..ClusterConfig::default()
    };
    let mut cluster = expect_run(
        bench,
        build_cluster(bench, scale, config, Default::default()),
    );
    let port = kl1_machine::run_flat(&mut cluster, MAX_STEPS);
    (cluster, port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_compute_correct_answers_flat() {
        for bench in Bench::ALL {
            let report = run_flat(bench, Scale::smoke(), 2);
            assert!(report.machine.reductions > 0, "{}", bench.name());
            assert!(report.refs.total() > 0, "{}", bench.name());
        }
    }

    #[test]
    fn all_benchmarks_run_on_the_pim_cache() {
        for bench in Bench::ALL {
            let report = run_pim(
                bench,
                Scale::smoke(),
                SystemConfig {
                    pes: 2,
                    ..SystemConfig::default()
                },
            );
            assert!(report.bus.total_cycles() > 0, "{}", bench.name());
            assert!(report.makespan > 0, "{}", bench.name());
        }
    }

    #[test]
    fn all_benchmarks_run_on_illinois() {
        for bench in Bench::ALL {
            let report = run_illinois(
                bench,
                Scale::smoke(),
                SystemConfig {
                    pes: 2,
                    ..SystemConfig::default()
                },
            );
            assert!(report.bus.total_cycles() > 0, "{}", bench.name());
        }
    }

    #[test]
    fn profiling_is_passive() {
        let config = SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        };
        let plain = run_pim(Bench::Semi, Scale::smoke(), config.clone());
        let profiled = run_pim_profiled(Bench::Semi, Scale::smoke(), config);
        assert_eq!(plain.makespan, profiled.makespan);
        assert_eq!(plain.bus.total_cycles(), profiled.bus.total_cycles());
        assert_eq!(plain.refs, profiled.refs);
        let metrics = profiled.metrics.expect("profiled run collects metrics");
        assert!(metrics.transitions_total().total() > 0);
        assert!(metrics.bus_wait.count() > 0);
        assert!(metrics.reductions_by_pe.iter().sum::<u64>() > 0);
        assert_eq!(profiled.pe_cycles.len(), 2);
        // Each PE's account sums to its final clock; the makespan is the
        // latest of those clocks.
        let max_total = profiled.pe_cycles.iter().map(PeCycles::total).max();
        assert_eq!(max_total, Some(profiled.makespan));
    }

    #[test]
    fn pascal_is_the_suspension_heavy_benchmark() {
        let report = run_flat(Bench::Pascal, Scale::smoke(), 2);
        assert!(
            report.machine.suspensions > 0,
            "pipeline should suspend often, got {}",
            report.machine.suspensions
        );
    }

    #[test]
    fn tri_migrates_goals_under_parallelism() {
        let report = run_flat(Bench::Tri, Scale::smoke(), 4);
        assert!(report.machine.goals_migrated > 0);
    }

    #[test]
    fn supervised_cell_matches_the_panicking_harness() {
        let config = SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        };
        let plain = run_pim(Bench::Semi, Scale::smoke(), config.clone());
        let cell = run_cell(
            Protocol::Pim,
            Bench::Semi,
            Scale::smoke(),
            config.clone(),
            &CellControl::default(),
        )
        .expect("supervised cell runs clean");
        // Chunked supervised execution is bit-identical to the
        // uninterrupted harness run.
        assert_eq!(cell.makespan, plain.makespan);
        assert_eq!(cell.refs, plain.refs);
        assert_eq!(cell.bus.total_cycles(), plain.bus.total_cycles());
        assert_eq!(cell.answer, plain.answer);
        let illinois = run_cell(
            Protocol::Illinois,
            Bench::Semi,
            Scale::smoke(),
            config,
            &CellControl::default(),
        )
        .expect("illinois cell runs clean");
        assert!(illinois.makespan > 0);
    }

    #[test]
    fn supervised_cell_honors_cancel_and_deadline() {
        use std::sync::atomic::AtomicBool;
        let config = SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        };
        let cancel = AtomicBool::new(true);
        let err = run_cell(
            Protocol::Pim,
            Bench::Puzzle,
            Scale::small(),
            config.clone(),
            &CellControl {
                cancel: Some(&cancel),
                ..CellControl::default()
            },
        )
        .expect_err("pre-raised cancel flag stops the run");
        assert!(matches!(err, CellError::Cancelled { .. }), "{err}");
        let err = run_cell(
            Protocol::Pim,
            Bench::Puzzle,
            Scale::small(),
            config,
            &CellControl {
                deadline: Some(std::time::Instant::now()),
                budget_secs: 1,
                ..CellControl::default()
            },
        )
        .expect_err("expired deadline stops the run");
        assert!(
            matches!(
                err,
                CellError::Sim(pim_sim::SimError::WallClockExpired { budget_secs: 1, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn protocol_and_preset_names_round_trip() {
        for p in [Protocol::Pim, Protocol::Illinois] {
            assert_eq!(Protocol::from_name(p.name()), Some(p));
        }
        assert_eq!(Protocol::from_name("MESI"), None);
        for b in Bench::EXTENDED {
            assert_eq!(Bench::from_name(b.name()), Some(b));
        }
        assert_eq!(Bench::from_name("tri"), Some(Bench::Tri));
        for s in [Scale::smoke(), Scale::small(), Scale::paper()] {
            assert_eq!(Scale::from_name(s.name()), Some(s));
        }
        assert_eq!(Scale::from_name("huge"), None);
    }
}
