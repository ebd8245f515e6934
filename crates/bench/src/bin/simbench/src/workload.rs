//! The four workloads, their seeded inputs, and one unit of each: set-up
//! and simulation assembled from each layer's public calls, so set-up and
//! run can be timed apart.

use crate::digest::{CellDigest, SimResult};
use crate::span::{self, Layer, TimedObserver, TimedProcess, TimedSystem};
use bench::experiments::base_config;
use kl1_machine::Cluster;
use pim_cache::{OptMask, PimSystem};
use pim_obs::{Observer, SharedMetrics};
use pim_sim::{Engine, IllinoisSystem, MemorySystem, Replayer, RunStats};
use pim_trace::{PeId, Process};
use std::borrow::BorrowMut;
use std::time::Instant;
use workloads::runner::Protocol;
use workloads::{reference, synthetic, Bench, Scale};

/// The seed the golden digests were recorded at.
pub const DEFAULT_SEED: u64 = 1989;

/// Simulated PEs in every workload (the paper's base system).
pub const PES: u32 = 8;

const MAX_STEPS: u64 = 4_000_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tri with metrics observers on the machine, system and engine.
    Kl1TriProfiled,
    /// {Semi, Pascal} x {PIM, Illinois}, unobserved.
    Kl1Grid,
    /// A seeded random heap read/write mix replayed on PIM.
    ReplayHeapMix,
    /// A seeded Aurora-like OR-parallel Prolog trace replayed on PIM.
    ReplayAurora,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Kl1TriProfiled,
        Workload::Kl1Grid,
        Workload::ReplayHeapMix,
        Workload::ReplayAurora,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kl1TriProfiled => "kl1-tri-profiled",
            Workload::Kl1Grid => "kl1-grid",
            Workload::ReplayHeapMix => "replay-heap-mix",
            Workload::ReplayAurora => "replay-aurora",
        }
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Kl1TriProfiled => {
                "goal-migration search: the KL1 machine does the most work, and only here are pim-obs observer callbacks on"
            }
            Workload::Kl1Grid => {
                "the only Illinois runs, beside PIM; read-dominated Semi next to suspension- and lock-heavy Pascal"
            }
            Workload::ReplayHeapMix => {
                "footprint 4x a PE cache: the miss, write-back and invalidate path of pim-cache, with no KL1 machine"
            }
            Workload::ReplayAurora => {
                "cache-resident DW/DWD/ER/LR/UW mix with contended locks: cheapest accesses, so the engine scheduler's share is highest"
            }
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed changes the inputs. The KL1 workloads run fixed
    /// programs on fixed queries; the replays generate their traces from it.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::ReplayHeapMix | Workload::ReplayAurora)
    }
}

/// One KL1 simulation of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kl1Cell {
    /// The program.
    pub bench: Bench,
    /// Its problem size.
    pub scale: Scale,
    /// The memory system it runs on.
    pub protocol: Protocol,
    /// Whether `SharedMetrics` observers are attached.
    pub profiled: bool,
}

impl Kl1Cell {
    /// The cell's digest label, e.g. `Pascal/illinois`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.bench.name(), self.protocol.name())
    }
}

/// Tri's size in `kl1-tri-profiled`: search depth 4, between the smoke and
/// small presets.
pub fn tri_scale() -> Scale {
    Scale {
        tri_depth: 4,
        ..Scale::small()
    }
}

/// A run's inputs, made from the seed before anything is timed.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// KL1 simulations, run in order.
    Kl1(Vec<Kl1Cell>),
    /// A seeded trace in `pim-trace` text form, parsed in every unit.
    Replay(String),
}

/// The inputs of `workload` for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let kl1 = |bench, scale, protocol, profiled| Kl1Cell {
        bench,
        scale,
        protocol,
        profiled,
    };
    match workload {
        Workload::Kl1TriProfiled => {
            Inputs::Kl1(vec![kl1(Bench::Tri, tri_scale(), Protocol::Pim, true)])
        }
        Workload::Kl1Grid => Inputs::Kl1(
            [Bench::Semi, Bench::Pascal]
                .into_iter()
                .flat_map(|b| {
                    [Protocol::Pim, Protocol::Illinois].map(|p| kl1(b, Scale::small(), p, false))
                })
                .collect(),
        ),
        // 16K words of heap: four times one PE's 4K-word cache.
        Workload::ReplayHeapMix => Inputs::Replay(trace_text(&synthetic::shared_heap_mix(
            PES,
            300_000,
            30,
            1 << 14,
            seed,
        ))),
        Workload::ReplayAurora => {
            Inputs::Replay(trace_text(&synthetic::aurora_like(PES, 35_000, seed)))
        }
    }
}

fn trace_text(trace: &[pim_trace::Access]) -> String {
    let mut buf = Vec::new();
    if let Err(e) = pim_trace::write_trace(&mut buf, trace) {
        unreachable!("writing to memory cannot fail: {e}");
    }
    String::from_utf8(buf).unwrap_or_else(|e| unreachable!("trace text is ASCII: {e}"))
}

/// Set-up phases of a unit, indexing [`Unit::setup_ns`].
pub mod phase {
    /// `fghc::compile`, or `pim_trace::read_trace` of the trace text.
    pub const TRANSLATE: usize = 0;
    /// `Cluster::new` and `set_query`, or `Replayer::from_merged`.
    pub const PROCESS: usize = 1;
    /// Memory-system and `Engine` construction, observers attached.
    pub const SYSTEM: usize = 2;
}

/// One measured unit: the workload's simulations once, from set-up to
/// verified digest.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Host nanoseconds per set-up phase (see [`phase`]).
    pub setup_ns: [u64; 3],
    /// Host nanoseconds from `Engine::run` to the extracted answer.
    pub run_ns: u64,
    /// Simulated memory references (`RefStats::total`).
    pub refs: u64,
    /// One digest per simulation, in run order.
    pub cells: Vec<CellDigest>,
    /// Why the unit failed, if it did.
    pub error: Option<String>,
}

impl Unit {
    /// Set-up host seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Run host seconds.
    pub fn run_s(&self) -> f64 {
        self.run_ns as f64 / 1e9
    }

    /// `field` summed over the cells whose label ends with `suffix`.
    pub fn sum(&self, field: &str, suffix: &str) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.cell.ends_with(suffix))
            .map(|c| c.get(field))
            .sum()
    }
}

/// Runs one unit. With `traced`, the process, memory systems and
/// observers run inside [`span`] wrappers.
pub fn run_unit(inputs: &Inputs, traced: bool) -> Unit {
    let mut unit = Unit::default();
    let outcome = match inputs {
        Inputs::Kl1(cells) => cells
            .iter()
            .try_for_each(|cell| kl1_cell(cell, traced, &mut unit)),
        Inputs::Replay(text) => replay_cell(text, traced, &mut unit),
    };
    unit.error = outcome.err();
    unit
}

/// Memory systems whose coherence invariants can be checked after a run.
trait Checked: MemorySystem {
    fn invariants(&self) -> Result<(), String>;
}

impl Checked for PimSystem {
    fn invariants(&self) -> Result<(), String> {
        self.check_coherence_invariants()
    }
}

impl Checked for IllinoisSystem {
    fn invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

impl<S: Checked> Checked for TimedSystem<S> {
    fn invariants(&self) -> Result<(), String> {
        self.inner.invariants()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn kl1_cell(cell: &Kl1Cell, traced: bool, unit: &mut Unit) -> Result<(), String> {
    let config = base_config(PES, OptMask::all());
    let t0 = Instant::now();
    let program = fghc::compile(cell.bench.source())
        .map_err(|e| format!("{}: compile error: {e}", cell.label()))?;
    let t1 = Instant::now();
    let mut cluster = Cluster::new(
        program,
        kl1_machine::ClusterConfig {
            pes: PES,
            block_words: config.geometry.block_words,
            ..kl1_machine::ClusterConfig::default()
        },
    );
    let (name, args) = cell.bench.query(cell.scale);
    cluster
        .set_query(name, args)
        .map_err(|e| format!("{}: query error: {e}", cell.label()))?;
    let t2 = Instant::now();
    unit.setup_ns[phase::TRANSLATE] += nanos(t1 - t0);
    unit.setup_ns[phase::PROCESS] += nanos(t2 - t1);
    match (cell.protocol, traced) {
        (Protocol::Pim, false) => kl1_run(cell, cluster, PimSystem::new(config), false, unit, t2),
        (Protocol::Pim, true) => kl1_run(
            cell,
            TimedProcess(cluster),
            TimedSystem::new(PimSystem::new(config), Layer::PimCache),
            true,
            unit,
            t2,
        ),
        (Protocol::Illinois, false) => {
            kl1_run(cell, cluster, IllinoisSystem::new(config), false, unit, t2)
        }
        (Protocol::Illinois, true) => kl1_run(
            cell,
            TimedProcess(cluster),
            TimedSystem::new(IllinoisSystem::new(config), Layer::Illinois),
            true,
            unit,
            t2,
        ),
    }
}

fn kl1_run<P, S>(
    cell: &Kl1Cell,
    mut process: P,
    mut system: S,
    traced: bool,
    unit: &mut Unit,
    setup_start: Instant,
) -> Result<(), String>
where
    P: Process + BorrowMut<Cluster>,
    S: Checked,
{
    let label = cell.label();
    let metrics = cell.profiled.then(SharedMetrics::new);
    let observer = |m: &SharedMetrics| -> Box<dyn Observer> {
        if traced {
            Box::new(TimedObserver(m.observer()))
        } else {
            m.observer()
        }
    };
    if let Some(m) = &metrics {
        process.borrow_mut().set_observer(observer(m));
        system.set_observer(observer(m));
    }
    let mut engine = Engine::new(system, PES);
    if let Some(m) = &metrics {
        engine.set_observer(observer(m));
    }
    let start = Instant::now();
    unit.setup_ns[phase::SYSTEM] += nanos(start - setup_start);
    let stats =
        run_engine(&mut engine, &mut process, traced).map_err(|e| format!("{label}: {e}"))?;
    let answer = engine.with_port(PeId(0), |port| {
        let cluster: &Cluster = process.borrow();
        cluster.extract(port, "R")
    });
    unit.run_ns += nanos(start.elapsed());
    let cluster: &Cluster = process.borrow();
    if let Some(msg) = cluster.failure() {
        return Err(format!("{label}: program failed: {msg}"));
    }
    let answer = answer.ok_or_else(|| format!("{label}: query variable R unbound"))?;
    let want = reference::expected(cell.bench, cell.scale);
    if answer != want {
        return Err(format!("{label}: wrong answer: got {answer}, want {want}"));
    }
    let machine = Some(cluster.stats());
    record(
        unit,
        &label,
        engine.into_system(),
        stats,
        Some(answer),
        machine,
        metrics.map(|m| m.take()),
    )
}

fn replay_cell(text: &str, traced: bool, unit: &mut Unit) -> Result<(), String> {
    let config = base_config(PES, OptMask::all());
    let t0 = Instant::now();
    let trace =
        pim_trace::read_trace(text.as_bytes()).map_err(|e| format!("trace parse error: {e}"))?;
    let t1 = Instant::now();
    let replayer = Replayer::from_merged(&trace, PES);
    drop(trace);
    let t2 = Instant::now();
    unit.setup_ns[phase::TRANSLATE] += nanos(t1 - t0);
    unit.setup_ns[phase::PROCESS] += nanos(t2 - t1);
    if traced {
        let system = TimedSystem::new(PimSystem::new(config), Layer::PimCache);
        replay_run(TimedProcess(replayer), system, true, unit, t2)
    } else {
        replay_run(replayer, PimSystem::new(config), false, unit, t2)
    }
}

fn replay_run<P: Process, S: Checked>(
    mut process: P,
    system: S,
    traced: bool,
    unit: &mut Unit,
    setup_start: Instant,
) -> Result<(), String> {
    let mut engine = Engine::new(system, PES);
    let start = Instant::now();
    unit.setup_ns[phase::SYSTEM] += nanos(start - setup_start);
    let stats =
        run_engine(&mut engine, &mut process, traced).map_err(|e| format!("replay: {e}"))?;
    unit.run_ns += nanos(start.elapsed());
    record(
        unit,
        "replay/pim",
        engine.into_system(),
        stats,
        None,
        None,
        None,
    )
}

fn run_engine<P: Process, S: MemorySystem>(
    engine: &mut Engine<S>,
    process: &mut P,
    traced: bool,
) -> Result<RunStats, String> {
    let mut run = || engine.run(process, MAX_STEPS);
    let stats = if traced {
        span::timed(Layer::Engine, run)
    } else {
        run()
    };
    let stats = stats.map_err(|e| format!("simulation error: {e}"))?;
    if stats.finished {
        Ok(stats)
    } else {
        Err(format!("unfinished after {} steps", stats.steps))
    }
}

fn record<S: Checked>(
    unit: &mut Unit,
    label: &str,
    system: S,
    stats: RunStats,
    answer: Option<fghc::Term>,
    machine: Option<kl1_machine::MachineStats>,
    metrics: Option<pim_obs::Metrics>,
) -> Result<(), String> {
    system
        .invariants()
        .map_err(|e| format!("{label}: coherence invariant violated: {e}"))?;
    let result = SimResult {
        answer,
        machine,
        makespan: stats.makespan,
        pe_cycles: stats.pe_cycles,
        bus: system.bus_stats().clone(),
        refs: system.ref_stats().clone(),
        access: *system.access_stats(),
        locks: *system.lock_stats(),
        metrics,
    };
    unit.refs += result.refs.total();
    unit.cells.push(result.digest(label));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("kl1-tri"), None);
    }

    #[test]
    fn seeded_inputs_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let (a, b, c) = (inputs(w, 7), inputs(w, 7), inputs(w, 8));
            let text = |i: &Inputs| match i {
                Inputs::Replay(t) => Some(t.clone()),
                Inputs::Kl1(_) => None,
            };
            assert_eq!(text(&a), text(&b), "{}", w.name());
            assert_eq!(text(&a).is_some(), w.seeded(), "{}", w.name());
            if w.seeded() {
                assert_ne!(text(&a), text(&c), "{}", w.name());
            }
        }
    }
}
