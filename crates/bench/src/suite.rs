//! The fixed `pimbench` suite: a small, deterministic set of micro and
//! macro benchmarks measuring *host* throughput of the simulator stack,
//! emitted as a schema-versioned `pim-bench/v1` document.
//!
//! The committed `BENCH_*.json` files at the repo root form the
//! project's performance trajectory: one file per PR that changes
//! performance-relevant code, each regenerated with `pimbench run`.
//! `pimbench diff OLD NEW` compares two such documents and (with
//! `--check`) fails CI when a median regresses beyond a threshold.
//!
//! Every benchmark body is a deterministic simulation — identical
//! inputs, identical simulated results on every host — so the only
//! thing that varies between two runs is the host wall time being
//! measured. The suite is intentionally small (seconds, not minutes, in
//! `--quick` mode) so it can run on every CI push.

use crate::experiments::base_config;
use pim_bus::BusStats;
use pim_cache::{AccessStats, LockStats, OptMask, Outcome, PimSystem, ProtocolError};
use pim_obs::Json;
use pim_sim::{Engine, MemorySystem, Process, Replayer};
use pim_trace::{Access, Addr, AreaMap, MemOp, PeId, RefStats, Word};
use pim_tracer::JsonExt;
use workloads::{synthetic, Bench, Scale};

/// The schema identifier written into every suite document.
pub const SCHEMA: &str = "pim-bench/v1";

/// How thoroughly to sample each benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CI mode: 3 samples per benchmark, smallest workloads.
    Quick,
    /// Baseline mode: 5 samples per benchmark.
    Full,
}

impl Mode {
    fn samples(self) -> usize {
        match self {
            Mode::Quick => 3,
            Mode::Full => 5,
        }
    }

    /// The label recorded in the document.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }
}

/// One measured suite entry in wire order.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Stable benchmark name, e.g. `replay/heap-mix`.
    pub name: &'static str,
    /// `micro` or `macro`.
    pub kind: &'static str,
    /// Host worker threads the benchmark ran with.
    pub threads: usize,
    /// Inner iterations folded into each timed sample.
    pub iters: u64,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Deterministic work units processed per sample (after `iters`).
    pub items: u64,
    /// What `items` counts, e.g. `accesses`.
    pub unit: &'static str,
    /// Median / min / max wall time of one sample, nanoseconds.
    pub wall_ns: (u64, u64, u64),
}

impl Entry {
    /// Work units per second at the median sample.
    pub fn per_sec(&self) -> f64 {
        let (median, _, _) = self.wall_ns;
        if median == 0 {
            0.0
        } else {
            self.items as f64 * 1e9 / median as f64
        }
    }

    /// The wire form of one entry.
    pub fn to_json(&self) -> Json {
        let (median, min, max) = self.wall_ns;
        Json::obj([
            ("name", Json::from(self.name)),
            ("kind", Json::from(self.kind)),
            ("threads", Json::from(self.threads)),
            ("iters", Json::from(self.iters)),
            ("samples", Json::from(self.samples)),
            ("items", Json::from(self.items)),
            ("unit", Json::from(self.unit)),
            (
                "wall_ns",
                Json::obj([
                    ("median", Json::from(median)),
                    ("min", Json::from(min)),
                    ("max", Json::from(max)),
                ]),
            ),
            ("per_sec", Json::from(self.per_sec())),
        ])
    }
}

/// Times `f` (which must perform `iters` inner iterations and return
/// the items processed per sample) `samples` times and folds the
/// timings into an [`Entry`].
fn measure(
    name: &'static str,
    kind: &'static str,
    threads: usize,
    iters: u64,
    mode: Mode,
    unit: &'static str,
    f: &dyn Fn() -> u64,
) -> Entry {
    let samples = mode.samples();
    let mut times: Vec<u64> = Vec::with_capacity(samples);
    let mut items = 0;
    for _ in 0..samples {
        let t = std::time::Instant::now();
        items = f();
        let ns = t.elapsed().as_nanos();
        times.push(u64::try_from(ns).unwrap_or(u64::MAX));
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    Entry {
        name,
        kind,
        threads,
        iters,
        samples,
        items,
        unit,
        wall_ns: (median, times[0], times[times.len() - 1]),
    }
}

/// Replays `trace` on a fresh base-config PIM system and returns the
/// simulated makespan (consumed so the work is not optimized away).
fn replay(trace: &[Access], pes: u32) -> u64 {
    let mut replayer = Replayer::from_merged(trace, pes);
    let system = PimSystem::new(base_config(pes, OptMask::all()));
    let mut engine = Engine::new(system, pes);
    match engine.run(&mut replayer, u64::MAX) {
        Ok(stats) => stats.makespan,
        Err(e) => unreachable!("suite trace replay cannot fault: {e}"),
    }
}

/// A memory system that answers every access at once: no cache, no bus,
/// no locks and no statistics. Under it, an engine run costs only the
/// scheduler, its port and the process.
#[derive(Default)]
struct InstantMemory {
    map: AreaMap,
    bus: BusStats,
    refs: RefStats,
    accesses: AccessStats,
    locks: LockStats,
}

impl MemorySystem for InstantMemory {
    fn access(
        &mut self,
        _pe: PeId,
        _op: MemOp,
        _addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        Ok(Outcome::Done {
            value: data.unwrap_or(0),
            bus_cycles: 0,
            hit: true,
            woken: Vec::new(),
        })
    }

    fn area_map(&self) -> &AreaMap {
        &self.map
    }

    fn poke(&mut self, _addr: Addr, _value: Word) {}

    fn peek(&self, _addr: Addr) -> Word {
        0
    }

    fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    fn ref_stats(&self) -> &RefStats {
        &self.refs
    }

    fn access_stats(&self) -> &AccessStats {
        &self.accesses
    }

    fn lock_stats(&self) -> &LockStats {
        &self.locks
    }

    fn save_ckpt(&self, _w: &mut pim_ckpt::Writer) {}

    fn restore_ckpt(&mut self, _r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        Ok(())
    }
}

/// Runs a copy of `replayer` on an [`InstantMemory`] and returns the
/// engine's step count.
fn replay_instant(replayer: &Replayer) -> u64 {
    let mut replayer = replayer.clone();
    let pes = replayer.pe_count();
    let mut engine = Engine::new(InstantMemory::default(), pes);
    match engine.run(&mut replayer, u64::MAX) {
        Ok(stats) => stats.steps,
        Err(e) => unreachable!("an instant memory cannot fault: {e}"),
    }
}

/// Serializes a mid-run engine snapshot and restores it into a fresh
/// engine, returning the payload size. One `ckpt/save_restore` item is
/// one such roundtrip.
fn ckpt_roundtrip(trace: &[Access], pes: u32) -> u64 {
    let mut replayer = Replayer::from_merged(trace, pes);
    let system = PimSystem::new(base_config(pes, OptMask::all()));
    let mut engine = Engine::new(system, pes);
    // Stop mid-run so the snapshot captures a busy cache, not an idle
    // one: max_steps bounds committed steps, leaving work outstanding.
    if let Err(e) = engine.run(&mut replayer, 2_000) {
        unreachable!("suite trace replay cannot fault: {e}");
    }
    let mut w = pim_ckpt::Writer::new();
    w.section("engine", |w| engine.save_ckpt(w));
    let bytes = w.payload().to_vec();
    let system = PimSystem::new(base_config(pes, OptMask::all()));
    let mut fresh = Engine::new(system, pes);
    let mut r = pim_ckpt::Reader::new(&bytes);
    let restored = r.section("engine", |r| fresh.restore_ckpt(r));
    match restored {
        Ok(()) => bytes.len() as u64,
        Err(e) => unreachable!("suite snapshot cannot be refused: {e}"),
    }
}

/// Runs one Table-1 workload at smoke scale on the paper's 8-PE base
/// system, returning reductions (the items unit).
fn table1_run(bench: Bench) -> u64 {
    let report = workloads::runner::run_pim(bench, Scale::smoke(), base_config(8, OptMask::all()));
    report.machine.reductions
}

/// The stable names of every suite benchmark, in run order, with the
/// thread count each runs at.
pub const BENCHMARKS: &[(&str, usize)] = &[
    ("micro/cache_hit", 1),
    ("micro/bus_arbitrate", 1),
    ("micro/engine_step", 1),
    ("replay/heap-mix", 1),
    ("table1/tri", 1),
    ("table1/pascal", 1),
    ("table1/puzzle", 1),
    ("ckpt/save_restore", 1),
];

/// Runs the benchmarks whose `name` contains `filter` (all when empty)
/// and returns the measured entries in the fixed suite order.
pub fn run(mode: Mode, filter: &str, progress: &dyn Fn(&str)) -> Vec<Entry> {
    let mut entries = Vec::new();
    let wanted = |name: &str| filter.is_empty() || name.contains(filter);

    if wanted("micro/cache_hit") {
        progress("micro/cache_hit");
        // One PE sweeping a trace that fits the cache: after the cold
        // fill, every reference hits — the protocol fast path.
        let trace = synthetic::sequential_allocation(2_048, 4);
        let iters = 20;
        entries.push(measure(
            "micro/cache_hit",
            "micro",
            1,
            iters,
            mode,
            "accesses",
            &|| {
                for _ in 0..iters {
                    replay(&trace, 1);
                }
                iters * trace.len() as u64
            },
        ));
    }
    if wanted("micro/bus_arbitrate") {
        progress("micro/bus_arbitrate");
        // Eight PEs hammering a shared producer-consumer stream: bus
        // arbitration and invalidation traffic dominate.
        let trace = synthetic::producer_consumer(256, 8, 4);
        let iters = 20;
        entries.push(measure(
            "micro/bus_arbitrate",
            "micro",
            1,
            iters,
            mode,
            "accesses",
            &|| {
                for _ in 0..iters {
                    replay(&trace, 8);
                }
                iters * trace.len() as u64
            },
        ));
    }
    if wanted("micro/engine_step") {
        progress("micro/engine_step");
        // The heap-mix replay of `replay/heap-mix` over a memory that
        // answers at once: the engine's price per micro-step.
        let trace = synthetic::shared_heap_mix(8, 10_000, 30, 1 << 14, 7);
        let replayer = Replayer::from_merged(&trace, 8);
        let iters = 50;
        entries.push(measure(
            "micro/engine_step",
            "micro",
            1,
            iters,
            mode,
            "steps",
            &|| (0..iters).map(|_| replay_instant(&replayer)).sum::<u64>(),
        ));
    }
    if wanted("replay/heap-mix") {
        progress("replay/heap-mix");
        // The tracesim `--gen heap-mix` generator, at a fifth of its
        // length.
        let heap_mix = synthetic::shared_heap_mix(8, 10_000, 30, 1 << 14, 7);
        entries.push(measure(
            "replay/heap-mix",
            "macro",
            1,
            1,
            mode,
            "accesses",
            &|| {
                let _ = replay(&heap_mix, 8);
                heap_mix.len() as u64
            },
        ));
    }
    for (name, bench) in [
        ("table1/tri", Bench::Tri),
        ("table1/pascal", Bench::Pascal),
        ("table1/puzzle", Bench::Puzzle),
    ] {
        if !wanted(name) {
            continue;
        }
        progress(name);
        entries.push(measure(name, "macro", 1, 1, mode, "reductions", &|| {
            table1_run(bench)
        }));
    }
    if wanted("ckpt/save_restore") {
        progress("ckpt/save_restore");
        let trace = synthetic::shared_heap_mix(8, 5_000, 30, 1 << 14, 7);
        let iters = 5;
        entries.push(measure(
            "ckpt/save_restore",
            "macro",
            1,
            iters,
            mode,
            "bytes",
            &|| (0..iters).map(|_| ckpt_roundtrip(&trace, 8)).sum::<u64>(),
        ));
    }
    entries
}

/// Assembles the full suite document around measured entries.
pub fn document(mode: Mode, entries: &[Entry]) -> Json {
    let prov = pim_perf::provenance();
    let mut doc = Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("suite", Json::from("pimbench")),
        ("mode", Json::from(mode.label())),
        ("provenance", prov.to_json()),
    ]);
    doc.push("entries", Json::arr(entries.iter().map(Entry::to_json)));
    doc
}

/// Validates that `doc` is a well-formed `pim-bench/v1` document;
/// returns the number of entries. Checks exactly the fields `diff`
/// reads plus the identity fields the trajectory relies on.
pub fn validate(doc: &Json) -> Result<usize, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA:?}"));
    }
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err("missing entries array".into());
    };
    for (i, e) in entries.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing name"))?;
        for key in ["threads", "iters", "samples", "items"] {
            if e.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("entry {name}: missing numeric {key}"));
            }
        }
        if e.get("unit").and_then(Json::as_str).is_none() {
            return Err(format!("entry {name}: missing unit"));
        }
        match e.get("kind").and_then(Json::as_str) {
            Some("micro" | "macro") => {}
            _ => return Err(format!("entry {name}: kind is not micro|macro")),
        }
        let wall = e
            .get("wall_ns")
            .ok_or_else(|| format!("entry {name}: missing wall_ns"))?;
        for key in ["median", "min", "max"] {
            if wall.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("entry {name}: missing wall_ns.{key}"));
            }
        }
    }
    Ok(entries.len())
}

/// One row of a [`diff`] comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Benchmark name plus thread count, e.g. `replay/heap-mix @t1`.
    pub key: String,
    /// Median wall ns in the old document (`None` if newly added).
    pub old_ns: Option<u64>,
    /// Median wall ns in the new document (`None` if removed).
    pub new_ns: Option<u64>,
}

impl DiffRow {
    /// Signed percentage change of the median (positive = slower).
    pub fn change_pct(&self) -> Option<f64> {
        match (self.old_ns, self.new_ns) {
            (Some(old), Some(new)) if old > 0 => {
                Some(100.0 * (new as f64 - old as f64) / old as f64)
            }
            _ => None,
        }
    }
}

fn entry_key(e: &Json) -> Option<String> {
    let name = e.get("name").and_then(Json::as_str)?;
    let threads = e.get("threads").and_then(Json::as_u64)?;
    Some(format!("{name} @t{threads}"))
}

fn median_map(doc: &Json) -> Vec<(String, u64)> {
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let key = entry_key(e)?;
            let ns = e.get("wall_ns")?.get("median")?.as_u64()?;
            Some((key, ns))
        })
        .collect()
}

/// Compares two suite documents entry by entry, keyed on
/// `name @threads`; rows keep the old document's order, with added
/// entries appended in the new document's order.
pub fn diff(old: &Json, new: &Json) -> Vec<DiffRow> {
    let old_map = median_map(old);
    let new_map = median_map(new);
    let mut rows: Vec<DiffRow> = old_map
        .iter()
        .map(|(key, old_ns)| DiffRow {
            key: key.clone(),
            old_ns: Some(*old_ns),
            new_ns: new_map.iter().find(|(k, _)| k == key).map(|(_, ns)| *ns),
        })
        .collect();
    for (key, new_ns) in &new_map {
        if !old_map.iter().any(|(k, _)| k == key) {
            rows.push(DiffRow {
                key: key.clone(),
                old_ns: None,
                new_ns: Some(*new_ns),
            });
        }
    }
    rows
}

/// Renders a diff as an aligned table; `threshold_pct` flags the rows
/// counted as regressions. Returns `(rendered, regression_count)`.
pub fn render_diff(rows: &[DiffRow], threshold_pct: f64) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0;
    let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(0).max(9);
    out += &format!(
        "{:width$}  {:>12}  {:>12}  {:>9}\n",
        "benchmark", "old", "new", "change"
    );
    for row in rows {
        let cell = |ns: Option<u64>| match ns {
            Some(ns) => pim_perf::fmt_ns(ns as f64),
            None => "-".to_string(),
        };
        let (change, mark) = match row.change_pct() {
            Some(pct) if pct > threshold_pct => {
                regressions += 1;
                (format!("{pct:+.1}%"), "  REGRESSED")
            }
            Some(pct) => (format!("{pct:+.1}%"), ""),
            None => ("-".to_string(), ""),
        };
        out += &format!(
            "{:width$}  {:>12}  {:>12}  {:>9}{}\n",
            row.key,
            cell(row.old_ns),
            cell(row.new_ns),
            change,
            mark
        );
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with(medians: &[(&str, u64, u64)]) -> Json {
        let entries: Vec<Entry> = medians
            .iter()
            .map(|&(name, threads, ns)| Entry {
                name: Box::leak(name.to_string().into_boxed_str()),
                kind: "micro",
                threads: threads as usize,
                iters: 1,
                samples: 3,
                items: 100,
                unit: "accesses",
                wall_ns: (ns, ns, ns),
            })
            .collect();
        document(Mode::Quick, &entries)
    }

    #[test]
    fn quick_suite_measures_and_validates() {
        let entries = run(Mode::Quick, "micro/cache_hit", &|_| {});
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.name, "micro/cache_hit");
        assert!(e.items > 0);
        assert!(e.wall_ns.1 <= e.wall_ns.0 && e.wall_ns.0 <= e.wall_ns.2);
        let doc = document(Mode::Quick, &entries);
        assert_eq!(validate(&doc), Ok(1));
    }

    #[test]
    fn engine_step_runs_every_access_of_its_trace() {
        let trace = synthetic::shared_heap_mix(8, 500, 30, 1 << 14, 7);
        let steps = replay_instant(&Replayer::from_merged(&trace, 8));
        assert!(steps >= trace.len() as u64, "{steps} steps");
        let entries = run(Mode::Quick, "micro/engine_step", &|_| {});
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].unit, "steps");
        assert!(entries[0].items >= 50 * 10_000, "{}", entries[0].items);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&Json::obj([("schema", Json::from("nope"))])).is_err());
        let mut doc = Json::obj([("schema", Json::from(SCHEMA))]);
        assert!(validate(&doc).is_err(), "entries array is required");
        doc.push(
            "entries",
            Json::arr([Json::obj([("name", Json::from("x"))])]),
        );
        assert!(validate(&doc).is_err(), "entry fields are required");
    }

    #[test]
    fn diff_flags_synthetic_2x_regression() {
        let old = doc_with(&[("a", 1, 1_000_000), ("b", 2, 1_000_000)]);
        let new = doc_with(&[("a", 1, 2_000_000), ("b", 2, 1_050_000)]);
        let rows = diff(&old, &new);
        assert_eq!(rows.len(), 2);
        let (rendered, regressions) = render_diff(&rows, 50.0);
        assert_eq!(regressions, 1, "{rendered}");
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(rendered.contains("+100.0%"), "{rendered}");
    }

    #[test]
    fn diff_tracks_added_and_removed_entries() {
        let old = doc_with(&[("gone", 1, 500)]);
        let new = doc_with(&[("fresh", 1, 500)]);
        let rows = diff(&old, &new);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|r| r.key == "gone @t1" && r.new_ns.is_none()));
        assert!(rows
            .iter()
            .any(|r| r.key == "fresh @t1" && r.old_ns.is_none()));
        let (_, regressions) = render_diff(&rows, 50.0);
        assert_eq!(regressions, 0, "added/removed rows are not regressions");
    }

    #[test]
    fn improvements_never_count_as_regressions() {
        let old = doc_with(&[("a", 1, 2_000_000)]);
        let new = doc_with(&[("a", 1, 1_000_000)]);
        let (rendered, regressions) = render_diff(&diff(&old, &new), 50.0);
        assert_eq!(regressions, 0, "{rendered}");
        assert!(rendered.contains("-50.0%"), "{rendered}");
    }
}
