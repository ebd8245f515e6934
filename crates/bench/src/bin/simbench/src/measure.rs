//! One workload's measurement: warm-up, the untraced closed-loop pass,
//! the traced pass, verification of every unit, and the metrics.

use crate::alloc::peak_heap_bytes;
use crate::digest::{first_difference, CellDigest};
use crate::span::{self, Layer, Recorded};
use crate::stats;
use crate::workload::{inputs, run_unit, Unit, Workload, DEFAULT_SEED};
use std::time::{Duration, Instant};

/// A metric as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn unbounded(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off. The time bounds are
/// what this benchmark's run-to-run spread supports on a shared 2-vCPU
/// host (see README.md); `setup_s` must keep the largest.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("refs_per_s", "1/s", "higher", 0.20),
    e2e("run_s_p50", "s", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
    // The replay workloads' peak moves in 1 MiB steps from seed to seed.
    e2e("peak_heap_mib", "MiB", "lower", 0.10),
    // Any failed unit lowers it by more than this: a run has < 1000 units.
    e2e("verified_ratio", "ratio", "higher", 0.001),
];

/// End-to-end metrics reported with every run but given no bound: across
/// runs on a shared host the tail moves more than any bound could allow
/// (see README.md).
pub const REPORTED: [MetricDef; 1] = [unbounded("run_s_p90", "s", "lower")];

/// Per-layer metrics from the traced pass (per-unit means unless noted).
pub const PER_LAYER: [MetricDef; 34] = [
    unbounded("setup.translate_s", "s", "lower"),
    unbounded("setup.process_s", "s", "lower"),
    unbounded("setup.system_s", "s", "lower"),
    unbounded("process.step_self_s", "s", "lower"),
    unbounded("process.ns_per_step", "ns", "lower"),
    unbounded("process.steps", "count", "lower"),
    unbounded("process.useful_step_ratio", "ratio", "higher"),
    unbounded("process.stalled_steps", "count", "lower"),
    unbounded("process.allocs_per_step", "allocs/step", "lower"),
    unbounded("kl1-machine.reductions", "count", "lower"),
    unbounded("kl1-machine.suspensions", "count", "lower"),
    unbounded("memsys.access_self_s", "s", "lower"),
    unbounded("memsys.ns_per_access", "ns", "lower"),
    unbounded("memsys.accesses", "count", "lower"),
    unbounded("memsys.allocs_per_access", "allocs/access", "lower"),
    unbounded("pim-cache.access_self_s", "s", "lower"),
    unbounded("pim-cache.ns_per_access", "ns", "lower"),
    unbounded("pim-cache.accesses", "count", "lower"),
    unbounded("pim-cache.miss_ratio", "ratio", "lower"),
    unbounded("pim-cache.lr_free_ratio", "ratio", "higher"),
    unbounded("pim-sim.illinois.accesses", "count", "lower"),
    unbounded("pim-sim.engine_self_s", "s", "lower"),
    unbounded("pim-sim.ns_per_step", "ns", "lower"),
    unbounded("pim-obs.events", "count", "lower"),
    unbounded("pim-obs.callback_share", "ratio", "lower"),
    unbounded("pim-bus.bus_cycles", "cycles", "lower"),
    unbounded("pim-bus.memory_busy_cycles", "cycles", "lower"),
    unbounded("pim-sim.makespan_cycles", "cycles", "lower"),
    unbounded("pim-sim.busy_cycles", "cycles", "lower"),
    unbounded("pim-sim.bus_wait_cycles", "cycles", "lower"),
    unbounded("pim-sim.lock_wait_cycles", "cycles", "lower"),
    unbounded("pim-sim.idle_cycles", "cycles", "lower"),
    unbounded("trace.span_cost_ns", "ns", "lower"),
    unbounded("trace.overhead_ratio", "ratio", "lower"),
];

/// Untimed units run before the measured pass.
pub const WARMUP_UNITS: usize = 2;
/// Measured units needed for `run_s_p90`: ten samples lie beyond it.
pub const MIN_UNITS: usize = 100;
/// Units in the traced pass.
pub const TRACED_UNITS: usize = 3;
/// The percentile of per-unit rates `refs_per_s` reports: at least ten
/// of 100 units ran faster, and host contention, which only ever slows a
/// unit, touches the fastest units least.
const RATE_PERCENTILE: u32 = 90;
/// The measured pass stops here even short of [`MIN_UNITS`], so a run
/// ends well within three minutes on a slow host.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Host seconds the measured pass lasts at least (`run_seconds` of
    /// `BENCHMARK.json` when run as its command).
    pub seconds: f64,
    /// Two measured units, no warm-up, one traced unit, no percentile.
    pub quick: bool,
    /// Whether to run the traced pass.
    pub trace: bool,
}

/// The result of [`measure`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Units run and verified, warm-up and traced ones included.
    pub attempted: u64,
    /// Units that failed verification.
    pub failed: u64,
    /// The first failure's diagnostic.
    pub first_failure: Option<String>,
    /// Measured (untraced) units.
    pub samples: usize,
    /// The highest percentile with ten samples beyond it.
    pub tail_percentile: Option<u32>,
    /// End-to-end metrics, [`END_TO_END`] and [`REPORTED`] (`run_s_p90`,
    /// omitted in quick mode).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics in [`PER_LAYER`] order; empty without tracing.
    pub per_layer: Vec<(&'static str, f64)>,
}

/// Checks every unit: no error, the golden digest where one applies, and
/// the same digest as the first unit of the run.
struct Verifier {
    golden: Option<Vec<CellDigest>>,
    first: Option<Vec<CellDigest>>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Verifier {
    fn new(golden: Option<Vec<CellDigest>>) -> Verifier {
        Verifier {
            golden,
            first: None,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn check(&mut self, unit: &Unit) {
        self.attempted += 1;
        let failure = unit.error.clone().or_else(|| {
            let golden = self.golden.as_ref();
            golden
                .and_then(|g| first_difference(&unit.cells, g))
                .map(|d| format!("golden digest mismatch: {d}"))
                .or_else(|| {
                    let first = self.first.get_or_insert_with(|| unit.cells.clone());
                    first_difference(&unit.cells, first)
                        .map(|d| format!("digest differs from the run's first unit: {d}"))
                })
        });
        if let Some(f) = failure {
            self.failed += 1;
            self.first_failure.get_or_insert(f);
        }
    }
}

/// The golden digest of `workload` at `seed`, when one applies: at the
/// default seed, and at every seed for workloads the seed does not change.
pub fn golden(workload: Workload, seed: u64) -> Option<Vec<CellDigest>> {
    if workload.seeded() && seed != DEFAULT_SEED {
        return None;
    }
    let text = crate::golden::DIGESTS
        .iter()
        .find(|(name, _)| *name == workload.name())?
        .1;
    match crate::digest::parse(text) {
        Ok(cells) => Some(cells),
        Err(e) => panic!("golden.rs entry for {} is malformed: {e}", workload.name()),
    }
}

/// Runs the measurement `opts` describes.
pub fn measure(opts: &Options) -> Outcome {
    let inputs = inputs(opts.workload, opts.seed);
    let mut verifier = Verifier::new(golden(opts.workload, opts.seed));
    let warmup = if opts.quick { 0 } else { WARMUP_UNITS };
    for _ in 0..warmup {
        verifier.check(&run_unit(&inputs, false));
    }
    let start = Instant::now();
    let mut measured = Vec::new();
    loop {
        let unit = run_unit(&inputs, false);
        verifier.check(&unit);
        // Keep the timings only: holding every digest would make the
        // peak heap grow with the number of units.
        measured.push(Unit {
            cells: Vec::new(),
            ..unit
        });
        if measured_enough(opts, measured.len(), start.elapsed()) {
            break;
        }
    }
    let heap_mib = peak_heap_bytes() as f64 / f64::from(1u32 << 20);
    let mut end_to_end = end_to_end(&measured, heap_mib, opts.quick);
    let per_layer = if opts.trace {
        let span_cost = span::calibrate();
        let traced_units = if opts.quick { 1 } else { TRACED_UNITS };
        let traced: Vec<Unit> = (0..traced_units)
            .map(|_| {
                let unit = run_unit(&inputs, true);
                verifier.check(&unit);
                unit
            })
            .collect();
        per_layer(&measured, &traced, &span::take(), span_cost)
    } else {
        Vec::new()
    };
    let verified = verifier.attempted - verifier.failed;
    end_to_end.push((
        "verified_ratio",
        ratio(verified as f64, verifier.attempted as f64),
    ));
    Outcome {
        attempted: verifier.attempted,
        failed: verifier.failed,
        first_failure: verifier.first_failure,
        samples: measured.len(),
        tail_percentile: stats::tail_percentile(measured.len()),
        end_to_end,
        per_layer,
    }
}

/// Whether the measured pass has `units` units after `elapsed`: in quick
/// mode two; otherwise `opts.seconds` and [`MIN_UNITS`], or the cap.
fn measured_enough(opts: &Options, units: usize, elapsed: Duration) -> bool {
    let seconds = Duration::from_secs_f64(opts.seconds);
    if opts.quick {
        units >= 2
    } else {
        (elapsed >= seconds && units >= MIN_UNITS) || elapsed >= MAX_MEASURE.max(seconds)
    }
}

/// The end-to-end metrics but `verified_ratio`, which also counts the
/// traced units.
fn end_to_end(measured: &[Unit], heap_mib: f64, quick: bool) -> Vec<(&'static str, f64)> {
    let mut run: Vec<f64> = measured.iter().map(Unit::run_s).collect();
    run.sort_by(f64::total_cmp);
    let setup: Vec<f64> = measured.iter().map(Unit::setup_s).collect();
    let mut rates: Vec<f64> = measured
        .iter()
        .map(|u| ratio(u.refs as f64, u.run_s()))
        .collect();
    rates.sort_by(f64::total_cmp);
    let mut out = vec![
        (
            "refs_per_s",
            stats::percentile(&rates, RATE_PERCENTILE).unwrap_or(0.0),
        ),
        ("run_s_p50", stats::median(&run).unwrap_or(0.0)),
    ];
    if !quick {
        out.push(("run_s_p90", stats::percentile(&run, 90).unwrap_or(0.0)));
    }
    out.push(("setup_s", stats::median(&setup).unwrap_or(0.0)));
    out.push(("peak_heap_mib", heap_mib));
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the `traced` units, whose spans `rec` holds.
fn per_layer(
    measured: &[Unit],
    traced: &[Unit],
    rec: &Recorded,
    span_cost: f64,
) -> Vec<(&'static str, f64)> {
    let n = traced.len() as f64;
    let setup = |phase: usize| {
        let v: Vec<f64> = measured
            .iter()
            .map(|u| u.setup_ns[phase] as f64 / 1e9)
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let per_unit_s = |ns: u64| ns as f64 / 1e9 / n;
    let steps = rec.steps.total() as f64;
    let process = rec.layer(Layer::Process);
    let engine = rec.layer(Layer::Engine);
    let pim = rec.layer(Layer::PimCache);
    let illinois = rec.layer(Layer::Illinois);
    let observer = rec.layer(Layer::Observer);
    let memsys_ns = pim.self_ns + illinois.self_ns;
    let memsys_calls = (pim.calls + illinois.calls) as f64;
    let memsys_allocs = (pim.self_allocs + illinois.self_allocs) as f64;
    let traced_run_s: f64 = traced.iter().map(Unit::run_s).sum();
    let untraced: Vec<f64> = measured.iter().map(Unit::run_s).collect();
    let untraced_p50 = stats::median(&untraced).unwrap_or(0.0);
    // Simulated counts repeat exactly in every unit; take the first.
    let sim = |field: &str, suffix: &str| traced.first().map_or(0, |u| u.sum(field, suffix)) as f64;
    vec![
        (
            "setup.translate_s",
            setup(crate::workload::phase::TRANSLATE),
        ),
        ("setup.process_s", setup(crate::workload::phase::PROCESS)),
        ("setup.system_s", setup(crate::workload::phase::SYSTEM)),
        ("process.step_self_s", per_unit_s(process.self_ns)),
        ("process.ns_per_step", ratio(process.self_ns as f64, steps)),
        ("process.steps", steps / n),
        (
            "process.useful_step_ratio",
            ratio(rec.steps.ran as f64, steps),
        ),
        ("process.stalled_steps", rec.steps.stalled as f64 / n),
        (
            "process.allocs_per_step",
            ratio(process.self_allocs as f64, steps),
        ),
        ("kl1-machine.reductions", sim("machine.reductions", "")),
        ("kl1-machine.suspensions", sim("machine.suspensions", "")),
        ("memsys.access_self_s", per_unit_s(memsys_ns)),
        (
            "memsys.ns_per_access",
            ratio(memsys_ns as f64, memsys_calls),
        ),
        ("memsys.accesses", memsys_calls / n),
        (
            "memsys.allocs_per_access",
            ratio(memsys_allocs, memsys_calls),
        ),
        ("pim-cache.access_self_s", per_unit_s(pim.self_ns)),
        (
            "pim-cache.ns_per_access",
            ratio(pim.self_ns as f64, pim.calls as f64),
        ),
        ("pim-cache.accesses", pim.calls as f64 / n),
        (
            "pim-cache.miss_ratio",
            1.0 - ratio(sim("access.hits", "/pim"), sim("access.lookups", "/pim")),
        ),
        (
            "pim-cache.lr_free_ratio",
            ratio(
                sim("locks.lr_hits_exclusive", "/pim"),
                sim("locks.lr_total", "/pim"),
            ),
        ),
        ("pim-sim.illinois.accesses", illinois.calls as f64 / n),
        ("pim-sim.engine_self_s", per_unit_s(engine.self_ns)),
        ("pim-sim.ns_per_step", ratio(engine.self_ns as f64, steps)),
        ("pim-obs.events", observer.calls as f64 / n),
        (
            "pim-obs.callback_share",
            ratio(observer.self_ns as f64 / 1e9, traced_run_s),
        ),
        ("pim-bus.bus_cycles", sim("bus_cycles", "")),
        ("pim-bus.memory_busy_cycles", sim("memory_busy_cycles", "")),
        ("pim-sim.makespan_cycles", sim("makespan", "")),
        ("pim-sim.busy_cycles", sim("pe.busy", "")),
        ("pim-sim.bus_wait_cycles", sim("pe.bus_wait", "")),
        ("pim-sim.lock_wait_cycles", sim("pe.lock_wait", "")),
        ("pim-sim.idle_cycles", sim("pe.idle", "")),
        ("trace.span_cost_ns", span_cost),
        (
            "trace.overhead_ratio",
            ratio(traced_run_s / n, untraced_p50),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(makespan: u64) -> Unit {
        Unit {
            cells: vec![CellDigest {
                cell: "replay/pim".into(),
                fields: vec![("makespan".into(), makespan)],
            }],
            ..Unit::default()
        }
    }

    #[test]
    fn golden_mismatches_and_errors_count_as_failures() {
        let mut v = Verifier::new(Some(unit(7).cells));
        v.check(&unit(7));
        v.check(&unit(8));
        v.check(&Unit {
            error: Some("wrong answer".into()),
            ..unit(7)
        });
        assert_eq!((v.attempted, v.failed), (3, 2));
        assert_eq!(
            v.first_failure.as_deref(),
            Some("golden digest mismatch: replay/pim makespan: got 8, want 7")
        );
    }

    #[test]
    fn without_a_golden_digest_units_must_agree_with_the_first() {
        let mut v = Verifier::new(None);
        v.check(&unit(7));
        v.check(&unit(7));
        v.check(&unit(8));
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert_eq!(
            v.first_failure.as_deref(),
            Some("digest differs from the run's first unit: replay/pim makespan: got 8, want 7")
        );
    }

    #[test]
    fn the_measured_pass_lasts_the_given_seconds_and_min_units() {
        let opts = |seconds, quick| Options {
            workload: Workload::ReplayAurora,
            seed: DEFAULT_SEED,
            seconds,
            quick,
            trace: false,
        };
        let s = Duration::from_secs;
        assert!(!measured_enough(&opts(5.0, false), MIN_UNITS, s(4)));
        assert!(!measured_enough(&opts(5.0, false), MIN_UNITS - 1, s(6)));
        assert!(measured_enough(&opts(5.0, false), MIN_UNITS, s(5)));
        assert!(!measured_enough(&opts(30.0, false), MIN_UNITS, s(29)));
        // The cap ends a pass on a host too slow for MIN_UNITS...
        assert!(measured_enough(&opts(5.0, false), 3, MAX_MEASURE));
        // ...but never before the asked-for seconds.
        assert!(!measured_enough(&opts(200.0, false), MIN_UNITS, s(150)));
        assert!(measured_enough(&opts(25.0, true), 2, s(0)));
        assert!(!measured_enough(&opts(25.0, true), 1, s(60)));
    }

    #[test]
    fn refs_per_s_is_the_rate_of_the_fastest_tenth() {
        // 100 units of 1000 refs taking 1..=100 ms: the ten of 1..=10 ms
        // lie beyond the 11 ms unit's rate.
        let measured: Vec<Unit> = (1..=100)
            .map(|ms| Unit {
                run_ns: ms * 1_000_000,
                refs: 1_000,
                ..Unit::default()
            })
            .collect();
        let metrics = end_to_end(&measured, 1.0, false);
        let get = |name| metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
        assert_eq!(get("refs_per_s"), Some(1_000.0 / 0.011));
        assert_eq!(get("run_s_p50"), Some(0.0505));
        assert_eq!(get("run_s_p90"), Some(0.090));
    }

    #[test]
    fn golden_digests_apply_at_the_default_seed_and_to_unseeded_workloads() {
        for w in Workload::ALL {
            assert!(golden(w, DEFAULT_SEED).is_some(), "{}", w.name());
            assert_eq!(golden(w, 5).is_some(), !w.seeded(), "{}", w.name());
        }
    }
}
