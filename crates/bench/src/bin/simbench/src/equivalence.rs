//! `simbench` assembles each unit from public calls so that set-up can be
//! timed. These tests show the assembly simulates exactly what the
//! workspace's own harnesses do, and that the traced pass's wrappers are
//! passive.

use crate::digest::{first_difference, SimResult};
use crate::span::{self, Layer};
use crate::workload::{inputs, run_unit, tri_scale, Inputs, Workload, DEFAULT_SEED, PES};
use bench::experiments::base_config;
use pim_cache::OptMask;
use workloads::runner::{run_cell, run_pim_profiled, CellControl, RunReport};
use workloads::Bench;

fn sim_result(r: RunReport) -> SimResult {
    SimResult {
        answer: Some(r.answer),
        machine: Some(r.machine),
        makespan: r.makespan,
        pe_cycles: r.pe_cycles,
        bus: r.bus,
        refs: r.refs,
        access: r.access,
        locks: r.locks,
        metrics: r.metrics,
    }
}

#[test]
fn grid_cells_match_the_sweep_cell_runner() {
    let Inputs::Kl1(cells) = inputs(Workload::Kl1Grid, DEFAULT_SEED) else {
        panic!("kl1-grid runs KL1 cells");
    };
    let unit = run_unit(&Inputs::Kl1(cells.clone()), false);
    assert_eq!(unit.error, None);
    let want: Vec<_> = cells
        .iter()
        .map(|c| {
            let config = base_config(PES, OptMask::all());
            let report = run_cell(
                c.protocol,
                c.bench,
                c.scale,
                config,
                &CellControl::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", c.label()));
            sim_result(report).digest(&c.label())
        })
        .collect();
    assert_eq!(first_difference(&unit.cells, &want), None);
}

#[test]
fn tri_matches_the_profiled_table1_runner() {
    let unit = run_unit(&inputs(Workload::Kl1TriProfiled, DEFAULT_SEED), false);
    assert_eq!(unit.error, None);
    let report = run_pim_profiled(Bench::Tri, tri_scale(), base_config(PES, OptMask::all()));
    assert!(
        report.metrics.is_some(),
        "the profiled runner collects metrics"
    );
    let want = vec![sim_result(report).digest("Tri/pim")];
    assert_eq!(first_difference(&unit.cells, &want), None);
}

#[test]
fn traced_units_simulate_exactly_what_untraced_ones_do() {
    for w in Workload::ALL {
        let inputs = inputs(w, 7);
        let plain = run_unit(&inputs, false);
        span::calibrate();
        let traced = run_unit(&inputs, true);
        let recorded = span::take();
        assert_eq!(
            (&plain.error, &traced.error),
            (&None, &None),
            "{}",
            w.name()
        );
        assert_eq!(
            first_difference(&traced.cells, &plain.cells),
            None,
            "{}",
            w.name()
        );
        assert!(
            recorded.steps.total() > 0,
            "{}: the process was timed",
            w.name()
        );
        let accesses = [Layer::PimCache, Layer::Illinois]
            .map(|l| recorded.layer(l).calls)
            .iter()
            .sum::<u64>();
        assert!(
            accesses >= traced.refs,
            "{}: every reference is a timed access",
            w.name()
        );
    }
}
