//! Workspace-level integration tests: the whole stack (language →
//! machine → engine → protocol) composed exactly as the README shows.

use kl1_machine::{Cluster, ClusterConfig};
use pim_cache::{OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, IllinoisSystem, MemorySystem};
use pim_trace::{MemOp, PeId, StorageArea};
use workloads::{Bench, Scale};

#[test]
fn readme_quickstart_flow_works() {
    let program = fghc::compile(
        "main(X) :- true | app([1,2], [3,4], X).
         app([], Y, Z)    :- true | Z = Y.
         app([H|T], Y, Z) :- true | Z = [H|W], app(T, Y, W).",
    )
    .expect("compiles");
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: 2,
            ..Default::default()
        },
    );
    cluster
        .set_query("main", vec![fghc::Term::Var("X".into())])
        .expect("query procedure exists");
    let system = PimSystem::new(SystemConfig {
        pes: 2,
        ..Default::default()
    });
    let mut engine = Engine::new(system, 2);
    let stats = engine
        .run(&mut cluster, 10_000_000)
        .expect("fault-free run");
    assert!(stats.finished);
    let answer = engine.with_port(PeId(0), |p| cluster.extract(p, "X").unwrap());
    assert_eq!(answer.to_string(), "[1,2,3,4]");
}

#[test]
fn the_headline_claim_holds_end_to_end() {
    // "Cache simulations indicate that these optimizations reduce bus
    // traffic by 40-50% with respect to an unoptimized system" — checked
    // here at small scale across the whole benchmark suite combined.
    let mut with_opt = 0u64;
    let mut without = 0u64;
    for bench in Bench::ALL {
        let a = workloads::runner::run_pim(
            bench,
            Scale::smoke(),
            SystemConfig {
                pes: 8,
                opt_mask: OptMask::all(),
                ..Default::default()
            },
        );
        let b = workloads::runner::run_pim(
            bench,
            Scale::smoke(),
            SystemConfig {
                pes: 8,
                opt_mask: OptMask::none(),
                ..Default::default()
            },
        );
        with_opt += a.bus.total_cycles();
        without += b.bus.total_cycles();
    }
    let ratio = with_opt as f64 / without as f64;
    assert!(
        (0.3..0.8).contains(&ratio),
        "suite-wide optimized/unoptimized traffic ratio {ratio:.2}"
    );
}

#[test]
fn every_storage_area_sees_its_designated_commands() {
    let report = workloads::runner::run_pim(
        Bench::Tri,
        Scale::smoke(),
        SystemConfig {
            pes: 8,
            ..Default::default()
        },
    );
    let refs = &report.refs;
    // DW creates heap structures and goal records.
    assert!(refs.count(StorageArea::Heap, MemOp::DirectWrite) > 0);
    assert!(refs.count(StorageArea::Goal, MemOp::DirectWrite) > 0);
    // ER/RP consume read-once goal and suspension records.
    assert!(refs.count(StorageArea::Goal, MemOp::ExclusiveRead) > 0);
    assert!(refs.count(StorageArea::Suspension, MemOp::ExclusiveRead) > 0);
    // RI reads the rewritten-in-place communication buffers.
    assert!(refs.count(StorageArea::Communication, MemOp::ReadInvalidate) > 0);
    // LR/UW guard variable bindings.
    assert!(refs.count(StorageArea::Heap, MemOp::LockRead) > 0);
    assert!(refs.count(StorageArea::Heap, MemOp::WriteUnlock) > 0);
}

#[test]
fn pim_and_illinois_agree_functionally_for_every_benchmark() {
    for bench in Bench::ALL {
        let a = workloads::runner::run_pim(
            bench,
            Scale::smoke(),
            SystemConfig {
                pes: 4,
                ..Default::default()
            },
        );
        let b = workloads::runner::run_illinois(
            bench,
            Scale::smoke(),
            SystemConfig {
                pes: 4,
                ..Default::default()
            },
        );
        // Both validated against the oracle inside the runner; assert the
        // cross-protocol agreement explicitly anyway.
        assert_eq!(a.answer, b.answer, "{}", bench.name());
    }
}

#[test]
fn illinois_system_is_also_a_memory_system_for_the_engine() {
    let program = fghc::compile("main :- true | halt.").unwrap();
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: 1,
            ..Default::default()
        },
    );
    cluster
        .set_query("main", vec![])
        .expect("query procedure exists");
    let system = IllinoisSystem::new(SystemConfig {
        pes: 1,
        ..Default::default()
    });
    let mut engine = Engine::new(system, 1);
    let stats = engine.run(&mut cluster, 100_000).expect("fault-free run");
    assert!(stats.finished);
    assert!(MemorySystem::ref_stats(engine.system()).total() > 0);
}

#[test]
fn simulated_time_is_bit_deterministic_across_runs() {
    let run = || {
        workloads::runner::run_pim(
            Bench::Pascal,
            Scale::smoke(),
            SystemConfig {
                pes: 8,
                ..Default::default()
            },
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.bus.total_cycles(), b.bus.total_cycles());
    assert_eq!(a.refs, b.refs);
}

#[test]
fn umbrella_crate_reexports_compose() {
    // The pim-repro facade exposes every crate.
    let map = pim_repro::pim_trace::AreaMap::standard();
    assert!(map.size(pim_repro::pim_trace::StorageArea::Heap) > 0);
    let g = pim_repro::pim_cache::CacheGeometry::paper_default();
    assert_eq!(g.data_words(), 4096);
    let t = pim_repro::pim_bus::BusTiming::paper_default();
    assert_eq!(t.cycles(pim_repro::pim_bus::Transaction::SwapOutOnly, 4), 5);
    assert_eq!(pim_repro::workloads::Bench::ALL.len(), 4);
}
