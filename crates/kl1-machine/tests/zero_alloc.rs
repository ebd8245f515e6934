//! A warm KL1 step allocates nothing.
//!
//! This test binary installs `pim-perf`'s counting allocator and runs a
//! loop that spawns a goal, builds a structure and loads a goal record
//! on every iteration. A first run on the same `FlatPort` touches every
//! memory page the second run uses. The second run's steps, after a
//! warm-up, sit inside one `pim-perf` span whose allocation count must
//! be zero.

use fghc::instr::Instr;
use fghc::Term;
use kl1_machine::{Cluster, ClusterConfig, FlatPort};
use pim_perf::Profiler;
use pim_trace::{MemOp, PeId, Process, StepOutcome, StorageArea};

#[global_allocator]
static ALLOC: pim_perf::CountingAlloc = pim_perf::CountingAlloc;

/// `loop/2` spawns itself and continues in `mk/2`, which builds an
/// `f/2` structure and binds it; the next iteration starts by loading
/// the spawned goal record.
const LOOP: &str = "
    main(R) :- true | loop(400, R).
    loop(0, R) :- true | R = done.
    loop(N, R) :- N > 0 | N1 := N - 1, loop(N1, R), mk(f(N, N1), _).
    mk(S, X) :- true | X = S.
";

const PES: u32 = 2;

fn cluster() -> Cluster {
    let program = fghc::compile(LOOP).expect("compiles");
    let has = |f: fn(&Instr) -> bool| program.code.iter().any(f);
    assert!(has(|i| matches!(i, Instr::Spawn { .. })));
    assert!(has(|i| matches!(i, Instr::PutStruct { .. })));
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: PES,
            ..ClusterConfig::default()
        },
    );
    cluster
        .set_query("main", vec![Term::Var("R".into())])
        .expect("query procedure exists");
    cluster
}

/// Steps the PEs round robin until the cluster finishes or `steps`
/// steps have run; returns whether it finished.
fn run(cluster: &mut Cluster, port: &mut FlatPort, steps: u64) -> bool {
    for k in 0..steps {
        let pe = PeId((k % u64::from(PES)) as u32);
        port.set_pe(pe);
        if cluster.step(pe, port) == StepOutcome::Finished {
            return true;
        }
    }
    false
}

/// Allocations made by `f` on this thread, read from a `pim-perf` span
/// around it.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let profiler = Profiler::new();
    profiler.enable();
    // A first span sets up this thread's span stack, so the measured
    // span's own bookkeeping allocates nothing.
    drop(profiler.span("warm-up"));
    {
        let _span = profiler.span("kl1 steps");
        f();
    }
    let report = profiler.snapshot();
    assert!(report.alloc_counting, "the counting allocator is installed");
    report
        .phases
        .iter()
        .find(|p| p.name == "kl1 steps")
        .expect("the span closed")
        .allocs
}

#[test]
fn warm_kl1_steps_allocate_nothing() {
    let mut port = FlatPort::new(PES);
    assert!(
        run(&mut cluster(), &mut port, 1_000_000),
        "first run finishes"
    );

    let mut cluster = cluster();
    assert!(!run(&mut cluster, &mut port, 2_000), "warm-up leaves work");
    let before = port.stats();
    let mut finished = false;
    let allocs = allocations_in(|| finished = run(&mut cluster, &mut port, 1_000_000));
    assert!(finished, "second run finishes");
    assert!(cluster.failure().is_none(), "{:?}", cluster.failure());

    let after = port.stats();
    let grew = |area, op| after.count(area, op) > before.count(area, op);
    // Spawned goal records are written, and loaded read-once.
    assert!(grew(StorageArea::Goal, MemOp::DirectWrite));
    assert!(grew(StorageArea::Goal, MemOp::ExclusiveRead));
    // Structures are built on the heap.
    assert!(grew(StorageArea::Heap, MemOp::DirectWrite));
    assert_eq!(allocs, 0, "the warm KL1 steps allocated");
}
