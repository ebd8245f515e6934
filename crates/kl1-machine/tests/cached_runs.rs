//! Full-stack tests: FGHC programs running through the pim-sim engine on
//! the real PIM cache system (and the Illinois baseline), checking both
//! functional answers and the qualitative traffic properties the paper's
//! optimizations rely on.

use fghc::Term;
use kl1_machine::{Cluster, ClusterConfig};
use pim_cache::{OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, IllinoisSystem};
use pim_trace::{MemOp, PeId, StorageArea};

const FIB: &str = "
    main(F) :- true | fib(12, F).
    fib(N, F) :- N < 2 | F = N.
    fib(N, F) :- N >= 2 |
        N1 := N - 1, N2 := N - 2,
        fib(N1, F1), fib(N2, F2), add(F1, F2, F).
    add(A, B, C) :- integer(A), integer(B) | C := A + B.
";

const STREAM: &str = "
    main(S) :- true | gen(60, L), sum(L, 0, S).
    gen(0, L) :- true | L = [].
    gen(N, L) :- N > 0 | L = [N|T], N1 := N - 1, gen(N1, T).
    sum([], A, S) :- true | S = A.
    sum([H|T], A, S) :- true | A1 := A + H, sum(T, A1, S).
";

fn run_on_pim(src: &str, pes: u32, mask: OptMask) -> (Cluster, Engine<PimSystem>) {
    let program = fghc::compile(src).expect("compiles");
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes,
            ..ClusterConfig::default()
        },
    );
    cluster
        .set_query("main", vec![Term::Var("R".into())])
        .expect("query procedure exists");
    let system = PimSystem::new(SystemConfig {
        pes,
        opt_mask: mask,
        ..SystemConfig::default()
    });
    let mut engine = Engine::new(system, pes);
    let stats = engine
        .run(&mut cluster, 500_000_000)
        .expect("fault-free run");
    assert!(stats.finished, "program did not finish");
    assert!(cluster.failure().is_none(), "{:?}", cluster.failure());
    (cluster, engine)
}

fn result_of(cluster: &Cluster, engine: &mut Engine<PimSystem>) -> Term {
    engine.with_port(PeId(0), |port| cluster.extract(port, "R").unwrap())
}

#[test]
fn fib_computes_correctly_on_the_pim_cache_with_8_pes() {
    let (cluster, mut engine) = run_on_pim(FIB, 8, OptMask::all());
    assert_eq!(result_of(&cluster, &mut engine), Term::Int(144));
    let sys = engine.system();
    sys.check_coherence_invariants().unwrap();
    // The machine exercised every command family.
    let refs = sys.ref_stats();
    assert!(refs.count(StorageArea::Heap, MemOp::DirectWrite) > 0);
    assert!(refs.count(StorageArea::Goal, MemOp::ExclusiveRead) > 0);
    assert!(refs.count(StorageArea::Heap, MemOp::LockRead) > 0);
    assert!(refs.count(StorageArea::Communication, MemOp::ReadInvalidate) > 0);
    assert!(sys.lock_stats().lr_total > 0);
}

#[test]
fn answers_agree_between_flat_and_cached_and_across_masks() {
    let program = fghc::compile(FIB).unwrap();
    let mut flat_cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: 2,
            ..Default::default()
        },
    );
    flat_cluster
        .set_query("main", vec![Term::Var("R".into())])
        .expect("query procedure exists");
    let flat_port = kl1_machine::run_flat(&mut flat_cluster, 50_000_000);
    let flat_answer = flat_cluster.extract(&flat_port, "R").unwrap();

    for mask in [OptMask::all(), OptMask::none()] {
        let (cluster, mut engine) = run_on_pim(FIB, 2, mask);
        assert_eq!(result_of(&cluster, &mut engine), flat_answer);
    }
}

#[test]
fn optimizations_reduce_bus_traffic() {
    let (_c1, engine_all) = run_on_pim(STREAM, 4, OptMask::all());
    let (_c2, engine_none) = run_on_pim(STREAM, 4, OptMask::none());
    let with_opt = engine_all.system().bus_stats().total_cycles();
    let without = engine_none.system().bus_stats().total_cycles();
    assert!(
        with_opt < without,
        "optimized {with_opt} should beat unoptimized {without}"
    );
}

#[test]
fn lock_operations_are_mostly_free_on_the_pim_cache() {
    let (_c, engine) = run_on_pim(STREAM, 4, OptMask::all());
    let ls = engine.system().lock_stats();
    assert!(ls.lr_total > 0);
    // Table 5's qualitative claim: the overwhelming majority of unlocks
    // find no waiter and cost no bus cycles.
    assert!(
        ls.unlock_no_waiter_ratio() > 0.9,
        "no-waiter ratio {}",
        ls.unlock_no_waiter_ratio()
    );
}

#[test]
fn same_answer_and_traffic_is_deterministic() {
    let (_c1, e1) = run_on_pim(STREAM, 4, OptMask::all());
    let (_c2, e2) = run_on_pim(STREAM, 4, OptMask::all());
    assert_eq!(
        e1.system().bus_stats().total_cycles(),
        e2.system().bus_stats().total_cycles(),
        "simulation must be bit-deterministic"
    );
    assert_eq!(e1.system().ref_stats(), e2.system().ref_stats());
}

#[test]
fn illinois_baseline_runs_the_same_program() {
    let program = fghc::compile(FIB).unwrap();
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: 4,
            ..Default::default()
        },
    );
    cluster
        .set_query("main", vec![Term::Var("R".into())])
        .expect("query procedure exists");
    let system = IllinoisSystem::new(SystemConfig {
        pes: 4,
        ..Default::default()
    });
    let mut engine = Engine::new(system, 4);
    let stats = engine
        .run(&mut cluster, 500_000_000)
        .expect("fault-free run");
    assert!(stats.finished);
    assert!(cluster.failure().is_none(), "{:?}", cluster.failure());
    let answer = engine.with_port(PeId(0), |port| cluster.extract(port, "R").unwrap());
    assert_eq!(answer, Term::Int(144));
}

#[test]
fn pim_touches_memory_less_than_illinois() {
    // The SM-state claim: with frequent cache-to-cache transfer, PIM
    // keeps shared-memory modules idler than a copyback-on-transfer
    // protocol.
    let program = fghc::compile(STREAM).unwrap();
    let mut c1 = Cluster::new(
        program.clone(),
        ClusterConfig {
            pes: 4,
            ..Default::default()
        },
    );
    c1.set_query("main", vec![Term::Var("R".into())])
        .expect("query procedure exists");
    let mut pim_engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes: 4,
            ..Default::default()
        }),
        4,
    );
    assert!(
        pim_engine
            .run(&mut c1, 500_000_000)
            .expect("fault-free run")
            .finished
    );

    let mut c2 = Cluster::new(
        program,
        ClusterConfig {
            pes: 4,
            ..Default::default()
        },
    );
    c2.set_query("main", vec![Term::Var("R".into())])
        .expect("query procedure exists");
    let mut ill_engine = Engine::new(
        IllinoisSystem::new(SystemConfig {
            pes: 4,
            ..Default::default()
        }),
        4,
    );
    assert!(
        ill_engine
            .run(&mut c2, 500_000_000)
            .expect("fault-free run")
            .finished
    );

    let pim_busy = pim_engine.system().bus_stats().memory_busy_cycles();
    let ill_busy = ill_engine.system().bus_stats().memory_busy_cycles();
    assert!(
        pim_busy < ill_busy,
        "PIM memory busy {pim_busy} should be below Illinois {ill_busy}"
    );
}

#[test]
fn one_or_two_lock_entries_suffice_as_the_paper_claims() {
    // Paper Section 3.1: "We think only one or two lock entry per
    // directory is needed in most parallel logic programming
    // architectures." The KL1 machine locks one variable at a time
    // (binding, hooking), so the high-water mark must stay at 1.
    for src in [FIB, STREAM] {
        let (_c, engine) = {
            let program = fghc::compile(src).unwrap();
            let mut cluster = Cluster::new(
                program,
                ClusterConfig {
                    pes: 4,
                    ..Default::default()
                },
            );
            cluster
                .set_query("main", vec![Term::Var("R".into())])
                .expect("query procedure exists");
            let mut engine = Engine::new(
                PimSystem::new(SystemConfig {
                    pes: 4,
                    ..SystemConfig::default()
                }),
                4,
            );
            let stats = engine
                .run(&mut cluster, 500_000_000)
                .expect("fault-free run");
            assert!(stats.finished);
            (cluster, engine)
        };
        let max = engine.system().lock_stats().max_simultaneous_locks;
        assert!(
            (1..=2).contains(&max),
            "lock-directory high water {max} exceeds the paper's 1-2 sizing"
        );
    }
}

#[test]
fn checkpoint_round_trip_reproduces_the_run() {
    // Uninterrupted reference run.
    let (cluster_ref, mut engine_ref) = run_on_pim(FIB, 4, OptMask::all());
    let answer_ref = result_of(&cluster_ref, &mut engine_ref);
    let machine_ref = cluster_ref.stats();
    let fp_ref = format!(
        "{:?}|{:?}|{:?}|{:?}",
        engine_ref.system().ref_stats(),
        engine_ref.system().access_stats(),
        engine_ref.system().lock_stats(),
        engine_ref.system().bus_stats()
    );

    let build = || {
        let program = fghc::compile(FIB).expect("compiles");
        let mut cluster = Cluster::new(
            program,
            ClusterConfig {
                pes: 4,
                ..ClusterConfig::default()
            },
        );
        cluster
            .set_query("main", vec![Term::Var("R".into())])
            .expect("query procedure exists");
        let engine = Engine::new(
            PimSystem::new(SystemConfig {
                pes: 4,
                ..SystemConfig::default()
            }),
            4,
        );
        (cluster, engine)
    };

    for pause_at in [100u64, 5_000, 50_000] {
        // Run up to the pause, snapshot engine + machine.
        let (mut cluster, mut engine) = build();
        let paused = engine.run(&mut cluster, pause_at).expect("fault-free run");
        if paused.finished {
            // Budget outlived the program; nothing left to resume.
            continue;
        }
        let mut w = pim_ckpt::Writer::new();
        engine.save_ckpt(&mut w);
        cluster.save_ckpt(&mut w);
        let payload = w.payload().to_vec();

        // Restore into freshly built objects and finish.
        let (mut cluster2, mut engine2) = build();
        let mut r = pim_ckpt::Reader::new(&payload);
        engine2.restore_ckpt(&mut r).expect("engine restores");
        cluster2.restore_ckpt(&mut r).expect("cluster restores");
        r.expect_end().expect("no trailing bytes");
        let stats = engine2
            .run(&mut cluster2, 500_000_000)
            .expect("fault-free run");
        assert!(stats.finished, "pause_at={pause_at}");
        assert!(cluster2.failure().is_none(), "{:?}", cluster2.failure());

        assert_eq!(
            result_of(&cluster2, &mut engine2),
            answer_ref,
            "pause_at={pause_at}"
        );
        assert_eq!(cluster2.stats(), machine_ref, "pause_at={pause_at}");
        let fp = format!(
            "{:?}|{:?}|{:?}|{:?}",
            engine2.system().ref_stats(),
            engine2.system().access_stats(),
            engine2.system().lock_stats(),
            engine2.system().bus_stats()
        );
        assert_eq!(fp, fp_ref, "pause_at={pause_at}");
    }
}

#[test]
fn checkpoint_refuses_a_different_program() {
    let (mut cluster, mut engine) = run_on_pim(STREAM, 2, OptMask::all());
    let mut w = pim_ckpt::Writer::new();
    engine.save_ckpt(&mut w);
    cluster.save_ckpt(&mut w);
    let payload = w.payload().to_vec();
    let _ = (&mut cluster, &mut engine);

    let program = fghc::compile(FIB).expect("compiles");
    let mut other = Cluster::new(
        program,
        ClusterConfig {
            pes: 2,
            ..ClusterConfig::default()
        },
    );
    let mut engine2 = Engine::new(
        PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        }),
        2,
    );
    let mut r = pim_ckpt::Reader::new(&payload);
    engine2
        .restore_ckpt(&mut r)
        .expect("engine state is program-agnostic");
    let err = other
        .restore_ckpt(&mut r)
        .expect_err("digest must catch the program swap");
    assert!(
        matches!(err, pim_ckpt::CkptError::Mismatch { .. }),
        "{err:?}"
    );
}

#[test]
fn makespan_improves_with_more_pes_for_parallel_work() {
    let (_c1, e1) = run_on_pim(FIB, 1, OptMask::all());
    let (_c8, e8) = run_on_pim(FIB, 8, OptMask::all());
    let t1 = {
        let clocks = e1.system(); // silence unused warnings via read
        let _ = clocks.bus_stats();
        e1.clock(PeId(0))
    };
    let t8 = (0..8).map(|i| e8.clock(PeId(i))).max().unwrap();
    assert!(
        t8 < t1,
        "8-PE makespan {t8} should beat 1-PE {t1} on a parallel benchmark"
    );
}
