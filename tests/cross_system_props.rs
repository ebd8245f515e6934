//! Property tests across the whole stack: for randomized inputs, the
//! flat port, the PIM cache (optimized and plain), and the Illinois
//! baseline must all compute identical answers — and the simulated
//! protocol must stay coherent throughout.

use kl1_machine::{Cluster, ClusterConfig};
use pim_cache::{OptMask, PimSystem, SystemConfig};
use pim_repro::report;
use pim_sim::{Engine, IllinoisSystem, MemorySystem, Replayer};
use pim_trace::{Access, PeId};
use proptest::prelude::*;
use workloads::{Bench, Scale};

const LIST_OPS: &str = "
    main(Xs, Ys, R) :- true |
        app(Xs, Ys, Zs), rev(Zs, [], Rz), len(Rz, 0, N),
        sum(Zs, 0, S), R = result(N, S, Rz).
    app([], Y, Z) :- true | Z = Y.
    app([H|T], Y, Z) :- true | Z = [H|W], app(T, Y, W).
    rev([], A, R) :- true | R = A.
    rev([H|T], A, R) :- true | rev(T, [H|A], R).
    len([], A, R) :- true | R = A.
    len([_|T], A, R) :- true | A1 := A + 1, len(T, A1, R).
    sum([], A, S) :- true | S = A.
    sum([H|T], A, S) :- integer(H) | A1 := A + H, sum(T, A1, S).
";

fn int_list(items: &[i64]) -> fghc::Term {
    fghc::Term::list(items.iter().map(|&i| fghc::Term::Int(i)).collect(), None)
}

fn run_flat_answer(xs: &[i64], ys: &[i64], pes: u32) -> fghc::Term {
    let program = fghc::compile(LIST_OPS).unwrap();
    let mut c = Cluster::new(
        program,
        ClusterConfig {
            pes,
            ..Default::default()
        },
    );
    c.set_query(
        "main",
        vec![int_list(xs), int_list(ys), fghc::Term::Var("R".into())],
    )
    .expect("query procedure exists");
    let port = kl1_machine::run_flat(&mut c, 500_000_000);
    c.extract(&port, "R").unwrap()
}

fn run_sys_answer<S: MemorySystem + 'static>(
    xs: &[i64],
    ys: &[i64],
    pes: u32,
    system: S,
) -> fghc::Term {
    let program = fghc::compile(LIST_OPS).unwrap();
    let mut c = Cluster::new(
        program,
        ClusterConfig {
            pes,
            ..Default::default()
        },
    );
    c.set_query(
        "main",
        vec![int_list(xs), int_list(ys), fghc::Term::Var("R".into())],
    )
    .expect("query procedure exists");
    let mut engine = Engine::new(system, pes);
    let stats = engine.run(&mut c, 500_000_000).expect("fault-free run");
    assert!(stats.finished);
    assert!(c.failure().is_none(), "{:?}", c.failure());
    engine.with_port(PeId(0), |p| c.extract(p, "R").unwrap())
}

// ---------------------------------------------------------------------
// Pinned replay reports.
//
// Each workload trace is replayed through the engine and the resulting
// `pim-repro/v1` report document is pinned by an FNV-1a digest:
// determinism down to the serialized artifact, not just the headline
// numbers. The digests are also the reports the workspace's former
// parallel engine produced at 1, 2, 4 and 8 worker threads, all
// byte-identical, so a replay that reproduces them matches every one.
// ---------------------------------------------------------------------

/// Captures the memory-access trace of a Table-1 benchmark run at smoke
/// scale.
fn capture_bench_trace(bench: Bench, pes: u32) -> Vec<Access> {
    let program = fghc::compile(bench.source()).unwrap();
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes,
            block_words: 4,
            ..Default::default()
        },
    );
    let (proc, args) = bench.query(Scale::smoke());
    cluster
        .set_query(proc, args)
        .expect("query procedure exists");
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..Default::default()
        }),
        pes,
    );
    engine.record_trace();
    let stats = engine
        .run(&mut cluster, 500_000_000)
        .expect("fault-free run");
    assert!(stats.finished, "{} did not finish", bench.name());
    assert!(cluster.failure().is_none(), "{:?}", cluster.failure());
    engine.take_trace()
}

/// The full serialized `pim-repro/v1` report of one replay (envelope,
/// memory statistics, and per-PE cycle accounts, in the stable pretty
/// form the CLI tools write to disk), digested with FNV-1a.
fn replay_report_digest(trace: &[Access], pes: u32) -> u64 {
    let mut replayer = Replayer::from_merged(trace, pes);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..Default::default()
        }),
        pes,
    );
    let stats = engine.run(&mut replayer, u64::MAX).expect("fault-free run");
    assert!(stats.finished);
    let mut doc = report::envelope("differential");
    doc.push(
        "memory",
        report::memory_json(engine.system(), stats.makespan),
    );
    doc.push("pe_cycles", pim_obs::pe_cycles_json(&stats.pe_cycles));
    pim_ckpt::fnv1a64(doc.to_string_pretty().as_bytes())
}

#[test]
fn table1_smoke_workloads_replay_identically_at_any_thread_count() {
    let pinned = [
        (Bench::Tri, 0x98ca_876d_042c_8ae4),
        (Bench::Semi, 0x87b2_37e9_6725_8f7d),
        (Bench::Puzzle, 0x504b_174d_1b84_5aeb),
        (Bench::Pascal, 0x611b_6952_a12e_0b98),
    ];
    assert_eq!(pinned.len(), Bench::ALL.len(), "every benchmark is pinned");
    for (bench, digest) in pinned {
        let pes = 4;
        let trace = capture_bench_trace(bench, pes);
        assert!(trace.len() > 1_000, "{} trace too small", bench.name());
        assert_eq!(
            replay_report_digest(&trace, pes),
            digest,
            "{}: replay report changed",
            bench.name()
        );
    }
}

#[test]
fn synthetic_traces_replay_identically_at_any_thread_count() {
    let pes = 8;
    let traces: Vec<(&str, Vec<Access>, u64)> = vec![
        (
            "producer-consumer",
            workloads::synthetic::producer_consumer(512, 8, 4),
            0x09e5_d114_f020_1436,
        ),
        (
            "heap-mix",
            workloads::synthetic::shared_heap_mix(pes, 20_000, 30, 1 << 14, 7),
            0xe5c6_a398_818a_41cf,
        ),
        (
            "lock-churn",
            workloads::synthetic::lock_churn(pes, 2_000, 10, 7),
            0xeed1_9e94_7047_43ca,
        ),
        (
            "aurora",
            workloads::synthetic::aurora_like(pes, 5_000, 1989),
            0xb969_aafc_0d44_d9c2,
        ),
    ];
    for (name, trace, digest) in traces {
        let pes = 1 + trace.iter().map(|a| a.pe.0).max().unwrap_or(0);
        assert_eq!(
            replay_report_digest(&trace, pes),
            digest,
            "{name}: replay report changed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_memory_systems_agree_on_random_inputs(
        xs in proptest::collection::vec(-50i64..50, 0..12),
        ys in proptest::collection::vec(-50i64..50, 0..12),
        pes in 1u32..5,
    ) {
        // Reference semantics from plain Rust.
        let mut zs: Vec<i64> = xs.clone();
        zs.extend(&ys);
        let n = zs.len() as i64;
        let s: i64 = zs.iter().sum();
        let want_rev: Vec<i64> = zs.iter().rev().copied().collect();

        let flat = run_flat_answer(&xs, &ys, pes);
        let expected = fghc::Term::Struct(
            "result".into(),
            vec![
                fghc::Term::Int(n),
                fghc::Term::Int(s),
                int_list(&want_rev),
            ],
        );
        prop_assert_eq!(&flat, &expected);

        let pim = run_sys_answer(
            &xs,
            &ys,
            pes,
            PimSystem::new(SystemConfig { pes, ..Default::default() }),
        );
        prop_assert_eq!(&pim, &expected);

        let plain = run_sys_answer(
            &xs,
            &ys,
            pes,
            PimSystem::new(SystemConfig {
                pes,
                opt_mask: OptMask::none(),
                ..Default::default()
            }),
        );
        prop_assert_eq!(&plain, &expected);

        let illinois = run_sys_answer(
            &xs,
            &ys,
            pes,
            IllinoisSystem::new(SystemConfig { pes, ..Default::default() }),
        );
        prop_assert_eq!(&illinois, &expected);
    }

    #[test]
    fn gc_preserves_answers_on_random_inputs(
        xs in proptest::collection::vec(0i64..50, 0..10),
        ys in proptest::collection::vec(0i64..50, 0..10),
    ) {
        let program = fghc::compile(LIST_OPS).unwrap();
        let mut c = Cluster::new(
            program,
            ClusterConfig {
                pes: 2,
                // Tiny semispaces: collections happen constantly.
                heap_semispace_words: Some(512),
                ..Default::default()
            },
        );
        c.set_query(
            "main",
            vec![int_list(&xs), int_list(&ys), fghc::Term::Var("R".into())],
        ).expect("query procedure exists");
        let port = kl1_machine::run_flat(&mut c, 500_000_000);
        let got = c.extract(&port, "R").unwrap();
        let baseline = run_flat_answer(&xs, &ys, 2);
        prop_assert_eq!(got, baseline);
    }
}
