//! Fault-injection property tests: fuzzed fault plans over
//! lock-disciplined traces must always recover, preserve coherence
//! invariants and the per-PE cycle accounts, reproduce bit-for-bit, and
//! account every injected fault in both the engine counters and the
//! observability layer. Plus directed tests for the deadlock detector
//! and the livelock watchdog.

use pim_cache::{PimSystem, SystemConfig};
use pim_fault::{FaultConfig, FaultPlan, FaultStats};
use pim_obs::SharedMetrics;
use pim_sim::{Engine, Replayer, RunStats, SimError};
use pim_trace::{Access, AreaMap, MemOp, PeId, StorageArea};
use proptest::prelude::*;

/// Builds a lock-disciplined trace (no hold-and-wait, every lock
/// released): replays always terminate, so any hang or invariant break
/// is the fault machinery's doing. Data words live in blocks 1+ and
/// lock words in block 0, so a lock holder is never refused (lock
/// refusals are block-granular) and never blocks.
fn disciplined_trace(pes: u32, items: Vec<(u32, u8, u64)>) -> Vec<Access> {
    let map = AreaMap::standard();
    let heap = map.base(StorageArea::Heap);
    let mut held: Vec<Option<u64>> = vec![None; pes as usize];
    let mut streams: Vec<Vec<Access>> = vec![Vec::new(); pes as usize];
    let push = |streams: &mut Vec<Vec<Access>>, pe: u32, op: MemOp, addr: u64| {
        streams[pe as usize].push(Access::new(PeId(pe), op, addr, StorageArea::Heap));
    };
    for (pe, kind, word) in items {
        let i = pe as usize;
        let addr = heap + (4 + word % 64) * 4;
        let lock_addr = heap + (word % 3) * 4;
        match kind {
            0..=3 => push(&mut streams, pe, MemOp::Read, addr),
            4..=6 => push(&mut streams, pe, MemOp::Write, addr),
            7 => push(&mut streams, pe, MemOp::DirectWrite, addr),
            8 => push(&mut streams, pe, MemOp::ExclusiveRead, addr),
            9 => push(&mut streams, pe, MemOp::ReadPurge, addr),
            10 | 11 => match held[i] {
                None => {
                    push(&mut streams, pe, MemOp::LockRead, lock_addr);
                    held[i] = Some(lock_addr);
                }
                Some(l) => {
                    let op = if kind == 10 {
                        MemOp::WriteUnlock
                    } else {
                        MemOp::Unlock
                    };
                    push(&mut streams, pe, op, l);
                    held[i] = None;
                }
            },
            _ => push(&mut streams, pe, MemOp::ReadInvalidate, addr),
        }
    }
    for (i, h) in held.iter().enumerate() {
        if let Some(l) = *h {
            push(&mut streams, i as u32, MemOp::Unlock, l);
        }
    }
    streams.concat()
}

fn fingerprint(sys: &PimSystem) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        sys.ref_stats(),
        sys.access_stats(),
        sys.lock_stats(),
        sys.bus_stats()
    )
}

struct FaultyRun {
    stats: RunStats,
    fp: String,
    faults: FaultStats,
    metrics: pim_obs::Metrics,
}

fn replay_with_faults(trace: &[Access], pes: u32, fc: &FaultConfig) -> FaultyRun {
    let shared = SharedMetrics::new();
    let mut replayer = Replayer::from_merged(trace, pes);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..SystemConfig::default()
        }),
        pes,
    );
    engine.set_observer(shared.observer());
    engine.set_fault_plan(FaultPlan::new(fc.clone()));
    let stats = engine
        .run(&mut replayer, 10_000_000)
        .expect("faulty replay must still complete");
    engine
        .system()
        .check_coherence_invariants()
        .expect("coherence invariants must survive fault injection");
    FaultyRun {
        stats,
        fp: fingerprint(engine.system()),
        faults: engine.fault_stats().clone(),
        metrics: shared.take(),
    }
}

/// Every PE's cycle account must decompose its clock exactly.
fn assert_accounts_sum(stats: &RunStats) {
    for (pe, (cycles, &clock)) in stats.pe_cycles.iter().zip(&stats.pe_clocks).enumerate() {
        assert_eq!(
            cycles.busy + cycles.bus_wait + cycles.lock_wait + cycles.idle,
            clock,
            "PE{pe} cycle account does not sum to its clock"
        );
    }
    assert_eq!(
        stats.makespan,
        stats.pe_clocks.iter().copied().max().unwrap_or(0),
        "makespan must be the maximum PE clock"
    );
}

/// Every injected fault must be recovered, and the observability layer
/// must agree with the engine's own counters, kind by kind.
fn assert_accounted(run: &FaultyRun) {
    assert_eq!(
        run.faults.injected, run.faults.recovered,
        "every injected fault must be recovered"
    );
    assert_eq!(
        run.metrics.faults_injected_total(),
        run.faults.total_injected(),
        "observer saw a different injection total than the engine"
    );
    for (kind, injected, _) in run.faults.rows() {
        let seen = run.metrics.faults_injected.get(kind.label()).copied();
        assert_eq!(
            seen.unwrap_or(0),
            injected,
            "observer count for {} diverged",
            kind.label()
        );
    }
    assert_eq!(run.metrics.faults_recovered, run.faults.total_recovered());
    assert_eq!(run.metrics.fault_penalty.sum(), run.faults.penalty_cycles);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// ≥100 fuzzed fault plans: random seed and rate, random trace.
    /// The run must finish, recover every fault, and keep the coherence
    /// invariants and the cycle accounts.
    #[test]
    fn fuzzed_fault_plans_always_recover(
        seed in 0u64..u64::MAX,
        rate_ppm in 0u32..80_000,
        pes in 2u32..7,
        items in proptest::collection::vec((0u32..8, 0u8..13, 0u64..128), 1..160),
    ) {
        let items: Vec<(u32, u8, u64)> =
            items.into_iter().map(|(pe, k, w)| (pe % pes, k, w)).collect();
        let trace = disciplined_trace(pes, items);
        let fc = FaultConfig::new(seed, rate_ppm);

        let run = replay_with_faults(&trace, pes, &fc);
        prop_assert!(run.stats.finished, "faulty replay must terminate");
        assert_accounted(&run);
        assert_accounts_sum(&run.stats);

        // Rate 0 is exactly the fault-free engine. No tighter makespan
        // bound holds in general: a fault delay can reorder lock
        // acquisitions, and the second-order scheduling shift is not
        // covered by the direct penalty accounting.
        let clean = replay_with_faults(&trace, pes, &FaultConfig::new(seed, 0));
        prop_assert_eq!(clean.faults.total_injected(), 0);
        assert_accounts_sum(&clean.stats);
        if run.faults.total_injected() == 0 {
            prop_assert_eq!(&run.stats, &clean.stats);
        }
    }

    /// The same plan replayed twice is identical — fault schedules are
    /// pure functions of (seed, cycle, pe, attempt), never of wall
    /// clock or scheduling order.
    #[test]
    fn fault_schedules_are_reproducible(
        seed in 0u64..u64::MAX,
        items in proptest::collection::vec((0u32..4, 0u8..13, 0u64..64), 1..80),
    ) {
        let trace = disciplined_trace(4, items);
        let fc = FaultConfig::new(seed, 25_000);
        let a = replay_with_faults(&trace, 4, &fc);
        let b = replay_with_faults(&trace, 4, &fc);
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(&a.faults, &b.faults);
        prop_assert_eq!(&a.fp, &b.fp);
    }
}

/// Two PEs that each lock a word and then request the other's word
/// form a wait-for cycle; the engine must report it as a structured
/// deadlock naming the participants instead of spinning forever.
#[test]
fn cross_locks_are_reported_as_deadlock() {
    let map = AreaMap::standard();
    let heap = map.base(StorageArea::Heap);
    let (a, b) = (heap, heap + 4);
    let trace = vec![
        Access::new(PeId(0), MemOp::LockRead, a, StorageArea::Heap),
        Access::new(PeId(0), MemOp::LockRead, b, StorageArea::Heap),
        Access::new(PeId(1), MemOp::LockRead, b, StorageArea::Heap),
        Access::new(PeId(1), MemOp::LockRead, a, StorageArea::Heap),
    ];
    let pes = 2;

    let mut replayer = Replayer::from_merged(&trace, pes);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..SystemConfig::default()
        }),
        pes,
    );
    let err = engine
        .run(&mut replayer, 10_000_000)
        .expect_err("cross-locks must deadlock");
    let SimError::Deadlock { cycle, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(cycle.as_slice(), &[PeId(0), PeId(1)]);
}

/// The watchdog bounds simulated time: a run that would take longer
/// than the budget fails fast with the budget in the diagnostic, and a
/// generous budget never fires.
#[test]
fn watchdog_bounds_simulated_cycles() {
    let items = (0..400)
        .map(|i| (i % 4, (i % 13) as u8, i as u64))
        .collect();
    let trace = disciplined_trace(4, items);

    let mut replayer = Replayer::from_merged(&trace, 4);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes: 4,
            ..SystemConfig::default()
        }),
        4,
    );
    let stats = engine.run(&mut replayer, 10_000_000).expect("clean run");
    let honest = stats.makespan;

    // A budget below the real makespan must trip, and must trip before
    // the clock runs far past the budget (one operation's worth).
    let budget = honest / 2;
    let mut replayer = Replayer::from_merged(&trace, 4);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes: 4,
            ..SystemConfig::default()
        }),
        4,
    );
    engine.set_watchdog(budget);
    let err = engine
        .run(&mut replayer, 10_000_000)
        .expect_err("watchdog must fire");
    let SimError::WatchdogExpired {
        clock, budget: b, ..
    } = err
    else {
        panic!("expected WatchdogExpired, got {err:?}");
    };
    assert_eq!(b, budget);
    assert!(
        clock > budget && clock < honest + 1000,
        "clock {clock} vs budget {budget}"
    );

    // A generous budget never fires, even with faults.
    let mut replayer = Replayer::from_merged(&trace, 4);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes: 4,
            ..SystemConfig::default()
        }),
        4,
    );
    engine.set_watchdog(honest * 4);
    engine.set_fault_plan(FaultPlan::new(FaultConfig::new(7, 10_000)));
    let run = engine.run(&mut replayer, 10_000_000);
    assert!(run.expect("generous watchdog never fires").finished);
}
