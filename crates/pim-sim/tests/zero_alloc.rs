//! The Illinois miss path and the engine's step loop allocate nothing.
//!
//! This test binary installs `pim-perf`'s counting allocator. One test
//! builds an `IllinoisSystem`, touches every memory page the script
//! uses, and then drives its `access` through every kind of miss inside
//! one `pim-perf` span; the span's allocation count must be zero. The
//! other runs the `Engine` over replays of two lengths and checks that
//! the step count does not change the allocation count.

use pim_bus::{BusCommand, Transaction};
use pim_cache::{CacheGeometry, PimSystem, SystemConfig};
use pim_perf::Profiler;
use pim_sim::{Engine, IllinoisSystem, Replayer};
use pim_trace::{Access, MemOp, PeId, StorageArea};

#[global_allocator]
static ALLOC: pim_perf::CountingAlloc = pim_perf::CountingAlloc;

const P0: PeId = PeId(0);
const P1: PeId = PeId(1);
const P2: PeId = PeId(2);

/// Allocations made by `f` on this thread, read from a `pim-perf` span
/// around it.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let profiler = Profiler::new();
    profiler.enable();
    // A first span sets up this thread's span stack, so the measured
    // span's own bookkeeping allocates nothing.
    drop(profiler.span("warm-up"));
    {
        let _span = profiler.span("miss path");
        f();
    }
    let report = profiler.snapshot();
    assert!(report.alloc_counting, "the counting allocator is installed");
    report
        .phases
        .iter()
        .find(|p| p.name == "miss path")
        .expect("the span closed")
        .allocs
}

#[test]
fn illinois_misses_allocate_nothing() {
    // 8 sets × 2 ways × 4-word blocks: addresses 32 words apart share a
    // set, so a third block evicts.
    let mut sys = IllinoisSystem::new(SystemConfig {
        pes: 3,
        geometry: CacheGeometry::with_shape(64, 4, 2),
        ..SystemConfig::default()
    });
    let h = sys.area_map().base(StorageArea::Heap);
    for w in 0..256 {
        sys.poke(h + w, w);
    }
    let access = |sys: &mut IllinoisSystem, pe: PeId, op: MemOp, off: u64, data: Option<u64>| {
        sys.access(pe, op, h + off, data)
            .expect("no lock misuse")
            .value()
    };

    let allocs = allocations_in(|| {
        // Memory fetch, then a dirty cache-to-cache F with the reflective
        // copy-back to memory.
        access(&mut sys, P0, MemOp::Write, 0, Some(100));
        assert_eq!(access(&mut sys, P1, MemOp::Read, 0, None), 100);
        // FI from a shared copy, invalidating P0 and P1.
        access(&mut sys, P2, MemOp::Write, 1, Some(101));
        // Two more blocks in P2's set: the dirty block 0 is swapped out.
        access(&mut sys, P2, MemOp::Write, 32, Some(132));
        access(&mut sys, P2, MemOp::Write, 64, Some(164));
        // DW and RP are downgraded to W and R, but still miss.
        access(&mut sys, P0, MemOp::DirectWrite, 128, Some(228));
        assert_eq!(access(&mut sys, P1, MemOp::ReadPurge, 64, None), 164);
        // A clean F, then an I upgrade.
        access(&mut sys, P0, MemOp::Read, 8, None);
        access(&mut sys, P1, MemOp::Read, 8, None);
        access(&mut sys, P1, MemOp::Write, 9, Some(9));
    });

    let bus = sys.bus_stats();
    for tx in [
        Transaction::MemoryFetch { swap_out: false },
        Transaction::MemoryFetch { swap_out: true },
        Transaction::CacheToCache { swap_out: false },
        Transaction::Invalidate,
    ] {
        assert!(bus.tx_count(tx) > 0, "the script exercises {tx:?}");
    }
    assert!(bus.cmd_count(BusCommand::FetchInvalidate) > 0);
    assert_eq!(sys.peek(h + 1), 101);
    assert_eq!(allocs, 0, "the miss path allocated");
}

/// Allocations made by one `Engine::run` replaying `len` reads and
/// writes from four PEs over 256 heap words, on caches small enough
/// that the replay misses, swaps out and supplies blocks cache to cache.
/// No access is a lock operation, so no PE ever waits on one.
fn engine_run_allocations(len: u64) -> u64 {
    let config = SystemConfig {
        pes: 4,
        geometry: CacheGeometry::with_shape(64, 4, 2),
        ..SystemConfig::default()
    };
    let mut system = PimSystem::new(config);
    let h = system.area_map().base(StorageArea::Heap);
    for w in 0..256 {
        system.poke(h + w, w);
    }
    let trace: Vec<Access> = (0..len)
        .map(|k| {
            let op = if k % 3 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            Access::new(
                PeId((k % 4) as u32),
                op,
                h + (k * 7) % 256,
                StorageArea::Heap,
            )
        })
        .collect();
    let mut replayer = Replayer::from_merged(&trace, 4);
    let mut engine = Engine::new(system, 4);
    let mut steps = 0;
    let allocs = allocations_in(|| {
        let stats = engine.run(&mut replayer, u64::MAX).expect("fault-free run");
        assert!(stats.finished);
        steps = stats.steps;
    });
    assert!(steps >= len, "{steps} steps for {len} accesses");
    let bus = engine.system().bus_stats();
    for tx in [
        Transaction::MemoryFetch { swap_out: true },
        Transaction::CacheToCache { swap_out: false },
    ] {
        assert!(bus.tx_count(tx) > 0, "the replay exercises {tx:?}");
    }
    allocs
}

#[test]
fn engine_steps_allocate_nothing() {
    let short = engine_run_allocations(1_000);
    let long = engine_run_allocations(100_000);
    assert_eq!(short, long, "allocations grew with the step count");
    // `RunStats::pe_clocks` and `RunStats::pe_cycles`.
    assert_eq!(short, 2, "only the two RunStats vectors are allocated");
}
