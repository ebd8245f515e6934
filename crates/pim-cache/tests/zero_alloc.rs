//! The PIM miss path allocates nothing.
//!
//! This test binary installs `pim-perf`'s counting allocator, builds a
//! `PimSystem`, touches every memory page the script uses, and then
//! drives `PimSystem::access` through every kind of miss inside one
//! `pim-perf` span. The span's allocation count must be zero.

use pim_bus::{BusCommand, Transaction};
use pim_cache::{CacheGeometry, PimSystem, SystemConfig};
use pim_perf::Profiler;
use pim_trace::{MemOp, PeId, StorageArea};

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
fn pim_misses_allocate_nothing() {
    // 8 sets × 2 ways × 4-word blocks: addresses 32 words apart share a
    // set, so a third block evicts.
    let mut sys = PimSystem::new(SystemConfig {
        pes: 3,
        geometry: CacheGeometry::with_shape(64, 4, 2),
        ..SystemConfig::default()
    });
    let h = sys.area_map().base(StorageArea::Heap);
    for w in 0..256 {
        sys.poke(h + w, w);
    }
    let access = |sys: &mut PimSystem, pe: PeId, op: MemOp, off: u64, data: Option<u64>| {
        sys.access(pe, op, h + off, data)
            .expect("no lock misuse")
            .value()
    };

    let allocs = allocations_in(|| {
        // Memory fetch, then a dirty cache-to-cache F (P0 becomes SM).
        access(&mut sys, P0, MemOp::Write, 0, Some(100));
        assert_eq!(access(&mut sys, P1, MemOp::Read, 0, None), 100);
        // FI from the dirty supplier, invalidating P0 and P1.
        access(&mut sys, P2, MemOp::Write, 1, Some(101));
        // Two more blocks in P2's set: the dirty block 0 is swapped out.
        access(&mut sys, P2, MemOp::Write, 32, Some(132));
        access(&mut sys, P2, MemOp::Write, 64, Some(164));
        // DW allocates without fetching; a third DW in the same set
        // swaps a dirty allocation out with no fetch.
        access(&mut sys, P0, MemOp::DirectWrite, 128, Some(228));
        access(&mut sys, P0, MemOp::DirectWrite, 160, Some(260));
        access(&mut sys, P0, MemOp::DirectWrite, 192, Some(292));
        // RP misses on P2's dirty block: the block bypasses P1's cache.
        assert_eq!(access(&mut sys, P1, MemOp::ReadPurge, 64, None), 164);
        // Clean F, then an I upgrade; ER and RI misses.
        access(&mut sys, P0, MemOp::Read, 8, None);
        access(&mut sys, P1, MemOp::Read, 8, None);
        access(&mut sys, P1, MemOp::Write, 9, Some(9));
        access(&mut sys, P2, MemOp::ExclusiveRead, 9, None);
        access(&mut sys, P0, MemOp::ReadInvalidate, 12, None);
    });

    let bus = sys.bus_stats();
    for tx in [
        Transaction::MemoryFetch { swap_out: false },
        Transaction::MemoryFetch { swap_out: true },
        Transaction::CacheToCache { swap_out: false },
        Transaction::SwapOutOnly,
        Transaction::Invalidate,
    ] {
        assert!(bus.tx_count(tx) > 0, "the script exercises {tx:?}");
    }
    assert!(bus.cmd_count(BusCommand::FetchInvalidate) > 0);
    assert!(sys.access_stats().dw_allocations >= 3);
    assert!(sys.access_stats().purges > 0, "RP bypass");
    sys.check_coherence_invariants().expect("coherent");
    assert_eq!(allocs, 0, "the miss path allocated");
}

#[test]
fn fi_and_i_against_three_sharers_allocate_nothing() {
    let mut sys = PimSystem::new(SystemConfig {
        pes: 4,
        geometry: CacheGeometry::with_shape(64, 4, 2),
        ..SystemConfig::default()
    });
    let h = sys.area_map().base(StorageArea::Heap);
    for w in 0..64 {
        sys.poke(h + w, w);
    }
    let sharers = [PeId(1), PeId(2), PeId(3)];
    // Three clean sharers of each block, before the measured span.
    for pe in sharers {
        for off in [0, 8] {
            sys.access(pe, MemOp::Read, h + off, None).expect("read");
        }
    }
    let before = sys.bus_stats().cmd_count(BusCommand::Invalidate);

    let allocs = allocations_in(|| {
        // FI: P0 misses on a block three other caches share.
        sys.access(PeId(0), MemOp::Write, h + 1, Some(1))
            .expect("write");
        // I: P1 upgrades its shared copy of a block two others share too.
        sys.access(PeId(1), MemOp::Read, h + 9, None).expect("read");
        sys.access(PeId(0), MemOp::Read, h + 9, None).expect("read");
        sys.access(PeId(1), MemOp::Write, h + 9, Some(9))
            .expect("upgrade");
    });

    assert_eq!(sys.bus_stats().cmd_count(BusCommand::FetchInvalidate), 1);
    assert_eq!(
        sys.bus_stats().cmd_count(BusCommand::Invalidate),
        before + 1
    );
    for pe in [PeId(0), PeId(2), PeId(3)] {
        assert_eq!(sys.cache_state(pe, h + 9), pim_cache::BlockState::Inv);
    }
    for pe in sharers {
        assert_eq!(sys.cache_state(pe, h), pim_cache::BlockState::Inv);
    }
    sys.check_coherence_invariants().expect("coherent");
    assert_eq!(allocs, 0, "the three-sharer FI and I allocated");
}
