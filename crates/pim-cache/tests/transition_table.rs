//! The PIM protocol state-transition table, pinned as tests, with the
//! Illinois baseline's rows beside it.
//!
//! The paper defers its complete transition tables to ICOT TR-327 (not
//! publicly available); this file *is* that table for the reproduction:
//! for every local block state, every memory operation, and every remote
//! configuration, it asserts the resulting local state, remote state, and
//! bus cycle cost. Any change to the protocol that alters a transition
//! must consciously edit a row here.

use pim_cache::{BlockState, CoherenceProtocol, CoherentSystem, Illinois, Pim, SystemConfig};
use pim_trace::{Addr, MemOp, PeId, StorageArea};

const P0: PeId = PeId(0);
const P1: PeId = PeId(1);
const P2: PeId = PeId(2);

/// The remote configuration before the probed access by PE0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Remote {
    /// No other cache holds the block.
    None,
    /// PE1 holds it exclusive-clean.
    Ec,
    /// PE1 holds it exclusive-modified.
    Em,
    /// PE1 owns it shared-modified, PE2 holds shared (PE1 wrote it, then
    /// PE2 read it).
    SmS,
    /// PE1 and PE2 hold clean shared copies (both read it).
    S,
}

/// The local state of PE0 before the probed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Local {
    Inv,
    Ec,
    Em,
    S,
    Sm,
}

/// Builds a 3-PE system where PE0 is in `local` and the remotes are in
/// `remote` for the probe block, then returns it with the probe address.
///
/// Reaching (local=Sm) requires remote S copies; (local=S) requires some
/// other holder — the constructor panics on configurations the protocol
/// cannot produce, which the table below never requests. The states named
/// are PIM's; the Illinois rows use only configurations whose names hold
/// under both protocols.
fn setup<P: CoherenceProtocol>(local: Local, remote: Remote) -> (CoherentSystem<P>, Addr) {
    let mut sys = CoherentSystem::new(SystemConfig {
        pes: 3,
        ..SystemConfig::default()
    });
    let a = sys.area_map().base(StorageArea::Heap);
    match (local, remote) {
        (Local::Inv, Remote::None) => {}
        (Local::Inv, Remote::Ec) => {
            sys.access(P1, MemOp::Read, a, None).unwrap();
        }
        (Local::Inv, Remote::Em) => {
            sys.access(P1, MemOp::Write, a, Some(9)).unwrap();
        }
        (Local::Inv, Remote::SmS) => {
            sys.access(P1, MemOp::Write, a, Some(9)).unwrap();
            sys.access(P2, MemOp::Read, a, None).unwrap();
        }
        (Local::Inv, Remote::S) => {
            sys.access(P1, MemOp::Read, a, None).unwrap();
            sys.access(P2, MemOp::Read, a, None).unwrap();
        }
        (Local::Ec, Remote::None) => {
            sys.access(P0, MemOp::Read, a, None).unwrap();
        }
        (Local::Em, Remote::None) => {
            sys.access(P0, MemOp::Write, a, Some(9)).unwrap();
        }
        (Local::S, Remote::SmS) => {
            sys.access(P1, MemOp::Write, a, Some(9)).unwrap();
            sys.access(P2, MemOp::Read, a, None).unwrap();
            sys.access(P0, MemOp::Read, a, None).unwrap();
        }
        (Local::S, Remote::S) => {
            sys.access(P1, MemOp::Read, a, None).unwrap();
            sys.access(P2, MemOp::Read, a, None).unwrap();
            sys.access(P0, MemOp::Read, a, None).unwrap();
        }
        (Local::Sm, Remote::SmS) => {
            // PE0 becomes the SM owner with PE1/PE2 sharing.
            sys.access(P0, MemOp::Write, a, Some(9)).unwrap();
            sys.access(P1, MemOp::Read, a, None).unwrap();
            sys.access(P2, MemOp::Read, a, None).unwrap();
        }
        other => panic!("table never requests configuration {other:?}"),
    }
    (sys, a)
}

fn state<P: CoherenceProtocol>(sys: &CoherentSystem<P>, pe: PeId, a: Addr) -> BlockState {
    sys.cache_state(pe, a)
}

/// One transition expectation.
struct Row {
    local: Local,
    remote: Remote,
    op: MemOp,
    /// Probe offset within the block (DW needs the boundary, ER's purge
    /// needs the last word).
    offset: u64,
    cycles: u64,
    end_local: BlockState,
    end_p1: BlockState,
}

/// Probes `row` on protocol `P`. Only the holder may issue `UW`/`U`, so
/// for those PE0 first locks the probe word (untimed).
fn check<P: CoherenceProtocol>(row: &Row) {
    let (mut sys, base) = setup::<P>(row.local, row.remote);
    let a = base + row.offset;
    if matches!(row.op, MemOp::WriteUnlock | MemOp::Unlock) {
        sys.access(P0, MemOp::LockRead, a, None).unwrap();
    }
    let data = row.op.is_write().then_some(42);
    let out = sys.access(P0, row.op, a, data).unwrap();
    assert_eq!(
        out.bus_cycles(),
        row.cycles,
        "{:?}/{:?} {} cycles",
        row.local,
        row.remote,
        row.op
    );
    assert_eq!(
        state(&sys, P0, a),
        row.end_local,
        "{:?}/{:?} {} local state",
        row.local,
        row.remote,
        row.op
    );
    assert_eq!(
        state(&sys, P1, a),
        row.end_p1,
        "{:?}/{:?} {} remote state",
        row.local,
        row.remote,
        row.op
    );
    sys.check_coherence_invariants().unwrap();
}

use BlockState::{Ec, Em, Inv, Shared, Sm};

#[test]
fn read_transitions() {
    for row in [
        // R misses: memory fetch 13, clean c2c 7, dirty c2c 7 (no copyback).
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::Read,
            offset: 0,
            cycles: 13,
            end_local: Ec,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::Ec,
            op: MemOp::Read,
            offset: 0,
            cycles: 7,
            end_local: Shared,
            end_p1: Shared,
        },
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::Read,
            offset: 0,
            cycles: 7,
            end_local: Shared,
            end_p1: Sm,
        },
        Row {
            local: Local::Inv,
            remote: Remote::SmS,
            op: MemOp::Read,
            offset: 0,
            cycles: 7,
            end_local: Shared,
            end_p1: Sm,
        },
        // R hits: free, state preserved.
        Row {
            local: Local::Ec,
            remote: Remote::None,
            op: MemOp::Read,
            offset: 0,
            cycles: 0,
            end_local: Ec,
            end_p1: Inv,
        },
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::Read,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::S,
            remote: Remote::SmS,
            op: MemOp::Read,
            offset: 0,
            cycles: 0,
            end_local: Shared,
            end_p1: Sm,
        },
        Row {
            local: Local::Sm,
            remote: Remote::SmS,
            op: MemOp::Read,
            offset: 0,
            cycles: 0,
            end_local: Sm,
            end_p1: Shared,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn write_transitions() {
    for row in [
        // W misses: fetch-invalidate; dirty source migrates, no copyback.
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::Write,
            offset: 0,
            cycles: 13,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::Ec,
            op: MemOp::Write,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::Write,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::SmS,
            op: MemOp::Write,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        // W hits: silent on exclusive, invalidate broadcast on shared.
        Row {
            local: Local::Ec,
            remote: Remote::None,
            op: MemOp::Write,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::Write,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::S,
            remote: Remote::SmS,
            op: MemOp::Write,
            offset: 0,
            cycles: 2,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Sm,
            remote: Remote::SmS,
            op: MemOp::Write,
            offset: 0,
            cycles: 2,
            end_local: Em,
            end_p1: Inv,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn direct_write_transitions() {
    for row in [
        // Boundary miss, no remote copies: free allocation.
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::DirectWrite,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        // Off-boundary: behaves as W.
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::DirectWrite,
            offset: 1,
            cycles: 13,
            end_local: Em,
            end_p1: Inv,
        },
        // Contract violation (remote copy exists): falls back to W.
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::DirectWrite,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        // Hit: plain write.
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::DirectWrite,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        // The downward twin allocates at the block's last word.
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::DirectWriteDown,
            offset: 3,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::DirectWriteDown,
            offset: 0,
            cycles: 13,
            end_local: Em,
            end_p1: Inv,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn exclusive_read_transitions() {
    for row in [
        // Miss, remote holder, not last word: read-invalidate (case i).
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::ExclusiveRead,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::Ec,
            op: MemOp::ExclusiveRead,
            offset: 0,
            cycles: 7,
            end_local: Ec,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::SmS,
            op: MemOp::ExclusiveRead,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        // Hit on the last word: read then self-purge (case ii).
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::ExclusiveRead,
            offset: 3,
            cycles: 0,
            end_local: Inv,
            end_p1: Inv,
        },
        Row {
            local: Local::Ec,
            remote: Remote::None,
            op: MemOp::ExclusiveRead,
            offset: 3,
            cycles: 0,
            end_local: Inv,
            end_p1: Inv,
        },
        // Hit, not last word: plain read (case iii).
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::ExclusiveRead,
            offset: 1,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        // Miss on the last word: plain read (case iii).
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::ExclusiveRead,
            offset: 3,
            cycles: 7,
            end_local: Shared,
            end_p1: Sm,
        },
        // Miss with no holder: plain read from memory.
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::ExclusiveRead,
            offset: 0,
            cycles: 13,
            end_local: Ec,
            end_p1: Inv,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn read_purge_transitions() {
    for row in [
        // Hit: read then purge, discarding even dirty data.
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::ReadPurge,
            offset: 1,
            cycles: 0,
            end_local: Inv,
            end_p1: Inv,
        },
        Row {
            local: Local::Ec,
            remote: Remote::None,
            op: MemOp::ReadPurge,
            offset: 1,
            cycles: 0,
            end_local: Inv,
            end_p1: Inv,
        },
        // Miss with a holder: supplier invalidated, nothing installed.
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::ReadPurge,
            offset: 1,
            cycles: 7,
            end_local: Inv,
            end_p1: Inv,
        },
        // Miss from memory: fetch bypasses the cache.
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::ReadPurge,
            offset: 1,
            cycles: 13,
            end_local: Inv,
            end_p1: Inv,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn read_invalidate_transitions() {
    for row in [
        // Miss: fetch exclusively so the coming rewrite is free.
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::ReadInvalidate,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::Ec,
            op: MemOp::ReadInvalidate,
            offset: 0,
            cycles: 7,
            end_local: Ec,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::ReadInvalidate,
            offset: 0,
            cycles: 13,
            end_local: Ec,
            end_p1: Inv,
        },
        // Hit: plain read.
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::ReadInvalidate,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::S,
            remote: Remote::SmS,
            op: MemOp::ReadInvalidate,
            offset: 0,
            cycles: 0,
            end_local: Shared,
            end_p1: Sm,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn lock_read_transitions() {
    for row in [
        // Exclusive hits are the zero-cost case.
        Row {
            local: Local::Em,
            remote: Remote::None,
            op: MemOp::LockRead,
            offset: 0,
            cycles: 0,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Ec,
            remote: Remote::None,
            op: MemOp::LockRead,
            offset: 0,
            cycles: 0,
            end_local: Ec,
            end_p1: Inv,
        },
        // Shared hits upgrade with LK+I; a dropped dirty owner's data
        // obligation transfers (S → EM, not EC).
        Row {
            local: Local::S,
            remote: Remote::SmS,
            op: MemOp::LockRead,
            offset: 0,
            cycles: 2,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Sm,
            remote: Remote::SmS,
            op: MemOp::LockRead,
            offset: 0,
            cycles: 2,
            end_local: Em,
            end_p1: Inv,
        },
        // Misses fetch exclusively with LK riding along.
        Row {
            local: Local::Inv,
            remote: Remote::Em,
            op: MemOp::LockRead,
            offset: 0,
            cycles: 7,
            end_local: Em,
            end_p1: Inv,
        },
        Row {
            local: Local::Inv,
            remote: Remote::None,
            op: MemOp::LockRead,
            offset: 0,
            cycles: 13,
            end_local: Ec,
            end_p1: Inv,
        },
    ] {
        check::<Pim>(&row);
    }
}

#[test]
fn unlock_transitions() {
    // UW on the held word: write is exclusive; no waiter → no UL.
    let (mut sys, a) = setup::<Pim>(Local::Em, Remote::None);
    sys.access(P0, MemOp::LockRead, a, None).unwrap();
    let out = sys.access(P0, MemOp::WriteUnlock, a, Some(5)).unwrap();
    assert_eq!(out.bus_cycles(), 0);
    assert_eq!(state(&sys, P0, a), Em);

    let (mut sys, a) = setup::<Pim>(Local::Em, Remote::None);
    sys.access(P0, MemOp::LockRead, a, None).unwrap();
    let out = sys.access(P0, MemOp::Unlock, a, None).unwrap();
    assert_eq!(out.bus_cycles(), 0);
    assert_eq!(state(&sys, P0, a), Em, "U does not touch the block");
}

// ---------------------------------------------------------------------
// The Illinois baseline. Every local state it can reach (INV/EC/EM/S)
// against every remote configuration it can reach (none/EC/EM/S), for
// the operations it honours. Its differences from PIM show up as: a dirty
// supplier ends S beside an S requester (memory takes the block), an
// exclusive fetch from a dirty supplier lands EC, and `LR`/`UW`/`U`
// always pay a 2-cycle bus-lock or unlock broadcast.
// ---------------------------------------------------------------------

/// One Illinois row per local/remote configuration: (local, remote,
/// cycles, end_local, end_p1), probed at the block's first word.
type IllinoisRows = [(Local, Remote, u64, BlockState, BlockState); 7];

fn check_illinois(op: MemOp, rows: IllinoisRows) {
    for (local, remote, cycles, end_local, end_p1) in rows {
        check::<Illinois>(&Row {
            local,
            remote,
            op,
            offset: 0,
            cycles,
            end_local,
            end_p1,
        });
    }
}

#[test]
fn illinois_read_transitions() {
    use Local as L;
    use Remote as R;
    // Misses: memory fetch 13, any cache-to-cache supply 7; a dirty
    // supplier's reflective copy-back costs no bus cycles.
    check_illinois(
        MemOp::Read,
        [
            (L::Inv, R::None, 13, Ec, Inv),
            (L::Inv, R::Ec, 7, Shared, Shared),
            (L::Inv, R::Em, 7, Shared, Shared),
            (L::Inv, R::S, 7, Shared, Shared),
            (L::Ec, R::None, 0, Ec, Inv),
            (L::Em, R::None, 0, Em, Inv),
            (L::S, R::S, 0, Shared, Shared),
        ],
    );
}

#[test]
fn illinois_write_transitions() {
    use Local as L;
    use Remote as R;
    check_illinois(
        MemOp::Write,
        [
            (L::Inv, R::None, 13, Em, Inv),
            (L::Inv, R::Ec, 7, Em, Inv),
            (L::Inv, R::Em, 7, Em, Inv),
            (L::Inv, R::S, 7, Em, Inv),
            (L::Ec, R::None, 0, Em, Inv),
            (L::Em, R::None, 0, Em, Inv),
            (L::S, R::S, 2, Em, Inv),
        ],
    );
}

#[test]
fn illinois_lock_read_transitions() {
    use Local as L;
    use Remote as R;
    // The block is acquired exclusively as for a write (fetch 13 or 7,
    // upgrade 2, exclusive hit 0), then the bus lock adds 2 — even on an
    // exclusive hit. A dirty supplier is reflected, so the requester
    // lands EC.
    check_illinois(
        MemOp::LockRead,
        [
            (L::Inv, R::None, 15, Ec, Inv),
            (L::Inv, R::Ec, 9, Ec, Inv),
            (L::Inv, R::Em, 9, Ec, Inv),
            (L::Inv, R::S, 9, Ec, Inv),
            (L::Ec, R::None, 2, Ec, Inv),
            (L::Em, R::None, 2, Em, Inv),
            (L::S, R::S, 4, Ec, Inv),
        ],
    );
}

#[test]
fn illinois_unlock_transitions() {
    use Local as L;
    use Remote as R;
    // After PE0's LR the block is exclusive, so UW's write is a free hit;
    // the unlock broadcast costs 2 though no one waits.
    check_illinois(
        MemOp::WriteUnlock,
        [
            (L::Inv, R::None, 2, Em, Inv),
            (L::Inv, R::Ec, 2, Em, Inv),
            (L::Inv, R::Em, 2, Em, Inv),
            (L::Inv, R::S, 2, Em, Inv),
            (L::Ec, R::None, 2, Em, Inv),
            (L::Em, R::None, 2, Em, Inv),
            (L::S, R::S, 2, Em, Inv),
        ],
    );
    // U does not touch the block LR left behind.
    check_illinois(
        MemOp::Unlock,
        [
            (L::Inv, R::None, 2, Ec, Inv),
            (L::Inv, R::Ec, 2, Ec, Inv),
            (L::Inv, R::Em, 2, Ec, Inv),
            (L::Inv, R::S, 2, Ec, Inv),
            (L::Ec, R::None, 2, Ec, Inv),
            (L::Em, R::None, 2, Em, Inv),
            (L::S, R::S, 2, Ec, Inv),
        ],
    );
}
