//! Pins the `pim-ckpt/v1` bytes a `PimSystem` checkpoint writes.
//!
//! The cache array may store its lines however it likes in memory; the
//! checkpoint stays line-major: per line its tag, state tag, LRU stamp
//! and data words. The digest below was taken from the array that kept
//! one struct per line. Any layout change that moves one checkpoint byte
//! fails here before it can break `--resume` of an older checkpoint.

use pim_cache::{CacheGeometry, Outcome, PimSystem, SystemConfig};
use pim_ckpt::{fnv1a64, Reader, Writer};
use pim_trace::{MemOp, PeId, StorageArea};

/// FNV-1a/64 of the `pim` section written after [`scripted`].
const PINNED_DIGEST: u64 = 0x6f27_8179_3243_359a;

/// A four-PE system with 8-set, 2-way, 4-word-block caches, driven
/// through fills, evictions, shared and dirty states, purges and a lock
/// round trip by a fixed pseudo-random script.
fn scripted() -> PimSystem {
    let mut sys = PimSystem::new(SystemConfig {
        pes: 4,
        geometry: CacheGeometry::with_shape(64, 4, 2),
        ..SystemConfig::default()
    });
    let heap = sys.area_map().base(StorageArea::Heap);
    for w in 0..256 {
        sys.poke(heap + w, w * 7 + 1);
    }
    let ops = [
        MemOp::Read,
        MemOp::Write,
        MemOp::DirectWrite,
        MemOp::ExclusiveRead,
        MemOp::ReadPurge,
        MemOp::ReadInvalidate,
    ];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for step in 0..600u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let pe = PeId((x % 4) as u32);
        let op = ops[((x >> 8) % ops.len() as u64) as usize];
        let addr = heap + (x >> 16) % 256;
        let data = matches!(op, MemOp::Write | MemOp::DirectWrite).then_some(step);
        let outcome = sys.access(pe, op, addr, data).expect("no lock misuse");
        assert!(matches!(outcome, Outcome::Done { .. }), "no lock is held");
        if step % 50 == 0 {
            sys.access(pe, MemOp::LockRead, addr, None).expect("lock");
            sys.access(pe, MemOp::WriteUnlock, addr, Some(step))
                .expect("unlock");
        }
    }
    sys.check_coherence_invariants().expect("coherent");
    sys
}

fn section(sys: &PimSystem) -> Writer {
    let mut w = Writer::new();
    w.section("pim", |w| sys.save_ckpt(w));
    w
}

#[test]
fn pim_checkpoint_bytes_are_pinned() {
    let w = section(&scripted());
    let digest = fnv1a64(w.payload());
    assert_eq!(
        digest,
        PINNED_DIGEST,
        "PimSystem checkpoint bytes changed: digest {digest:#018x}, {} bytes",
        w.payload().len()
    );
}

#[test]
fn restored_checkpoint_writes_the_same_bytes() {
    let sys = scripted();
    let w = section(&sys);
    let mut fresh = PimSystem::new(sys.config().clone());
    let mut r = Reader::new(w.payload());
    r.section("pim", |r| fresh.restore_ckpt(r))
        .expect("restore");
    r.expect_end().expect("consumed");
    assert_eq!(section(&fresh).payload(), w.payload());
}
