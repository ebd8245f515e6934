//! The protocol rules: the three decisions in which the PIM cache differs
//! from the Illinois baseline it is measured against.
//!
//! Section 3.1 of the paper defines the PIM cache by what it changes in
//! the Illinois protocol (Papamarcos & Patel, ISCA 1984). Everything the
//! two share — the cache bank, the observer funnel, the lock-conflict
//! snoop and its `LH` refusal, the supplier search, the fill and upgrade
//! transactions, statistics and checkpoints — is one engine,
//! [`CoherentSystem`]. A protocol is a type answering three questions as
//! associated constants. They are resolved at compile time, so each
//! instantiation compiles to the code of its own protocol and no access
//! pays a runtime branch on which protocol it is.
//!
//! | rule | [`Pim`] | [`Illinois`] |
//! |---|---|---|
//! | optimized commands `DW`/`DWD`/`ER`/`RP`/`RI` | honoured where [`SystemConfig::opt_mask`] enables them | always downgraded to `R`/`W` |
//! | a dirty block supplied cache-to-cache | migrates: `F` leaves the supplier `SM`, `FI` hands the requester `EM` | is reflected into memory: supplier `S`, requester `S` or `EC` |
//! | locks | hardware lock directory: `LR` free on an exclusive hit, `LK` rides on the `I`/`FI`, `UL` only when someone waits | bus-locked read-modify-write: every `LR` and every unlock is a bus command |
//!
//! [`SystemConfig::opt_mask`]: crate::SystemConfig::opt_mask

use crate::protocol::CoherentSystem;

/// A coherence protocol run by [`CoherentSystem`]: three compile-time
/// rules on top of the shared engine.
pub trait CoherenceProtocol {
    /// Whether the optimized commands (`DW`, `DWD`, `ER`, `RP`, `RI`) are
    /// honoured where [`crate::SystemConfig::opt_mask`] enables them.
    /// When `false` the mask is ignored and every optimized command is
    /// downgraded to its plain form ([`pim_trace::MemOp::downgraded`]).
    const OPTIMIZED_COMMANDS: bool;

    /// Whether a dirty block supplied cache-to-cache migrates without a
    /// memory update (an `F` leaves the supplier the `SM` owner, an `FI`
    /// hands the requester `EM`). When `false` the memory controller
    /// captures the block as it crosses the bus — a reflective copy-back
    /// that occupies a memory module but no extra bus cycles — and the
    /// transfer then proceeds as a clean one: the supplier ends `S`, the
    /// requester `S` or `EC`, and no `SM` copy ever arises.
    const DIRTY_SUPPLY_MIGRATES: bool;

    /// Whether locks live in the hardware lock directory (Section 3.3):
    /// `LR` is free on an exclusive hit, the lock command `LK` rides on
    /// the `I`/`FI` that acquires exclusivity, and the unlock broadcast
    /// `UL` goes out only when someone waits. When `false`, `LR` is a
    /// bus-locked read-modify-write: the block is acquired exclusively
    /// without `LK`, then every `LR` records a `Lock` command and one
    /// `Invalidate` transaction, and every unlock broadcasts. Mutual
    /// exclusion still uses the same word-lock bookkeeping, so the same
    /// workloads run unchanged; only the costs differ, which is what the
    /// ablation measures. Without the hardware directory the statistics
    /// `lr_hits_exclusive`, `unlock_no_waiter` and
    /// `max_simultaneous_locks` stay 0.
    const LOCK_DIRECTORY: bool;
}

/// The PIM protocol (Section 3 of the paper): every rule on.
#[derive(Debug)]
pub struct Pim;

impl CoherenceProtocol for Pim {
    const OPTIMIZED_COMMANDS: bool = true;
    const DIRTY_SUPPLY_MIGRATES: bool = true;
    const LOCK_DIRECTORY: bool = true;
}

/// The Illinois (MESI-style) baseline the paper compares against: a
/// four-state copy-back invalidation protocol with none of PIM's changes.
/// No shared block is ever dirty, which is why it needs no `SM` state and
/// why its memory modules stay busier when the cache-to-cache rate is
/// high (Section 3.1).
#[derive(Debug)]
pub struct Illinois;

impl CoherenceProtocol for Illinois {
    const OPTIMIZED_COMMANDS: bool = false;
    const DIRTY_SUPPLY_MIGRATES: bool = false;
    const LOCK_DIRECTORY: bool = false;
}

/// The PIM multiprocessor memory system (Section 3 of the paper).
pub type PimSystem = CoherentSystem<Pim>;

/// The Illinois baseline multiprocessor memory system, built from the
/// same [`crate::SystemConfig`] as [`PimSystem`] so experiments can swap
/// protocols without touching anything else.
pub type IllinoisSystem = CoherentSystem<Illinois>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockState, Outcome, SystemConfig};
    use pim_trace::{Addr, MemOp, PeId, StorageArea};

    const P0: PeId = PeId(0);
    const P1: PeId = PeId(1);

    fn sys() -> IllinoisSystem {
        IllinoisSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        })
    }

    fn heap(s: &IllinoisSystem, off: u64) -> Addr {
        s.area_map().base(StorageArea::Heap) + off
    }

    #[test]
    fn dirty_transfer_copies_back_to_memory() {
        let mut s = sys();
        let a = heap(&s, 0);
        s.access(P0, MemOp::Write, a, Some(5)).unwrap();
        let busy_before = s.bus_stats().memory_busy_cycles();
        let out = s.access(P1, MemOp::Read, a, None).unwrap();
        assert_eq!(out.value(), 5);
        // Both copies clean-shared; memory took the reflective write.
        assert_eq!(s.cache_state(P0, a), BlockState::Shared);
        assert_eq!(s.cache_state(P1, a), BlockState::Shared);
        assert!(s.bus_stats().memory_busy_cycles() > busy_before);
    }

    #[test]
    fn optimized_commands_are_downgraded() {
        let mut s = sys();
        let a = heap(&s, 0);
        // DW behaves as a plain write: full 13-cycle fetch-on-write.
        let out = s.access(P0, MemOp::DirectWrite, a, Some(1)).unwrap();
        assert_eq!(out.bus_cycles(), 13);
        // ER behaves as a plain read.
        let out = s.access(P1, MemOp::ExclusiveRead, a, None).unwrap();
        assert_eq!(out.value(), 1);
        assert_eq!(s.cache_state(P0, a), BlockState::Shared);
        assert_eq!(s.cache_state(P1, a), BlockState::Shared);
    }

    #[test]
    fn locks_always_pay_the_bus() {
        let mut s = sys();
        let a = heap(&s, 0);
        s.access(P0, MemOp::Write, a, Some(0)).unwrap(); // EM hit for LR
        let out = s.access(P0, MemOp::LockRead, a, None).unwrap();
        assert!(out.bus_cycles() > 0, "no free lock in Illinois");
        let out = s.access(P0, MemOp::WriteUnlock, a, Some(1)).unwrap();
        assert!(out.bus_cycles() > 0, "no free unlock in Illinois");
        assert_eq!(s.lock_stats().unlock_no_waiter, 0);
    }

    #[test]
    fn lock_conflicts_still_block() {
        let mut s = sys();
        let a = heap(&s, 0);
        s.access(P0, MemOp::LockRead, a, None).unwrap();
        match s.access(P1, MemOp::LockRead, a, None).unwrap() {
            Outcome::LockBusy { holder } => assert_eq!(holder, P0),
            other => panic!("{other:?}"),
        }
        match s.access(P0, MemOp::WriteUnlock, a, Some(2)).unwrap() {
            Outcome::Done { woken, .. } => assert_eq!(woken, vec![P1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn functional_values_round_trip() {
        let mut s = sys();
        let a = heap(&s, 8);
        s.poke(a, 11);
        assert_eq!(s.access(P0, MemOp::Read, a, None).unwrap().value(), 11);
        s.access(P1, MemOp::Write, a, Some(12)).unwrap();
        assert_eq!(s.access(P0, MemOp::Read, a, None).unwrap().value(), 12);
        assert_eq!(s.peek(a), 12);
    }
}
