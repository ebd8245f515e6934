//! The memory-system abstraction the engine drives.

use pim_bus::BusStats;
use pim_cache::{AccessStats, LockStats, Outcome, PimSystem, ProtocolError};
use pim_obs::Observer;
use pim_trace::{Addr, AreaMap, MemOp, PeId, RefStats, Word};

/// A coherent multiprocessor memory system: the PIM protocol, the Illinois
/// baseline, or any other comparator.
///
/// Implementations are functional (reads return the latest write) *and*
/// metered (bus, reference, hit and lock statistics).
pub trait MemorySystem {
    /// Performs one memory operation for `pe`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on lock misuse by the issuing machine.
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError>;

    /// The storage-area partition.
    fn area_map(&self) -> &AreaMap;

    /// Uncounted initialization write (program loading).
    fn poke(&mut self, addr: Addr, value: Word);

    /// Uncounted read preferring cached copies (result inspection).
    fn peek(&self, addr: Addr) -> Word;

    /// Accumulated bus statistics.
    fn bus_stats(&self) -> &BusStats;

    /// Accumulated per-area/per-op reference statistics.
    fn ref_stats(&self) -> &RefStats;

    /// Accumulated hit/miss statistics.
    fn access_stats(&self) -> &AccessStats;

    /// Accumulated lock-protocol statistics.
    fn lock_stats(&self) -> &LockStats;

    /// Attaches an observer receiving coherence state-transition events.
    /// The default discards it — implementations without instrumentation
    /// simply stay silent.
    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        let _ = observer;
    }

    /// Tells the system the current simulated cycle, so events emitted
    /// from inside it (state transitions) carry issue-cycle stamps. The
    /// engine calls this before each [`MemorySystem::access`]; the
    /// default ignores it.
    fn set_now(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Checkpoint hook: serializes the complete system state (caches,
    /// lock directories, shared memory, statistics).
    fn save_ckpt(&self, w: &mut pim_ckpt::Writer);

    /// Checkpoint hook: restores state saved by
    /// [`MemorySystem::save_ckpt`] into a system built with an identical
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError`] when the checkpoint disagrees with this
    /// system's shape or is corrupt.
    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError>;
}

impl MemorySystem for PimSystem {
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        PimSystem::access(self, pe, op, addr, data)
    }

    fn area_map(&self) -> &AreaMap {
        PimSystem::area_map(self)
    }

    fn poke(&mut self, addr: Addr, value: Word) {
        PimSystem::poke(self, addr, value)
    }

    fn peek(&self, addr: Addr) -> Word {
        PimSystem::peek(self, addr)
    }

    fn bus_stats(&self) -> &BusStats {
        PimSystem::bus_stats(self)
    }

    fn ref_stats(&self) -> &RefStats {
        PimSystem::ref_stats(self)
    }

    fn access_stats(&self) -> &AccessStats {
        PimSystem::access_stats(self)
    }

    fn lock_stats(&self) -> &LockStats {
        PimSystem::lock_stats(self)
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        PimSystem::set_observer(self, observer)
    }

    fn set_now(&mut self, cycle: u64) {
        PimSystem::set_now(self, cycle)
    }

    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        PimSystem::save_ckpt(self, w)
    }

    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        PimSystem::restore_ckpt(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_cache::SystemConfig;
    use pim_trace::StorageArea;

    #[test]
    fn pim_system_implements_the_trait() {
        let mut sys: Box<dyn MemorySystem> = Box::new(PimSystem::new(SystemConfig::default()));
        let h = sys.area_map().base(StorageArea::Heap);
        sys.poke(h, 3);
        let out = sys.access(PeId(0), MemOp::Read, h, None).unwrap();
        assert_eq!(out.value(), 3);
        assert_eq!(sys.peek(h), 3);
        assert_eq!(sys.ref_stats().total(), 1);
    }
}
