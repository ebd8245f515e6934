//! The Illinois (MESI-style) baseline protocol.
//!
//! This is the comparator the paper positions the PIM cache against
//! (Papamarcos & Patel, ISCA 1984): a four-state copy-back invalidation
//! protocol in which a dirty block supplied cache-to-cache is *always*
//! copied back to shared memory during the transfer, so no shared block is
//! ever dirty — the reason the protocol needs no `SM` state, and the
//! reason its memory modules stay busier when the cache-to-cache rate is
//! high (Section 3.1).
//!
//! Differences from [`pim_cache::PimSystem`]:
//!
//! * dirty cache-to-cache supply reflectively updates memory; both copies
//!   end `S`;
//! * the optimized commands (`DW`/`ER`/`RP`/`RI`) are unconditionally
//!   downgraded — they are PIM extensions;
//! * there is no hardware lock directory: `LR` is modelled as a bus-locked
//!   read-modify-write (always a bus command, even on an exclusive hit)
//!   and every unlock broadcasts. Mutual exclusion is still enforced (the
//!   same word-lock bookkeeping) so the same workloads run unchanged —
//!   only the *costs* differ, which is what the ablation measures.

use crate::MemorySystem;
use pim_bus::{BusCommand, BusStats, SharedMemory, Transaction};
use pim_cache::array::{CacheArray, Eviction};
use pim_cache::{
    AccessStats, BlockState, LockDirectory, LockStats, Outcome, ProtocolError, SystemConfig,
};
use pim_obs::Observer;
use pim_trace::{Access, Addr, AreaMap, MemOp, PeId, RefStats, StorageArea, Word};

/// The Illinois baseline multiprocessor memory system.
///
/// Built from the same [`SystemConfig`] as the PIM system so experiments
/// can swap protocols without touching anything else (the config's
/// `opt_mask` is ignored — Illinois has no optimized commands).
#[derive(Debug)]
pub struct IllinoisSystem {
    config: SystemConfig,
    caches: Vec<CacheArray>,
    lockdirs: Vec<LockDirectory>,
    memory: SharedMemory,
    bus: BusStats,
    refs: RefStats,
    access_stats: AccessStats,
    lock_stats: LockStats,
    observer: Option<Box<dyn Observer>>,
    /// The engine-supplied current cycle, stamped onto observer events.
    now: u64,
    /// One block of scratch holding the words a fill installs, allocated
    /// once here so the miss path never allocates.
    fill_buf: Vec<Word>,
    /// One block of scratch receiving a displaced victim's words.
    evict_buf: Vec<Word>,
}

impl IllinoisSystem {
    /// Builds an Illinois system with all caches empty.
    ///
    /// # Panics
    ///
    /// Panics if `config.pes` is zero.
    pub fn new(config: SystemConfig) -> IllinoisSystem {
        assert!(config.pes > 0, "need at least one PE");
        let caches = (0..config.pes)
            .map(|_| CacheArray::new(config.geometry))
            .collect();
        let lockdirs = (0..config.pes)
            .map(|_| LockDirectory::new(config.lock_entries))
            .collect();
        let block = vec![0; config.geometry.block_words as usize];
        IllinoisSystem {
            config,
            caches,
            lockdirs,
            memory: SharedMemory::new(),
            bus: BusStats::new(),
            refs: RefStats::new(),
            access_stats: AccessStats::new(),
            lock_stats: LockStats::new(),
            observer: None,
            now: 0,
            fill_buf: block.clone(),
            evict_buf: block,
        }
    }

    /// The cache state of `addr` in `pe`'s cache (testing hook).
    pub fn cache_state(&self, pe: PeId, addr: Addr) -> BlockState {
        self.caches[pe.index()].state_of(addr)
    }

    // Observer-aware cache mutation — same funnel as `PimSystem`; plain
    // forwards when no observer is attached.

    fn emit_transition(&mut self, pe: PeId, addr: Addr, from: BlockState, to: BlockState) {
        if let Some(obs) = self.observer.as_deref_mut() {
            let area = self.config.area_map.area(addr);
            obs.state_transition(pe, area, from.into(), to.into(), self.now);
        }
    }

    fn cache_write(&mut self, pe: PeId, addr: Addr, value: Word, state: BlockState) -> bool {
        if self.observer.is_none() {
            return self.caches[pe.index()].write(addr, value, state);
        }
        let from = self.caches[pe.index()].state_of(addr);
        let wrote = self.caches[pe.index()].write(addr, value, state);
        if wrote && from != state {
            self.emit_transition(pe, addr, from, state);
        }
        wrote
    }

    fn cache_set_state(&mut self, pe: PeId, addr: Addr, state: BlockState) -> bool {
        if self.observer.is_none() {
            return self.caches[pe.index()].set_state(addr, state);
        }
        let from = self.caches[pe.index()].state_of(addr);
        let changed = self.caches[pe.index()].set_state(addr, state);
        if changed && from != state {
            self.emit_transition(pe, addr, from, state);
        }
        changed
    }

    fn cache_invalidate(&mut self, pe: PeId, addr: Addr) -> Option<BlockState> {
        let dropped = self.caches[pe.index()].invalidate(addr);
        if self.observer.is_some() {
            if let Some(from) = dropped {
                self.emit_transition(pe, addr, from, BlockState::Inv);
            }
        }
        dropped
    }

    /// Installs the block in `self.fill_buf` into `pe`'s cache. A displaced
    /// valid line's words land in `self.evict_buf`.
    fn cache_install(&mut self, pe: PeId, base: Addr, state: BlockState) -> Option<Eviction> {
        let evicted =
            self.caches[pe.index()].install(base, &self.fill_buf, state, &mut self.evict_buf);
        if self.observer.is_some() {
            if let Some(ev) = evicted {
                self.emit_transition(pe, ev.base, ev.state, BlockState::Inv);
            }
            self.emit_transition(pe, base, BlockState::Inv, state);
        }
        evicted
    }

    fn lock_conflict(&self, requester: PeId, base: Addr) -> Option<(PeId, Addr)> {
        let bw = self.config.geometry.block_words;
        self.lockdirs.iter().enumerate().find_map(|(i, dir)| {
            if i == requester.index() {
                return None;
            }
            dir.locked_word_in_block(base, bw)
                .map(|w| (PeId(i as u32), w))
        })
    }

    fn refuse(&mut self, requester: PeId, holder: PeId, word: Addr, area: StorageArea) -> Outcome {
        self.lockdirs[holder.index()].register_waiter(word, requester);
        self.lock_stats.lr_refused += 1;
        self.bus.record_refusal(area);
        Outcome::LockBusy { holder }
    }

    fn find_supplier(&self, requester: PeId, base: Addr) -> Option<(PeId, BlockState)> {
        let mut clean = None;
        for (i, cache) in self.caches.iter().enumerate() {
            if i == requester.index() {
                continue;
            }
            let state = cache.state_of(base);
            if state.is_dirty() {
                return Some((PeId(i as u32), state));
            }
            if state.is_valid() && clean.is_none() {
                clean = Some((PeId(i as u32), state));
            }
        }
        clean
    }

    /// Fetch via the bus. Illinois semantics: a dirty supplier always
    /// copies back to memory during the transfer; shared blocks are
    /// therefore always clean.
    fn fill(
        &mut self,
        pe: PeId,
        addr: Addr,
        exclusive: bool,
        area: StorageArea,
    ) -> Result<u64, PeId> {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        let bw = geom.block_words;

        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            match self.refuse(pe, holder, word, area) {
                Outcome::LockBusy { holder } => return Err(holder),
                _ => unreachable!(),
            }
        }

        self.bus.record_cmd(if exclusive {
            BusCommand::FetchInvalidate
        } else {
            BusCommand::Fetch
        });

        let supplier = self.find_supplier(pe, base);
        let (state, from_cache) = match supplier {
            Some((sup, sup_state)) => {
                let dirty = sup_state.is_dirty();
                let Some(words) = self.caches[sup.index()].block(base) else {
                    unreachable!("find_supplier returned a PE without the block")
                };
                self.fill_buf.copy_from_slice(words);
                if dirty {
                    // Illinois: the memory controller captures the data as
                    // it crosses the bus — the block becomes clean.
                    self.memory.write_block(base, &self.fill_buf);
                    self.bus
                        .record_reflective_copyback(area, &self.config.timing);
                }
                if exclusive {
                    for i in 0..self.caches.len() {
                        if i != pe.index() {
                            self.cache_invalidate(PeId(i as u32), base);
                        }
                    }
                } else {
                    self.cache_set_state(sup, base, BlockState::Shared);
                }
                let state = if exclusive {
                    BlockState::Ec
                } else {
                    BlockState::Shared
                };
                (state, true)
            }
            None => {
                self.memory.read_block(base, &mut self.fill_buf);
                (BlockState::Ec, false)
            }
        };

        let mut swap_out = false;
        if let Some(ev) = self.cache_install(pe, base, state) {
            if ev.state.is_dirty() {
                self.memory.write_block(ev.base, &self.evict_buf);
                swap_out = true;
            }
        }

        let tx = if from_cache {
            Transaction::CacheToCache { swap_out }
        } else {
            Transaction::MemoryFetch { swap_out }
        };
        self.bus.record_tx(tx, area, &self.config.timing, bw);
        Ok(self.config.timing.cycles(tx, bw))
    }

    fn upgrade(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Result<u64, PeId> {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            match self.refuse(pe, holder, word, area) {
                Outcome::LockBusy { holder } => return Err(holder),
                _ => unreachable!(),
            }
        }
        self.bus.record_cmd(BusCommand::Invalidate);
        for i in 0..self.caches.len() {
            if i != pe.index() {
                self.cache_invalidate(PeId(i as u32), base);
            }
        }
        self.bus.record_tx(
            Transaction::Invalidate,
            area,
            &self.config.timing,
            geom.block_words,
        );
        Ok(self
            .config
            .timing
            .cycles(Transaction::Invalidate, geom.block_words))
    }

    fn read(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        if let Some(value) = self.caches[pe.index()].read(addr) {
            self.access_stats.hits += 1;
            return done(value, 0, true);
        }
        match self.fill(pe, addr, false, area) {
            Err(holder) => Outcome::LockBusy { holder },
            Ok(cycles) => {
                let Some(value) = self.caches[pe.index()].read(addr) else {
                    unreachable!("fill installed the block")
                };
                done(value, cycles, false)
            }
        }
    }

    fn write(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        match self.caches[pe.index()].state_of(addr) {
            BlockState::Em | BlockState::Ec => {
                self.access_stats.hits += 1;
                self.cache_write(pe, addr, value, BlockState::Em);
                done(value, 0, true)
            }
            BlockState::Shared => {
                self.access_stats.hits += 1;
                match self.upgrade(pe, addr, area) {
                    Err(holder) => Outcome::LockBusy { holder },
                    Ok(cycles) => {
                        self.cache_write(pe, addr, value, BlockState::Em);
                        done(value, cycles, true)
                    }
                }
            }
            BlockState::Sm => unreachable!("Illinois never creates SM"),
            BlockState::Inv => match self.fill(pe, addr, true, area) {
                Err(holder) => Outcome::LockBusy { holder },
                Ok(cycles) => {
                    self.cache_write(pe, addr, value, BlockState::Em);
                    done(value, cycles, false)
                }
            },
        }
    }

    /// A conventional bus-locked read: always one bus command, even on an
    /// exclusive hit.
    fn lock_read(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if self.lockdirs[pe.index()].holds(addr) {
            return Err(ProtocolError::AlreadyLocked { addr });
        }
        let base = self.config.geometry.block_base(addr);
        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return Ok(self.refuse(pe, holder, word, area));
        }
        // Acquire the block exclusively (RMW semantics).
        let state = self.caches[pe.index()].state_of(addr);
        let fetch_cycles = match state {
            BlockState::Em | BlockState::Ec => 0,
            BlockState::Shared => match self.upgrade(pe, addr, area) {
                Err(holder) => return Ok(Outcome::LockBusy { holder }),
                Ok(c) => {
                    self.cache_set_state(pe, addr, BlockState::Ec);
                    c
                }
            },
            BlockState::Sm => unreachable!("Illinois never creates SM"),
            BlockState::Inv => match self.fill(pe, addr, true, area) {
                Err(holder) => return Ok(Outcome::LockBusy { holder }),
                Ok(c) => c,
            },
        };
        // The bus-lock broadcast itself: never free in Illinois.
        self.bus.record_cmd(BusCommand::Lock);
        self.bus.record_tx(
            Transaction::Invalidate,
            area,
            &self.config.timing,
            self.config.geometry.block_words,
        );
        let lock_cycles = self
            .config
            .timing
            .cycles(Transaction::Invalidate, self.config.geometry.block_words);

        self.lockdirs[pe.index()].lock(addr)?;
        self.lock_stats.lr_total += 1;
        self.access_stats.lookups += 1;
        let hit = state.is_valid();
        if hit {
            self.access_stats.hits += 1;
            self.lock_stats.lr_hits += 1;
        }
        let Some(value) = self.caches[pe.index()].read(addr) else {
            unreachable!("lock fill left the block resident")
        };
        Ok(done(value, fetch_cycles + lock_cycles, hit))
    }

    fn release(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<(u64, Vec<PeId>), ProtocolError> {
        let woken = self.lockdirs[pe.index()].unlock(addr)?;
        self.lock_stats.unlock_total += 1;
        // Conventional locks always broadcast the release.
        self.bus.record_cmd(BusCommand::Unlock);
        self.bus.record_tx(
            Transaction::Unlock,
            area,
            &self.config.timing,
            self.config.geometry.block_words,
        );
        let cycles = self
            .config
            .timing
            .cycles(Transaction::Unlock, self.config.geometry.block_words);
        Ok((cycles, woken))
    }
}

impl MemorySystem for IllinoisSystem {
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        assert!(pe.index() < self.caches.len(), "unknown {pe}");
        let area = self.config.area_map.area(addr);
        // Illinois has none of the optimized commands.
        let eff = match op.downgraded() {
            MemOp::LockRead | MemOp::WriteUnlock | MemOp::Unlock => op,
            plain => plain,
        };
        let outcome = match eff {
            MemOp::Read => self.read(pe, addr, area),
            MemOp::Write => {
                let Some(value) = data else {
                    unreachable!("write operations always carry a data word")
                };
                self.write(pe, addr, value, area)
            }
            MemOp::LockRead => self.lock_read(pe, addr, area)?,
            MemOp::WriteUnlock => {
                if !self.lockdirs[pe.index()].holds(addr) {
                    return Err(ProtocolError::NotLocked { addr });
                }
                let Some(value) = data else {
                    unreachable!("write operations always carry a data word")
                };
                let w = self.write(pe, addr, value, area);
                let (mut cycles, hit) = match w {
                    Outcome::Done {
                        bus_cycles, hit, ..
                    } => (bus_cycles, hit),
                    Outcome::LockBusy { .. } => unreachable!("held lock keeps others away"),
                };
                let (ul, woken) = self.release(pe, addr, area)?;
                cycles += ul;
                Outcome::Done {
                    value,
                    bus_cycles: cycles,
                    hit,
                    woken,
                }
            }
            MemOp::Unlock => {
                if !self.lockdirs[pe.index()].holds(addr) {
                    return Err(ProtocolError::NotLocked { addr });
                }
                let (cycles, woken) = self.release(pe, addr, area)?;
                Outcome::Done {
                    value: 0,
                    bus_cycles: cycles,
                    hit: true,
                    woken,
                }
            }
            other => unreachable!("downgrade left {other}"),
        };
        if matches!(outcome, Outcome::Done { .. }) {
            self.refs.record(Access::new(pe, eff, addr, area));
        }
        Ok(outcome)
    }

    fn area_map(&self) -> &AreaMap {
        &self.config.area_map
    }

    fn poke(&mut self, addr: Addr, value: Word) {
        self.memory.write(addr, value);
    }

    fn peek(&self, addr: Addr) -> Word {
        for cache in &self.caches {
            if let Some(v) = cache.snapshot_word(addr) {
                return v;
            }
        }
        self.memory.read(addr)
    }

    fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    fn ref_stats(&self) -> &RefStats {
        &self.refs
    }

    fn access_stats(&self) -> &AccessStats {
        &self.access_stats
    }

    fn lock_stats(&self) -> &LockStats {
        &self.lock_stats
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.caches.len());
        for cache in &self.caches {
            cache.save_ckpt(w);
        }
        for dir in &self.lockdirs {
            dir.save_ckpt(w);
        }
        self.memory.save_ckpt(w);
        self.bus.save_ckpt(w);
        self.refs.save_ckpt(w);
        let a = &self.access_stats;
        for v in [
            a.lookups,
            a.hits,
            a.dw_allocations,
            a.dw_contract_violations,
            a.purges,
            a.dirty_purges,
        ] {
            w.put_u64(v);
        }
        let l = &self.lock_stats;
        for v in [
            l.lr_total,
            l.lr_hits,
            l.lr_hits_exclusive,
            l.unlock_total,
            l.unlock_no_waiter,
            l.lr_refused,
            l.max_simultaneous_locks,
        ] {
            w.put_u64(v);
        }
        w.put_u64(self.now);
    }

    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        let n = r.get_len()?;
        if n != self.caches.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("system has {} PEs, checkpoint has {n}", self.caches.len()),
            });
        }
        for cache in self.caches.iter_mut() {
            cache.restore_ckpt(r)?;
        }
        for dir in self.lockdirs.iter_mut() {
            dir.restore_ckpt(r)?;
        }
        self.memory.restore_ckpt(r)?;
        self.bus.restore_ckpt(r)?;
        self.refs.restore_ckpt(r)?;
        let a = &mut self.access_stats;
        for v in [
            &mut a.lookups,
            &mut a.hits,
            &mut a.dw_allocations,
            &mut a.dw_contract_violations,
            &mut a.purges,
            &mut a.dirty_purges,
        ] {
            *v = r.get_u64()?;
        }
        let l = &mut self.lock_stats;
        for v in [
            &mut l.lr_total,
            &mut l.lr_hits,
            &mut l.lr_hits_exclusive,
            &mut l.unlock_total,
            &mut l.unlock_no_waiter,
            &mut l.lr_refused,
            &mut l.max_simultaneous_locks,
        ] {
            *v = r.get_u64()?;
        }
        self.now = r.get_u64()?;
        Ok(())
    }
}

fn done(value: Word, bus_cycles: u64, hit: bool) -> Outcome {
    Outcome::Done {
        value,
        bus_cycles,
        hit,
        woken: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
