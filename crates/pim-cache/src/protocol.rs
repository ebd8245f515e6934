//! The coherence engine: N per-PE caches and lock directories around a
//! snooping bus and one shared memory.
//!
//! [`CoherentSystem`] is driven one memory operation at a time and is fully
//! deterministic. It runs the PIM protocol ([`crate::PimSystem`]) and the
//! Illinois baseline ([`crate::IllinoisSystem`]) alike: the three rules in
//! which they differ are compile-time constants of a
//! [`CoherenceProtocol`] (see [`crate::rules`]), and the rest of this
//! module is shared. It plays three roles at once:
//!
//! * a **functional memory**: every read returns the value of the latest
//!   write to that address (assuming the software contracts of the
//!   optimized commands are respected);
//! * a **coherence state machine** implementing Section 3 of the paper:
//!   five block states, the separate lock directory, the `DW`/`ER`/`RP`/
//!   `RI` command special cases with their automatic downgrades — or,
//!   under the Illinois rules, four states, bus-locked locks and no
//!   optimized commands;
//! * a **traffic meter** recording bus cycles, transaction patterns, bus
//!   commands, reference mixes, hit ratios and lock ratios for the paper's
//!   tables and figures.
//!
//! # Locking and the `LH` response
//!
//! A PE's lock directory snoops the bus and refuses (responds `LH` to) any
//! remote command targeting a block that contains one of its locked words.
//! The check is **block-granular** by design: if only exact word matches
//! were refused, another PE could acquire the block exclusively by touching
//! a neighbouring word and then satisfy a later `LR` *from its own cache
//! with no bus command* — silently breaking mutual exclusion. Refusing
//! exclusivity on the whole locked block keeps the zero-cost
//! `LR`-hit-to-exclusive optimization sound. Lock hold times in KL1 are a
//! handful of cycles, so the extra refusals are negligible (Table 5).
//!
//! On a refusal the requester receives [`Outcome::LockBusy`] and must retry
//! after the holder's `UL` broadcast — the woken PEs are reported in
//! [`Outcome::Done::woken`] of the unlocking operation.
//!
//! # Inlining
//!
//! The engine is generic over its protocol, so it is compiled in each
//! crate that instantiates it, not in this one. The per-access helpers it
//! calls (the cache array, lock directory, geometry, block-state and
//! optimization-mask methods) are `#[inline]` so that those calls can
//! still be inlined there; without that, simbench's miss-heavy
//! `replay-heap-mix` replay ran about 9 % slower on a 2-vCPU host than
//! the same code compiled in this crate.

use crate::array::{CacheArray, Eviction, DW_POISON};
use crate::rules::CoherenceProtocol;
use crate::{
    AccessStats, BlockState, CacheGeometry, LockDirectory, LockState, LockStats, OptMask,
    ProtocolError,
};
use pim_bus::{BusCommand, BusStats, BusTiming, SharedMemory, Transaction};
use pim_obs::Observer;
use pim_trace::{Access, Addr, AreaMap, MemOp, PeId, RefStats, StorageArea, Word};
use std::marker::PhantomData;

/// Configuration of a [`CoherentSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of processing elements on the bus (paper default: 8).
    pub pes: u32,
    /// Per-PE cache geometry.
    pub geometry: CacheGeometry,
    /// Bus/memory timing.
    pub timing: BusTiming,
    /// Which optimized commands are honoured where (ignored by protocols
    /// without them, such as Illinois).
    pub opt_mask: OptMask,
    /// Lock-directory entries per PE.
    pub lock_entries: usize,
    /// The storage-area partition of the address space.
    pub area_map: AreaMap,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            pes: 8,
            geometry: CacheGeometry::paper_default(),
            timing: BusTiming::paper_default(),
            opt_mask: OptMask::all(),
            lock_entries: 4,
            area_map: AreaMap::standard(),
        }
    }
}

/// Result of one memory operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The operation completed.
    Done {
        /// The word read (for reads) or written (for writes); 0 for `U`.
        value: Word,
        /// Bus cycles this operation consumed (0 for local hits).
        bus_cycles: u64,
        /// Whether the cache lookup hit a resident block.
        hit: bool,
        /// PEs woken by an `UL` broadcast (only ever non-empty for
        /// `UW`/`U` on an `LWAIT` entry).
        woken: Vec<PeId>,
    },
    /// The operation hit a word locked by `holder` and received an `LH`
    /// response; the issuer must busy-wait and retry after `holder`
    /// broadcasts `UL`.
    LockBusy {
        /// The PE whose lock directory refused the request.
        holder: PeId,
    },
}

impl Outcome {
    /// The value of a completed operation.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is [`Outcome::LockBusy`].
    pub fn value(&self) -> Word {
        match self {
            Outcome::Done { value, .. } => *value,
            Outcome::LockBusy { holder } => panic!("operation refused by {holder}"),
        }
    }

    /// The bus cycles of a completed operation (0 if refused).
    pub fn bus_cycles(&self) -> u64 {
        match self {
            Outcome::Done { bus_cycles, .. } => *bus_cycles,
            Outcome::LockBusy { .. } => 0,
        }
    }
}

/// How a fill acquired its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillSource {
    /// Supplied cache-to-cache by this PE; `true` if the copy was dirty.
    Cache(PeId, bool),
    /// Fetched from shared global memory.
    Memory,
}

/// A completed fill. The block's words are in `CoherentSystem::fill_buf`.
struct Filled {
    cycles: u64,
    source: FillSource,
}

enum FillOutcome {
    Filled(Filled),
    Refused { holder: PeId },
}

/// One PE's private side of the system: its cache array and its lock
/// directory.
#[derive(Debug, Clone)]
struct Pe {
    cache: CacheArray,
    lockdir: LockDirectory,
}

/// A snooping multiprocessor memory system running protocol `P`: the PIM
/// cache ([`crate::PimSystem`]) or the Illinois baseline
/// ([`crate::IllinoisSystem`]).
#[derive(Debug)]
pub struct CoherentSystem<P> {
    protocol: PhantomData<P>,
    config: SystemConfig,
    pes: Vec<Pe>,
    memory: SharedMemory,
    bus: BusStats,
    refs: RefStats,
    access_stats: AccessStats,
    lock_stats: LockStats,
    observer: Option<Box<dyn Observer>>,
    /// The engine-supplied current cycle, stamped onto observer events
    /// emitted from inside the protocol (state transitions).
    now: u64,
    /// One block of scratch: the words a fill moves into the requester's
    /// cache (or, for the `RP` bypass, hands to the requester directly).
    /// Allocated once here so the miss path never allocates.
    fill_buf: Vec<Word>,
    /// One block of scratch receiving the victim's words when an install
    /// displaces a valid line.
    evict_buf: Vec<Word>,
}

impl<P: CoherenceProtocol> Clone for CoherentSystem<P> {
    /// Clones the full simulation state. The observer (not clonable) is
    /// dropped — clones observe nothing until
    /// [`CoherentSystem::set_observer`] is called on them. Used by
    /// state-space exploration tests.
    fn clone(&self) -> CoherentSystem<P> {
        CoherentSystem {
            protocol: PhantomData,
            config: self.config.clone(),
            pes: self.pes.clone(),
            memory: self.memory.clone(),
            bus: self.bus.clone(),
            refs: self.refs.clone(),
            access_stats: self.access_stats,
            lock_stats: self.lock_stats,
            observer: None,
            now: self.now,
            fill_buf: self.fill_buf.clone(),
            evict_buf: self.evict_buf.clone(),
        }
    }
}

impl<P: CoherenceProtocol> CoherentSystem<P> {
    /// Builds a system with all caches empty and memory zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `config.pes` is zero.
    pub fn new(config: SystemConfig) -> CoherentSystem<P> {
        assert!(config.pes > 0, "need at least one PE");
        let pes = (0..config.pes)
            .map(|_| Pe {
                cache: CacheArray::new(config.geometry),
                lockdir: LockDirectory::new(config.lock_entries),
            })
            .collect();
        let block = vec![0; config.geometry.block_words as usize];
        CoherentSystem {
            protocol: PhantomData,
            config,
            pes,
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

    /// Checkpoint hook: serializes the complete coherence state — every
    /// PE's cache array and lock directory, the shared memory, and the
    /// system-level statistics accumulators.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.pes.len());
        for pe in &self.pes {
            pe.cache.save_ckpt(w);
            pe.lockdir.save_ckpt(w);
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

    /// Checkpoint hook: restores a system saved by
    /// [`CoherentSystem::save_ckpt`] into a freshly built system of the
    /// same configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the PE count (or any nested
    /// geometry) disagrees with this system's configuration.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let n = r.get_len()?;
        if n != self.pes.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("system has {} PEs, checkpoint has {n}", self.pes.len()),
            });
        }
        for pe in self.pes.iter_mut() {
            pe.cache.restore_ckpt(r)?;
            pe.lockdir.restore_ckpt(r)?;
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

    /// Reads a word from shared memory itself, ignoring caches — exposes
    /// the "is memory current?" side of the coherence invariants to tests.
    pub fn memory_word(&self, addr: Addr) -> Word {
        self.memory.read(addr)
    }

    /// The lock-directory view of `addr` across all PEs: the holding PE
    /// and its registered waiters, if any PE holds a lock on that word
    /// (testing hook for lock-invariant checks).
    pub fn lock_holder(&self, addr: Addr) -> Option<(PeId, Vec<PeId>)> {
        self.pes.iter().enumerate().find_map(|(i, p)| {
            p.lockdir
                .holds(addr)
                .then(|| (PeId(i as u32), p.lockdir.waiters(addr)))
        })
    }

    /// The cache-side view of `addr`'s block in `pe`'s cache: its protocol
    /// state and data words, or `None` when not resident (testing hook for
    /// model checking — excludes replacement bookkeeping on purpose, so two
    /// systems with equal views are behaviorally equivalent on one block).
    pub fn cache_view(&self, pe: PeId, addr: Addr) -> Option<(BlockState, Vec<Word>)> {
        let cache = &self.pes[pe.index()].cache;
        let words = cache.block(addr)?.to_vec();
        Some((cache.state_of(addr), words))
    }

    /// The lock-directory view of `addr` in `pe`'s own directory: its entry
    /// state and registered waiters, or `None` when absent (testing hook).
    pub fn lock_view(&self, pe: PeId, addr: Addr) -> Option<(LockState, Vec<PeId>)> {
        let lockdir = &self.pes[pe.index()].lockdir;
        let state = lockdir.state_of(addr)?;
        Some((state, lockdir.waiters(addr)))
    }

    /// Attaches an observer receiving a [`pim_obs::Observer::state_transition`]
    /// event for every cache-block state change in any PE's cache. With no
    /// observer attached (the default) the protocol does no extra work.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// Sets the simulated cycle stamped onto observer events emitted by
    /// the protocol. The driving engine calls this before each
    /// [`CoherentSystem::access`] with the operation's issue cycle.
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// The configured area map.
    pub fn area_map(&self) -> &AreaMap {
        &self.config.area_map
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Accumulated bus statistics.
    pub fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    /// Accumulated reference statistics (by area and effective operation).
    pub fn ref_stats(&self) -> &RefStats {
        &self.refs
    }

    /// Accumulated hit/miss and purge statistics.
    pub fn access_stats(&self) -> &AccessStats {
        &self.access_stats
    }

    /// Accumulated lock-protocol statistics (Table 5).
    pub fn lock_stats(&self) -> &LockStats {
        &self.lock_stats
    }

    /// Initializes memory without touching caches or statistics — used to
    /// load program text and boot images before measurement starts.
    pub fn poke(&mut self, addr: Addr, value: Word) {
        debug_assert!(
            !self.pes.iter().any(|p| p.cache.contains(addr)),
            "poke under a cached block"
        );
        self.memory.write(addr, value);
    }

    /// Reads memory bypassing caches and statistics — for result
    /// inspection after a run. Prefers a cached copy (the freshest data)
    /// over memory.
    pub fn peek(&self, addr: Addr) -> Word {
        for pe in &self.pes {
            if let Some(v) = pe.cache.snapshot_word(addr) {
                return v;
            }
        }
        self.memory.read(addr)
    }

    /// Performs one memory operation for `pe`.
    ///
    /// `data` must be `Some` for `W`, `DW` and `UW`, and is ignored
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on lock misuse (double lock, unlock of
    /// an unheld word, lock-directory overflow) — always a bug in the
    /// issuing abstract machine.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range, `addr` is outside the area map, or
    /// `data` is `None` for a write operation.
    pub fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        assert!((pe.index()) < self.pes.len(), "unknown {pe}");
        let area = self.config.area_map.area(addr);
        let eff = if P::OPTIMIZED_COMMANDS {
            self.config.opt_mask.effective(area, op)
        } else {
            op.downgraded()
        };

        let outcome = match eff {
            MemOp::Read => self.read(pe, addr, area),
            MemOp::Write => self.write(pe, addr, expect_data(eff, data), area),
            MemOp::DirectWrite => self.direct_write(pe, addr, expect_data(eff, data), area),
            MemOp::DirectWriteDown => {
                self.direct_write_down(pe, addr, expect_data(eff, data), area)
            }
            MemOp::ExclusiveRead => self.exclusive_read(pe, addr, area),
            MemOp::ReadPurge => self.read_purge(pe, addr, area),
            MemOp::ReadInvalidate => self.read_invalidate(pe, addr, area),
            MemOp::LockRead => self.lock_read(pe, addr, area)?,
            MemOp::WriteUnlock => self.write_unlock(pe, addr, expect_data(eff, data), area)?,
            MemOp::Unlock => self.unlock(pe, addr, area)?,
        };

        if matches!(outcome, Outcome::Done { .. }) {
            self.refs.record(Access::new(pe, eff, addr, area));
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Observer-aware cache mutation (every state change funnels through
    // these four wrappers; with no observer they are plain forwards)
    // ------------------------------------------------------------------

    fn emit_transition(&mut self, pe: PeId, addr: Addr, from: BlockState, to: BlockState) {
        if let Some(obs) = self.observer.as_deref_mut() {
            let area = self.config.area_map.area(addr);
            obs.state_transition(pe, area, from.into(), to.into(), self.now);
        }
    }

    fn cache_write(&mut self, pe: PeId, addr: Addr, value: Word, state: BlockState) -> bool {
        if self.observer.is_none() {
            return self.pes[pe.index()].cache.write(addr, value, state);
        }
        let from = self.pes[pe.index()].cache.state_of(addr);
        let wrote = self.pes[pe.index()].cache.write(addr, value, state);
        if wrote && from != state {
            self.emit_transition(pe, addr, from, state);
        }
        wrote
    }

    /// Reads a word the protocol has just verified (or made) resident
    /// in `pe`'s cache. Residency is an invariant at every call site,
    /// so a miss here is a protocol bug, not a recoverable condition.
    fn read_resident(&mut self, pe: PeId, addr: Addr) -> Word {
        let Some(value) = self.pes[pe.index()].cache.read(addr) else {
            unreachable!("word {addr:#x} verified resident on PE{}", pe.0)
        };
        value
    }

    fn cache_set_state(&mut self, pe: PeId, addr: Addr, state: BlockState) -> bool {
        if self.observer.is_none() {
            return self.pes[pe.index()].cache.set_state(addr, state);
        }
        let from = self.pes[pe.index()].cache.state_of(addr);
        let changed = self.pes[pe.index()].cache.set_state(addr, state);
        if changed && from != state {
            self.emit_transition(pe, addr, from, state);
        }
        changed
    }

    fn cache_invalidate(&mut self, pe: PeId, addr: Addr) -> Option<BlockState> {
        let dropped = self.pes[pe.index()].cache.invalidate(addr);
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
            self.pes[pe.index()]
                .cache
                .install(base, &self.fill_buf, state, &mut self.evict_buf);
        if self.observer.is_some() {
            if let Some(ev) = evicted {
                self.emit_transition(pe, ev.base, ev.state, BlockState::Inv);
            }
            self.emit_transition(pe, base, BlockState::Inv, state);
        }
        evicted
    }

    // ------------------------------------------------------------------
    // Snooping helpers
    // ------------------------------------------------------------------

    /// A remote lock directory holding a word inside `base`'s block, if
    /// any: `(holder, locked word)`.
    fn lock_conflict(&self, requester: PeId, base: Addr) -> Option<(PeId, Addr)> {
        let bw = self.config.geometry.block_words;
        self.pes.iter().enumerate().find_map(|(i, p)| {
            if i == requester.index() {
                return None;
            }
            p.lockdir
                .locked_word_in_block(base, bw)
                .map(|w| (PeId(i as u32), w))
        })
    }

    /// Registers `requester` as a busy-waiter on `holder`'s lock and
    /// charges the refused bus request.
    fn refuse(
        &mut self,
        requester: PeId,
        holder: PeId,
        locked_word: Addr,
        area: StorageArea,
    ) -> Outcome {
        self.pes[holder.index()]
            .lockdir
            .register_waiter(locked_word, requester);
        self.lock_stats.lr_refused += 1;
        self.bus.record_refusal(area);
        Outcome::LockBusy { holder }
    }

    /// The PE that will supply a block cache-to-cache: prefers the dirty
    /// owner, falls back to the lowest-numbered valid holder.
    fn find_supplier(&self, requester: PeId, base: Addr) -> Option<(PeId, BlockState)> {
        let mut clean = None;
        for (i, p) in self.pes.iter().enumerate() {
            if i == requester.index() {
                continue;
            }
            let state = p.cache.state_of(base);
            if state.is_dirty() {
                return Some((PeId(i as u32), state));
            }
            if state.is_valid() && clean.is_none() {
                clean = Some((PeId(i as u32), state));
            }
        }
        clean
    }

    /// Whether any other cache holds `base` (the `DW` contract check).
    fn held_remotely(&self, requester: PeId, base: Addr) -> bool {
        self.pes
            .iter()
            .enumerate()
            .any(|(i, p)| i != requester.index() && p.cache.contains(base))
    }

    // ------------------------------------------------------------------
    // The fill engine (F / FI bus transactions)
    // ------------------------------------------------------------------

    /// Acquires the block containing `addr` for `pe` via the bus.
    ///
    /// `exclusive` selects `FI` (invalidate all other copies, no memory
    /// copy-back of dirty data — the `SM`-state optimization) over `F`
    /// (supplier keeps a shared copy). Under a protocol whose dirty supply
    /// does not migrate, a dirty block is reflected into memory first and
    /// the transfer proceeds as a clean one. `install` controls whether the
    /// block enters `pe`'s cache (false for the `RP` bypass). `with_lock`
    /// adds an `LK` broadcast riding on the command. The block's words
    /// are left in `self.fill_buf`.
    fn fill(
        &mut self,
        pe: PeId,
        addr: Addr,
        exclusive: bool,
        install: bool,
        with_lock: bool,
        area: StorageArea,
    ) -> FillOutcome {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        let bw = geom.block_words;

        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return FillOutcome::Refused {
                holder: self.refuse_holder(pe, holder, word, area),
            };
        }

        self.bus.record_cmd(if exclusive {
            BusCommand::FetchInvalidate
        } else {
            BusCommand::Fetch
        });
        if with_lock {
            self.bus.record_cmd(BusCommand::Lock);
        }

        let supplier = self.find_supplier(pe, base);
        let (state, source) = match supplier {
            Some((sup, sup_state)) => {
                let mut dirty = sup_state.is_dirty();
                if exclusive {
                    // FI: every other copy dies; dirty data migrates to the
                    // requester without updating memory (unless reflected
                    // below). Each copy is taken before its invalidation:
                    // the supplier's, or else the first dirty one.
                    let mut copied = false;
                    for i in 0..self.pes.len() {
                        if i == pe.index() {
                            continue;
                        }
                        let cache = &self.pes[i].cache;
                        if let Some(words) = cache.block(base) {
                            if i == sup.index() || (cache.state_of(base).is_dirty() && !copied) {
                                self.fill_buf.copy_from_slice(words);
                                copied = true;
                            }
                        }
                        self.cache_invalidate(PeId(i as u32), base);
                    }
                    if !copied {
                        unreachable!("supplier had the block");
                    }
                } else {
                    // F: the supplier keeps the data.
                    let Some(words) = self.pes[sup.index()].cache.block(base) else {
                        unreachable!("supplier had the block")
                    };
                    self.fill_buf.copy_from_slice(words);
                }
                if dirty && !P::DIRTY_SUPPLY_MIGRATES {
                    // Illinois: the memory controller captures the data as
                    // it crosses the bus — the block becomes clean.
                    self.memory.write_block(base, &self.fill_buf);
                    self.bus
                        .record_reflective_copyback(area, &self.config.timing);
                    dirty = false;
                }
                if !exclusive {
                    // A dirty supplier becomes the SM owner, a clean
                    // exclusive one drops to S. Memory is not updated.
                    let new_state = if dirty {
                        BlockState::Sm
                    } else {
                        BlockState::Shared
                    };
                    self.cache_set_state(sup, base, new_state);
                }
                let state = match (exclusive, dirty) {
                    (true, true) => BlockState::Em,
                    (true, false) => BlockState::Ec,
                    (false, _) => BlockState::Shared,
                };
                (state, FillSource::Cache(sup, dirty))
            }
            None => {
                self.memory.read_block(base, &mut self.fill_buf);
                (BlockState::Ec, FillSource::Memory)
            }
        };

        let mut swap_out = false;
        if install {
            if let Some(ev) = self.cache_install(pe, base, state) {
                if ev.state.is_dirty() {
                    self.memory.write_block(ev.base, &self.evict_buf);
                    swap_out = true;
                }
            }
        }

        let tx = match source {
            FillSource::Cache(..) => Transaction::CacheToCache { swap_out },
            FillSource::Memory => Transaction::MemoryFetch { swap_out },
        };
        self.bus.record_tx(tx, area, &self.config.timing, bw);
        let cycles = self.config.timing.cycles(tx, bw);

        FillOutcome::Filled(Filled { cycles, source })
    }

    /// Like [`CoherentSystem::refuse`] but usable from `fill` (returns just the
    /// holder id for plumbing through [`FillOutcome`]).
    fn refuse_holder(
        &mut self,
        requester: PeId,
        holder: PeId,
        locked_word: Addr,
        area: StorageArea,
    ) -> PeId {
        match self.refuse(requester, holder, locked_word, area) {
            Outcome::LockBusy { holder } => holder,
            _ => unreachable!(),
        }
    }

    /// Invalidates every other copy of `addr`'s block via an `I` broadcast
    /// (a write/lock upgrade on a shared block). Returns `Err(holder)` on
    /// an `LH` refusal, otherwise the bus cycles consumed and whether a
    /// *dirty* remote copy was dropped — in that case the upgrader's copy
    /// (bit-identical, by the coherence invariant) inherits the write-back
    /// obligation and must end in `EM`, never `EC`.
    fn upgrade(
        &mut self,
        pe: PeId,
        addr: Addr,
        with_lock: bool,
        area: StorageArea,
    ) -> Result<(u64, bool), PeId> {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return Err(self.refuse_holder(pe, holder, word, area));
        }
        self.bus.record_cmd(BusCommand::Invalidate);
        if with_lock {
            self.bus.record_cmd(BusCommand::Lock);
        }
        let mut dropped_dirty = false;
        for i in 0..self.pes.len() {
            if i != pe.index() {
                if let Some(state) = self.cache_invalidate(PeId(i as u32), base) {
                    dropped_dirty |= state.is_dirty();
                }
            }
        }
        self.bus.record_tx(
            Transaction::Invalidate,
            area,
            &self.config.timing,
            geom.block_words,
        );
        Ok((
            self.config
                .timing
                .cycles(Transaction::Invalidate, geom.block_words),
            dropped_dirty,
        ))
    }

    // ------------------------------------------------------------------
    // Memory operations (Section 3.2)
    // ------------------------------------------------------------------

    fn read(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        if let Some(value) = self.pes[pe.index()].cache.read(addr) {
            self.access_stats.hits += 1;
            return done(value, 0, true);
        }
        match self.fill(pe, addr, false, true, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                let value = self.read_resident(pe, addr);
                done(value, f.cycles, false)
            }
        }
    }

    fn write(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        match self.pes[pe.index()].cache.state_of(addr) {
            BlockState::Em | BlockState::Ec => {
                self.access_stats.hits += 1;
                self.cache_write(pe, addr, value, BlockState::Em);
                done(value, 0, true)
            }
            BlockState::Sm | BlockState::Shared => {
                self.access_stats.hits += 1;
                match self.upgrade(pe, addr, false, area) {
                    Err(holder) => Outcome::LockBusy { holder },
                    Ok((cycles, _)) => {
                        self.cache_write(pe, addr, value, BlockState::Em);
                        done(value, cycles, true)
                    }
                }
            }
            BlockState::Inv => match self.fill(pe, addr, true, true, false, area) {
                FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
                FillOutcome::Filled(f) => {
                    self.cache_write(pe, addr, value, BlockState::Em);
                    done(value, f.cycles, false)
                }
            },
        }
    }

    /// `DW` (Section 3.2 (1)): on a block-boundary miss with no remote
    /// copies, allocate without fetching; otherwise behave as `W`.
    /// Optimizes *upward*-growing allocation (heap, records).
    fn direct_write(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        let geom = self.config.geometry;
        if !geom.is_block_boundary(addr) || self.pes[pe.index()].cache.contains(addr) {
            // Case (ii): not a boundary (or already resident): plain write.
            return self.write(pe, addr, value, area);
        }
        self.direct_allocate(pe, addr, value, area)
    }

    /// `DWD`: the downward-growing mirror of `DW` — the paper notes that
    /// depending on the block-boundary definition `DW` serves one stack
    /// direction only, and "to optimize both, two commands are necessary".
    /// A downward stack touches the *last* word of each new block first.
    fn direct_write_down(
        &mut self,
        pe: PeId,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Outcome {
        let geom = self.config.geometry;
        if !geom.is_last_word(addr) || self.pes[pe.index()].cache.contains(addr) {
            return self.write(pe, addr, value, area);
        }
        self.direct_allocate(pe, addr, value, area)
    }

    /// The shared allocate-without-fetch path of `DW`/`DWD`.
    fn direct_allocate(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        let geom = self.config.geometry;
        if self.held_remotely(pe, addr) {
            // The software contract ("remote caches do not have a
            // corresponding cache block") is violated; fall back to W and
            // count it so workloads can be audited.
            self.access_stats.dw_contract_violations += 1;
            return self.write(pe, addr, value, area);
        }

        self.access_stats.lookups += 1;
        self.access_stats.dw_allocations += 1;
        let base = geom.block_base(addr);
        self.fill_buf.fill(DW_POISON);
        self.fill_buf[(addr - base) as usize] = value;
        let mut cycles = 0;
        if let Some(ev) = self.cache_install(pe, base, BlockState::Em) {
            if ev.state.is_dirty() {
                // The only swap-out-only bus pattern in the protocol.
                self.memory.write_block(ev.base, &self.evict_buf);
                self.bus.record_tx(
                    Transaction::SwapOutOnly,
                    area,
                    &self.config.timing,
                    geom.block_words,
                );
                cycles = self
                    .config
                    .timing
                    .cycles(Transaction::SwapOutOnly, geom.block_words);
            }
        }
        done(value, cycles, false)
    }

    /// `ER` (Section 3.2 (2)): read-invalidate on a remote miss that is
    /// not the last word; read-purge on a hit to the last word; plain read
    /// otherwise.
    fn exclusive_read(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        let geom = self.config.geometry;
        let resident = self.pes[pe.index()].cache.contains(addr);
        if resident {
            if geom.is_last_word(addr) {
                // Case (ii): read, then forcibly purge the local block —
                // dead data is discarded without a swap-out.
                self.access_stats.lookups += 1;
                self.access_stats.hits += 1;
                let value = self.read_resident(pe, addr);
                self.purge_local(pe, addr);
                return done(value, 0, true);
            }
            return self.read(pe, addr, area);
        }
        if self.find_supplier(pe, addr).is_some() && !geom.is_last_word(addr) {
            // Case (i): fetch with invalidation of the supplier (RI).
            self.access_stats.lookups += 1;
            return match self.fill(pe, addr, true, true, false, area) {
                FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
                FillOutcome::Filled(f) => {
                    let value = self.read_resident(pe, addr);
                    done(value, f.cycles, false)
                }
            };
        }
        // Case (iii): automatic downgrade to R.
        self.read(pe, addr, area)
    }

    /// `RP` (Section 3.2 (3)): read and forcibly purge; on a miss the
    /// supplier is invalidated and the transferred block bypasses the
    /// local cache entirely (it would be purged immediately anyway).
    fn read_purge(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        if self.pes[pe.index()].cache.contains(addr) {
            self.access_stats.hits += 1;
            let value = self.read_resident(pe, addr);
            self.purge_local(pe, addr);
            return done(value, 0, true);
        }
        match self.fill(pe, addr, true, false, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                let offset = (addr % self.config.geometry.block_words) as usize;
                self.access_stats.purges += 1;
                if matches!(f.source, FillSource::Cache(_, true)) {
                    self.access_stats.dirty_purges += 1;
                }
                done(self.fill_buf[offset], f.cycles, false)
            }
        }
    }

    /// `RI` (Section 3.2 (4)): read with intent to rewrite — a miss
    /// fetches exclusively (`FI`) so the later write needs no `I`.
    fn read_invalidate(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        if self.pes[pe.index()].cache.contains(addr) {
            return self.read(pe, addr, area);
        }
        self.access_stats.lookups += 1;
        match self.fill(pe, addr, true, true, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                let value = self.read_resident(pe, addr);
                done(value, f.cycles, false)
            }
        }
    }

    fn purge_local(&mut self, pe: PeId, addr: Addr) {
        if let Some(state) = self.cache_invalidate(pe, addr) {
            self.access_stats.purges += 1;
            if state.is_dirty() {
                self.access_stats.dirty_purges += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Lock operations (Sections 3.1, 3.3)
    // ------------------------------------------------------------------

    /// `LR`: lock a word and read it. With the hardware lock directory it
    /// is free when the block is already held exclusively; otherwise `LK`
    /// rides on the `I`/`FI` that acquires exclusivity. Without it, `LR`
    /// is a bus-locked read-modify-write: the block is acquired
    /// exclusively, then the lock itself always costs a bus command.
    fn lock_read(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if self.pes[pe.index()].lockdir.holds(addr) {
            return Err(ProtocolError::AlreadyLocked { addr });
        }
        let base = self.config.geometry.block_base(addr);
        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return Ok(self.refuse(pe, holder, word, area));
        }

        self.access_stats.lookups += 1;
        let state = self.pes[pe.index()].cache.state_of(addr);
        // `LK` rides on the `I`/`FI` only with the hardware lock directory.
        let with_lock = P::LOCK_DIRECTORY;
        let mut cycles = match state {
            // The bus-free case the hardware lock exists for: no other
            // cache can hold the block, so registering locally is safe.
            BlockState::Em | BlockState::Ec => 0,
            BlockState::Sm | BlockState::Shared => {
                let (cycles, dropped_dirty) = match self.upgrade(pe, addr, with_lock, area) {
                    Err(holder) => return Ok(Outcome::LockBusy { holder }),
                    Ok(c) => c,
                };
                // If we were SM, or we dropped the SM owner's copy, the
                // data differs from memory: keep the dirty obligation.
                let upgraded = if state == BlockState::Sm || dropped_dirty {
                    BlockState::Em
                } else {
                    BlockState::Ec
                };
                self.cache_set_state(pe, addr, upgraded);
                cycles
            }
            BlockState::Inv => match self.fill(pe, addr, true, true, with_lock, area) {
                FillOutcome::Refused { holder } => return Ok(Outcome::LockBusy { holder }),
                FillOutcome::Filled(f) => f.cycles,
            },
        };
        if !P::LOCK_DIRECTORY {
            // The bus-lock broadcast itself: never free without the
            // hardware lock directory.
            self.bus.record_cmd(BusCommand::Lock);
            let bw = self.config.geometry.block_words;
            self.bus
                .record_tx(Transaction::Invalidate, area, &self.config.timing, bw);
            cycles += self.config.timing.cycles(Transaction::Invalidate, bw);
        }
        self.pes[pe.index()].lockdir.lock(addr)?;
        self.lock_stats.lr_total += 1;
        let hit = state.is_valid();
        if P::LOCK_DIRECTORY {
            self.note_lock_depth(pe);
            if state.is_exclusive() {
                self.lock_stats.lr_hits_exclusive += 1;
            }
        }
        if hit {
            self.lock_stats.lr_hits += 1;
            self.access_stats.hits += 1;
        }
        let value = self.read_resident(pe, addr);
        Ok(done(value, cycles, hit))
    }

    /// `UW`: write the locked word, then unlock it. The write is always
    /// exclusive (the lock directory kept other PEs away), except after a
    /// self-eviction, which refetches from memory.
    fn write_unlock(
        &mut self,
        pe: PeId,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if !self.pes[pe.index()].lockdir.holds(addr) {
            return Err(ProtocolError::NotLocked { addr });
        }
        let write_outcome = self.write(pe, addr, value, area);
        let (mut cycles, hit) = match write_outcome {
            Outcome::Done {
                bus_cycles, hit, ..
            } => (bus_cycles, hit),
            Outcome::LockBusy { .. } => {
                unreachable!("a held lock keeps other PEs off the block")
            }
        };
        let (ul_cycles, woken) = self.release(pe, addr, area)?;
        cycles += ul_cycles;
        Ok(Outcome::Done {
            value,
            bus_cycles: cycles,
            hit,
            woken,
        })
    }

    /// `U`: unlock without writing.
    fn unlock(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if !self.pes[pe.index()].lockdir.holds(addr) {
            return Err(ProtocolError::NotLocked { addr });
        }
        let (cycles, woken) = self.release(pe, addr, area)?;
        Ok(Outcome::Done {
            value: 0,
            bus_cycles: cycles,
            hit: true,
            woken,
        })
    }

    /// Records the lock-directory occupancy high-water mark.
    fn note_lock_depth(&mut self, pe: PeId) {
        let depth = self.pes[pe.index()].lockdir.len() as u64;
        if depth > self.lock_stats.max_simultaneous_locks {
            self.lock_stats.max_simultaneous_locks = depth;
        }
    }

    /// Removes the lock entry; broadcasts `UL` only when someone waits —
    /// or always, without the hardware lock directory.
    fn release(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<(u64, Vec<PeId>), ProtocolError> {
        let woken = self.pes[pe.index()].lockdir.unlock(addr)?;
        self.lock_stats.unlock_total += 1;
        if P::LOCK_DIRECTORY && woken.is_empty() {
            self.lock_stats.unlock_no_waiter += 1;
            return Ok((0, woken));
        }
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

    // ------------------------------------------------------------------
    // Invariant checking (tests, property tests)
    // ------------------------------------------------------------------

    /// Verifies the coherence invariants across all caches:
    ///
    /// 1. an exclusive (`EM`/`EC`) copy is the only valid copy;
    /// 2. at most one dirty (`EM`/`SM`) copy exists per block;
    /// 3. when a block is multiply held, every holder is `S` except at
    ///    most one `SM` owner;
    /// 4. all valid copies of a block are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut holders: HashMap<Addr, Vec<(PeId, BlockState)>> = HashMap::new();
        for (i, p) in self.pes.iter().enumerate() {
            for (base, state) in p.cache.valid_blocks() {
                holders
                    .entry(base)
                    .or_default()
                    .push((PeId(i as u32), state));
            }
        }
        for (base, list) in holders {
            let exclusive = list.iter().filter(|(_, s)| s.is_exclusive()).count();
            let dirty = list.iter().filter(|(_, s)| s.is_dirty()).count();
            if exclusive > 0 && list.len() > 1 {
                return Err(format!(
                    "block {base:#x}: exclusive copy not alone: {list:?}"
                ));
            }
            if dirty > 1 {
                return Err(format!("block {base:#x}: {dirty} dirty copies: {list:?}"));
            }
            if list.len() > 1 {
                for (pe, s) in &list {
                    if !matches!(s, BlockState::Shared | BlockState::Sm) {
                        return Err(format!(
                            "block {base:#x}: {pe} holds {s} while shared: {list:?}"
                        ));
                    }
                }
            }
            let first = self.pes[list[0].0.index()].cache.block(base);
            for (pe, _) in &list[1..] {
                if self.pes[pe.index()].cache.block(base) != first {
                    return Err(format!("block {base:#x}: copies diverge"));
                }
            }
        }
        Ok(())
    }

    /// The cache state of `addr` in `pe`'s cache (testing hook).
    pub fn cache_state(&self, pe: PeId, addr: Addr) -> BlockState {
        self.pes[pe.index()].cache.state_of(addr)
    }

    /// Whether `pe` currently holds a lock on `addr` (testing hook).
    pub fn holds_lock(&self, pe: PeId, addr: Addr) -> bool {
        self.pes[pe.index()].lockdir.holds(addr)
    }
}

#[inline]
fn done(value: Word, bus_cycles: u64, hit: bool) -> Outcome {
    Outcome::Done {
        value,
        bus_cycles,
        hit,
        woken: Vec::new(),
    }
}

#[inline]
fn expect_data(op: MemOp, data: Option<Word>) -> Word {
    data.unwrap_or_else(|| panic!("{op} requires a data word"))
}
