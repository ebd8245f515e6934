//! The coherence engine: N PEs' caches and lock directories around a
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
//! # One cache bank, one snoop per bus command
//!
//! Every PE's cache lives in one [`CacheBank`], stored set-major: a set's
//! row holds PE 0's ways, then PE 1's, and so on. In the paper's machine
//! every cache directory checks each bus command at once (Section 3);
//! here one scan of the block's row answers it. An access finds the
//! requester's line once and every step acts on that [`Line`] handle;
//! `fill` returns the line it installed. A bus command snoops once: the
//! pass yields each remote PE's line holding the block, in PE order,
//! and the supplier — the first dirty holder, else the lowest-numbered
//! one. The `FI` copy and invalidations, the `F` supplier's state change,
//! an upgrade's `I` invalidations, the `DW` contract check and `ER`'s
//! supplier test all reuse that pass, and invalidations and observer
//! events come in PE order. A count of the locks held across all lock
//! directories skips the lock snoop while no lock is held.
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
//! calls (the cache bank, lock directory, geometry, block-state and
//! optimization-mask methods) are `#[inline]` so that those calls can
//! still be inlined there; without that, simbench's miss-heavy
//! `replay-heap-mix` replay ran about 9 % slower on a 2-vCPU host than
//! the same code compiled in this crate.

use crate::array::{CacheBank, Eviction, Line, DW_POISON};
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
    /// The requester's line the block was installed in (`None` for the
    /// `RP` bypass).
    line: Option<Line>,
}

impl Filled {
    /// The line of a fill that installed its block.
    fn line(&self) -> Line {
        self.line
            .unwrap_or_else(|| unreachable!("the fill installed its block"))
    }
}

/// A snooping multiprocessor memory system running protocol `P`: the PIM
/// cache ([`crate::PimSystem`]) or the Illinois baseline
/// ([`crate::IllinoisSystem`]).
#[derive(Debug)]
pub struct CoherentSystem<P> {
    protocol: PhantomData<P>,
    config: SystemConfig,
    /// Every PE's cache, one row per set.
    bank: CacheBank,
    /// Each PE's lock directory.
    lockdirs: Vec<LockDirectory>,
    /// Locks held across all lock directories: while it is zero no `LH`
    /// refusal is possible and the lock snoop is skipped.
    locks_held: usize,
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
    /// The last snoop's remote holders, in PE order; room for `pes` lines
    /// is allocated once here.
    holders: Vec<Line>,
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
            bank: self.bank.clone(),
            lockdirs: self.lockdirs.clone(),
            locks_held: self.locks_held,
            memory: self.memory.clone(),
            bus: self.bus.clone(),
            refs: self.refs.clone(),
            access_stats: self.access_stats,
            lock_stats: self.lock_stats,
            observer: None,
            now: self.now,
            fill_buf: self.fill_buf.clone(),
            evict_buf: self.evict_buf.clone(),
            holders: Vec::with_capacity(self.lockdirs.len()),
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
        let pes = config.pes as usize;
        let block = vec![0; config.geometry.block_words as usize];
        CoherentSystem {
            protocol: PhantomData,
            bank: CacheBank::new(config.geometry, pes),
            lockdirs: vec![LockDirectory::new(config.lock_entries); pes],
            locks_held: 0,
            config,
            memory: SharedMemory::new(),
            bus: BusStats::new(),
            refs: RefStats::new(),
            access_stats: AccessStats::new(),
            lock_stats: LockStats::new(),
            observer: None,
            now: 0,
            fill_buf: block.clone(),
            evict_buf: block,
            holders: Vec::with_capacity(pes),
        }
    }

    /// Checkpoint hook: serializes the complete coherence state — every
    /// PE's cache and lock directory, the shared memory, and the
    /// system-level statistics accumulators.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.lockdirs.len());
        for (i, lockdir) in self.lockdirs.iter().enumerate() {
            self.bank.save_ckpt(PeId(i as u32), w);
            lockdir.save_ckpt(w);
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
        if n != self.lockdirs.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("system has {} PEs, checkpoint has {n}", self.lockdirs.len()),
            });
        }
        for (i, lockdir) in self.lockdirs.iter_mut().enumerate() {
            self.bank.restore_ckpt(PeId(i as u32), r)?;
            lockdir.restore_ckpt(r)?;
        }
        self.locks_held = self.lockdirs.iter().map(LockDirectory::len).sum();
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
        self.lockdirs
            .iter()
            .enumerate()
            .find_map(|(i, d)| d.holds(addr).then(|| (PeId(i as u32), d.waiters(addr))))
    }

    /// The cache-side view of `addr`'s block in `pe`'s cache: its protocol
    /// state and data words, or `None` when not resident (testing hook for
    /// model checking — excludes replacement bookkeeping on purpose, so two
    /// systems with equal views are behaviorally equivalent on one block).
    pub fn cache_view(&self, pe: PeId, addr: Addr) -> Option<(BlockState, Vec<Word>)> {
        let line = self.bank.find(pe, addr)?;
        Some((self.bank.state(line), self.bank.block(line).to_vec()))
    }

    /// The lock-directory view of `addr` in `pe`'s own directory: its entry
    /// state and registered waiters, or `None` when absent (testing hook).
    pub fn lock_view(&self, pe: PeId, addr: Addr) -> Option<(LockState, Vec<PeId>)> {
        let lockdir = &self.lockdirs[pe.index()];
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
            self.bank.copies(addr).next().is_none(),
            "poke under a cached block"
        );
        self.memory.write(addr, value);
    }

    /// Reads memory bypassing caches and statistics — for result
    /// inspection after a run. Prefers a cached copy (the freshest data)
    /// over memory.
    pub fn peek(&self, addr: Addr) -> Word {
        match self.bank.copies(addr).next() {
            Some(line) => self.bank.word(line, addr),
            None => self.memory.read(addr),
        }
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
        assert!((pe.index()) < self.lockdirs.len(), "unknown {pe}");
        let area = self.config.area_map.area(addr);
        let eff = if P::OPTIMIZED_COMMANDS {
            self.config.opt_mask.effective(area, op)
        } else {
            op.downgraded()
        };
        // The requester's line, found once: every operation acts on it.
        let local = self.bank.find(pe, addr);
        let geom = self.config.geometry;

        let outcome = match eff {
            MemOp::Read => self.read(pe, local, addr, area),
            MemOp::Write => self.write(pe, local, addr, expect_data(eff, data), area),
            MemOp::DirectWrite => {
                let first = geom.is_block_boundary(addr);
                self.direct_write(pe, local, addr, expect_data(eff, data), first, area)
            }
            MemOp::DirectWriteDown => {
                let first = geom.is_last_word(addr);
                self.direct_write(pe, local, addr, expect_data(eff, data), first, area)
            }
            MemOp::ExclusiveRead => self.exclusive_read(pe, local, addr, area),
            MemOp::ReadPurge => self.read_purge(pe, local, addr, area),
            MemOp::ReadInvalidate => self.read_invalidate(pe, local, addr, area),
            MemOp::LockRead => self.lock_read(pe, local, addr, area)?,
            MemOp::WriteUnlock => {
                self.write_unlock(pe, local, addr, expect_data(eff, data), area)?
            }
            MemOp::Unlock => self.unlock(pe, addr, area)?,
        };

        if matches!(outcome, Outcome::Done { .. }) {
            self.refs.record(Access::new(pe, eff, addr, area));
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Observer-aware line mutation (every state change funnels through
    // these three; with no observer they only touch the bank)
    // ------------------------------------------------------------------

    fn emit_transition(&mut self, pe: PeId, addr: Addr, from: BlockState, to: BlockState) {
        if let Some(obs) = self.observer.as_deref_mut() {
            let area = self.config.area_map.area(addr);
            obs.state_transition(pe, area, from.into(), to.into(), self.now);
        }
    }

    /// Writes `value` at `addr` into `line`, moving it to `state`.
    fn write_line(&mut self, line: Line, addr: Addr, value: Word, state: BlockState) {
        let from = self.bank.state(line);
        self.bank.write(line, addr, value, state);
        if from != state {
            self.emit_transition(line.pe(), addr, from, state);
        }
    }

    /// Moves `line` (holding `addr`) to `state` without touching data or
    /// LRU; returns the old state.
    fn set_line_state(&mut self, line: Line, addr: Addr, state: BlockState) -> BlockState {
        let from = self.bank.set_state(line, state);
        if from != state {
            self.emit_transition(line.pe(), addr, from, state);
        }
        from
    }

    /// Installs the block in `self.fill_buf` into `pe`'s cache and
    /// returns its line. A displaced valid line's words land in
    /// `self.evict_buf`.
    fn install(&mut self, pe: PeId, base: Addr, state: BlockState) -> (Line, Option<Eviction>) {
        let (line, evicted) =
            self.bank
                .install(pe, base, &self.fill_buf, state, &mut self.evict_buf);
        if self.observer.is_some() {
            if let Some(ev) = evicted {
                self.emit_transition(pe, ev.base, ev.state, BlockState::Inv);
            }
            self.emit_transition(pe, base, BlockState::Inv, state);
        }
        (line, evicted)
    }

    // ------------------------------------------------------------------
    // Snooping helpers
    // ------------------------------------------------------------------

    /// The `LH` response to `requester`'s bus command on `base`'s block:
    /// if a remote lock directory holds a word inside the block, registers
    /// `requester` as a busy-waiter on that lock, charges the refused bus
    /// request and returns the holder.
    fn lock_refusal(&mut self, requester: PeId, base: Addr, area: StorageArea) -> Option<PeId> {
        if self.locks_held == 0 {
            return None;
        }
        let bw = self.config.geometry.block_words;
        let (holder, word) = self.lockdirs.iter().enumerate().find_map(|(i, d)| {
            if i == requester.index() {
                return None;
            }
            d.locked_word_in_block(base, bw).map(|w| (i, w))
        })?;
        self.lockdirs[holder].register_waiter(word, requester);
        self.lock_stats.lr_refused += 1;
        self.bus.record_refusal(area);
        Some(PeId(holder as u32))
    }

    /// Snoops `base`'s block for `requester`: every other PE's line
    /// holding it lands in `self.holders` (PE order), and the supplier —
    /// the first dirty holder, else the lowest-numbered one — is returned.
    fn snoop(&mut self, requester: PeId, base: Addr) -> Option<Line> {
        self.bank.snoop(requester, base, &mut self.holders)
    }

    // ------------------------------------------------------------------
    // The fill engine (F / FI bus transactions)
    // ------------------------------------------------------------------

    /// Snoops for and acquires the block containing `addr` for `pe` via
    /// the bus (see [`CoherentSystem::fill_from`]).
    fn fill(
        &mut self,
        pe: PeId,
        addr: Addr,
        exclusive: bool,
        install: bool,
        area: StorageArea,
    ) -> Result<Filled, PeId> {
        let base = self.config.geometry.block_base(addr);
        let supplier = self.snoop(pe, base);
        self.fill_from(pe, base, supplier, exclusive, install, area)
    }

    /// Acquires `base`'s block for `pe` via the bus, given the snoop that
    /// found `supplier` (its remote holders are in `self.holders`).
    /// Returns `Err(holder)` on an `LH` refusal.
    ///
    /// `exclusive` selects `FI` (invalidate all other copies, no memory
    /// copy-back of dirty data — the `SM`-state optimization) over `F`
    /// (supplier keeps a shared copy). Under a protocol whose dirty supply
    /// does not migrate, a dirty block is reflected into memory first and
    /// the transfer proceeds as a clean one. `install` controls whether the
    /// block enters `pe`'s cache (false for the `RP` bypass). The block's
    /// words are left in `self.fill_buf`.
    fn fill_from(
        &mut self,
        pe: PeId,
        base: Addr,
        supplier: Option<Line>,
        exclusive: bool,
        install: bool,
        area: StorageArea,
    ) -> Result<Filled, PeId> {
        if let Some(holder) = self.lock_refusal(pe, base, area) {
            return Err(holder);
        }
        self.bus.record_cmd(if exclusive {
            BusCommand::FetchInvalidate
        } else {
            BusCommand::Fetch
        });

        let (state, source) = match supplier {
            Some(sup) => {
                self.fill_buf.copy_from_slice(self.bank.block(sup));
                let mut dirty = self.bank.state(sup).is_dirty();
                if exclusive {
                    // FI: every other copy dies, in PE order; dirty data
                    // migrates to the requester without updating memory
                    // (unless reflected below).
                    for k in 0..self.holders.len() {
                        self.set_line_state(self.holders[k], base, BlockState::Inv);
                    }
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
                    self.set_line_state(sup, base, new_state);
                }
                let state = match (exclusive, dirty) {
                    (true, true) => BlockState::Em,
                    (true, false) => BlockState::Ec,
                    (false, _) => BlockState::Shared,
                };
                (state, FillSource::Cache(sup.pe(), dirty))
            }
            None => {
                self.memory.read_block(base, &mut self.fill_buf);
                (BlockState::Ec, FillSource::Memory)
            }
        };

        let mut swap_out = false;
        let mut line = None;
        if install {
            let (installed, evicted) = self.install(pe, base, state);
            line = Some(installed);
            if let Some(ev) = evicted {
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
        let bw = self.config.geometry.block_words;
        let cycles = self.bus.record_tx(tx, area, &self.config.timing, bw);
        Ok(Filled {
            cycles,
            source,
            line,
        })
    }

    /// Invalidates every other copy of `addr`'s block via an `I` broadcast
    /// (a write/lock upgrade on a shared block). Returns `Err(holder)` on
    /// an `LH` refusal, otherwise the bus cycles consumed and whether a
    /// *dirty* remote copy was dropped — in that case the upgrader's copy
    /// (bit-identical, by the coherence invariant) inherits the write-back
    /// obligation and must end in `EM`, never `EC`.
    fn upgrade(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Result<(u64, bool), PeId> {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        if let Some(holder) = self.lock_refusal(pe, base, area) {
            return Err(holder);
        }
        self.bus.record_cmd(BusCommand::Invalidate);
        self.snoop(pe, base);
        let mut dropped_dirty = false;
        for k in 0..self.holders.len() {
            let state = self.set_line_state(self.holders[k], base, BlockState::Inv);
            dropped_dirty |= state.is_dirty();
        }
        let cycles = self.bus.record_tx(
            Transaction::Invalidate,
            area,
            &self.config.timing,
            geom.block_words,
        );
        Ok((cycles, dropped_dirty))
    }

    // ------------------------------------------------------------------
    // Memory operations (Section 3.2)
    // ------------------------------------------------------------------

    fn read(&mut self, pe: PeId, local: Option<Line>, addr: Addr, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        if let Some(line) = local {
            self.access_stats.hits += 1;
            return done(self.bank.read(line, addr), 0, true);
        }
        let filled = self.fill(pe, addr, false, true, area);
        self.read_filled(addr, filled)
    }

    /// Completes a read miss: reads `addr` from the line the fill
    /// installed.
    fn read_filled(&mut self, addr: Addr, filled: Result<Filled, PeId>) -> Outcome {
        match filled {
            Err(holder) => Outcome::LockBusy { holder },
            Ok(f) => done(self.bank.read(f.line(), addr), f.cycles, false),
        }
    }

    fn write(
        &mut self,
        pe: PeId,
        local: Option<Line>,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Outcome {
        self.access_stats.lookups += 1;
        let (line, cycles, hit) = match local {
            Some(line) => {
                self.access_stats.hits += 1;
                let cycles = if self.bank.state(line).is_exclusive() {
                    0
                } else {
                    match self.upgrade(pe, addr, area) {
                        Err(holder) => return Outcome::LockBusy { holder },
                        Ok((cycles, _)) => cycles,
                    }
                };
                (line, cycles, true)
            }
            None => match self.fill(pe, addr, true, true, area) {
                Err(holder) => return Outcome::LockBusy { holder },
                Ok(f) => (f.line(), f.cycles, false),
            },
        };
        self.write_line(line, addr, value, BlockState::Em);
        done(value, cycles, hit)
    }

    /// `DW` and `DWD` (Section 3.2 (1)): on a miss on the block's `first`
    /// word with no remote copies, allocate without fetching; otherwise
    /// behave as `W`. For `DW` the first word is the block boundary,
    /// which optimizes *upward*-growing allocation (heap, records). `DWD`
    /// is its downward-growing mirror — the paper notes that depending on
    /// the block-boundary definition `DW` serves one stack direction only,
    /// and "to optimize both, two commands are necessary": a downward
    /// stack touches the *last* word of each new block first.
    fn direct_write(
        &mut self,
        pe: PeId,
        local: Option<Line>,
        addr: Addr,
        value: Word,
        first: bool,
        area: StorageArea,
    ) -> Outcome {
        if !first || local.is_some() {
            // Case (ii): not the first word (or already resident): plain
            // write.
            return self.write(pe, local, addr, value, area);
        }
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        if self.snoop(pe, base).is_some() {
            // The software contract ("remote caches do not have a
            // corresponding cache block") is violated; fall back to W and
            // count it so workloads can be audited.
            self.access_stats.dw_contract_violations += 1;
            return self.write(pe, local, addr, value, area);
        }

        self.access_stats.lookups += 1;
        self.access_stats.dw_allocations += 1;
        self.fill_buf.fill(DW_POISON);
        self.fill_buf[(addr - base) as usize] = value;
        let mut cycles = 0;
        if let (_, Some(ev)) = self.install(pe, base, BlockState::Em) {
            if ev.state.is_dirty() {
                // The only swap-out-only bus pattern in the protocol.
                self.memory.write_block(ev.base, &self.evict_buf);
                cycles = self.bus.record_tx(
                    Transaction::SwapOutOnly,
                    area,
                    &self.config.timing,
                    geom.block_words,
                );
            }
        }
        done(value, cycles, false)
    }

    /// `ER` (Section 3.2 (2)): read-invalidate on a remote miss that is
    /// not the last word; read-purge on a hit to the last word; plain read
    /// otherwise.
    fn exclusive_read(
        &mut self,
        pe: PeId,
        local: Option<Line>,
        addr: Addr,
        area: StorageArea,
    ) -> Outcome {
        let geom = self.config.geometry;
        let last = geom.is_last_word(addr);
        match local {
            Some(line) if last => {
                // Case (ii): read, then forcibly purge the local block —
                // dead data is discarded without a swap-out.
                self.access_stats.lookups += 1;
                self.access_stats.hits += 1;
                let value = self.bank.read(line, addr);
                self.purge(line, addr);
                done(value, 0, true)
            }
            Some(_) => self.read(pe, local, addr, area),
            None => {
                // Case (i), a remote copy to take and not the last word:
                // fetch with invalidation of the supplier (RI). Otherwise
                // case (iii): automatic downgrade to R.
                self.access_stats.lookups += 1;
                let base = geom.block_base(addr);
                let supplier = self.snoop(pe, base);
                let exclusive = supplier.is_some() && !last;
                let filled = self.fill_from(pe, base, supplier, exclusive, true, area);
                self.read_filled(addr, filled)
            }
        }
    }

    /// `RP` (Section 3.2 (3)): read and forcibly purge; on a miss the
    /// supplier is invalidated and the transferred block bypasses the
    /// local cache entirely (it would be purged immediately anyway).
    fn read_purge(
        &mut self,
        pe: PeId,
        local: Option<Line>,
        addr: Addr,
        area: StorageArea,
    ) -> Outcome {
        self.access_stats.lookups += 1;
        if let Some(line) = local {
            self.access_stats.hits += 1;
            let value = self.bank.read(line, addr);
            self.purge(line, addr);
            return done(value, 0, true);
        }
        match self.fill(pe, addr, true, false, area) {
            Err(holder) => Outcome::LockBusy { holder },
            Ok(f) => {
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
    fn read_invalidate(
        &mut self,
        pe: PeId,
        local: Option<Line>,
        addr: Addr,
        area: StorageArea,
    ) -> Outcome {
        if local.is_some() {
            return self.read(pe, local, addr, area);
        }
        self.access_stats.lookups += 1;
        let filled = self.fill(pe, addr, true, true, area);
        self.read_filled(addr, filled)
    }

    /// Invalidates the requester's own `line` (holding `addr`) without a
    /// swap-out.
    fn purge(&mut self, line: Line, addr: Addr) {
        let state = self.set_line_state(line, addr, BlockState::Inv);
        self.access_stats.purges += 1;
        if state.is_dirty() {
            self.access_stats.dirty_purges += 1;
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
        local: Option<Line>,
        addr: Addr,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if self.lockdirs[pe.index()].holds(addr) {
            return Err(ProtocolError::AlreadyLocked { addr });
        }
        let base = self.config.geometry.block_base(addr);
        if let Some(holder) = self.lock_refusal(pe, base, area) {
            return Ok(Outcome::LockBusy { holder });
        }

        self.access_stats.lookups += 1;
        let state = local.map_or(BlockState::Inv, |line| self.bank.state(line));
        let (line, mut cycles) = match local {
            // The bus-free case the hardware lock exists for: no other
            // cache can hold the block, so registering locally is safe.
            Some(line) if state.is_exclusive() => (line, 0),
            Some(line) => {
                let (cycles, dropped_dirty) = match self.upgrade(pe, addr, area) {
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
                self.set_line_state(line, addr, upgraded);
                (line, cycles)
            }
            None => match self.fill(pe, addr, true, true, area) {
                Err(holder) => return Ok(Outcome::LockBusy { holder }),
                Ok(f) => (f.line(), f.cycles),
            },
        };
        if !P::LOCK_DIRECTORY {
            // The bus-lock broadcast itself: never free without the
            // hardware lock directory.
            self.bus.record_cmd(BusCommand::Lock);
            let bw = self.config.geometry.block_words;
            cycles += self
                .bus
                .record_tx(Transaction::Invalidate, area, &self.config.timing, bw);
        } else if !state.is_exclusive() {
            // `LK` rode on the `I`/`FI` that acquired exclusivity.
            self.bus.record_cmd(BusCommand::Lock);
        }
        self.lockdirs[pe.index()].lock(addr)?;
        self.locks_held += 1;
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
        let value = self.bank.read(line, addr);
        Ok(done(value, cycles, hit))
    }

    /// `UW`: write the locked word, then unlock it. The write is always
    /// exclusive (the lock directory kept other PEs away), except after a
    /// self-eviction, which refetches from memory.
    fn write_unlock(
        &mut self,
        pe: PeId,
        local: Option<Line>,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if !self.lockdirs[pe.index()].holds(addr) {
            return Err(ProtocolError::NotLocked { addr });
        }
        let write_outcome = self.write(pe, local, addr, value, area);
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
        if !self.lockdirs[pe.index()].holds(addr) {
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
        let depth = self.lockdirs[pe.index()].len() as u64;
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
        let woken = self.lockdirs[pe.index()].unlock(addr)?;
        self.locks_held -= 1;
        self.lock_stats.unlock_total += 1;
        if P::LOCK_DIRECTORY && woken.is_empty() {
            self.lock_stats.unlock_no_waiter += 1;
            return Ok((0, woken));
        }
        self.bus.record_cmd(BusCommand::Unlock);
        let cycles = self.bus.record_tx(
            Transaction::Unlock,
            area,
            &self.config.timing,
            self.config.geometry.block_words,
        );
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
    /// All copies of a block sit in one row of the bank, so the check
    /// walks the rows in set order and checks each block's copies in PE
    /// order, in place: which violation it reports first is fixed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        let mut list: Vec<(PeId, BlockState)> = Vec::with_capacity(self.lockdirs.len());
        for base in self.bank.blocks() {
            list.clear();
            list.extend(
                self.bank
                    .copies(base)
                    .map(|line| (line.pe(), self.bank.state(line))),
            );
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
            let mut copies = self.bank.copies(base).map(|line| self.bank.block(line));
            let first = copies.next();
            if copies.any(|words| Some(words) != first) {
                return Err(format!("block {base:#x}: copies diverge"));
            }
        }
        Ok(())
    }

    /// The cache state of `addr` in `pe`'s cache (testing hook).
    pub fn cache_state(&self, pe: PeId, addr: Addr) -> BlockState {
        self.bank
            .find(pe, addr)
            .map_or(BlockState::Inv, |line| self.bank.state(line))
    }

    /// Whether `pe` currently holds a lock on `addr` (testing hook).
    pub fn holds_lock(&self, pe: PeId, addr: Addr) -> bool {
        self.lockdirs[pe.index()].holds(addr)
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

#[cfg(test)]
mod tests {
    use crate::{BlockState, CacheGeometry, PimSystem, SystemConfig};
    use pim_trace::{PeId, StorageArea};

    #[test]
    fn the_lowest_sets_violation_is_reported_first() {
        // 8 sets × 2 ways × 4-word blocks: block `b` sits in set `b % 8`.
        let mut sys = PimSystem::new(SystemConfig {
            pes: 2,
            geometry: CacheGeometry::with_shape(64, 4, 2),
            ..SystemConfig::default()
        });
        let heap = sys.area_map().base(StorageArea::Heap);
        let (set3, set1) = (heap + 3 * 4, heap + 4);
        // The higher set's block goes in first, so install order cannot
        // decide which violation is found.
        for (base, state) in [(set3, BlockState::Em), (set1, BlockState::Sm)] {
            for pe in [PeId(1), PeId(0)] {
                sys.bank.install(pe, base, &[7; 4], state, &mut [0; 4]);
            }
        }
        let err = sys.check_coherence_invariants().expect_err("incoherent");
        assert_eq!(
            err,
            format!("block {set1:#x}: 2 dirty copies: [(PeId(0), Sm), (PeId(1), Sm)]")
        );
    }
}
