//! The cache bank: every PE's set-associative cache in one set-major
//! store (tags, states, data, LRU).

use crate::{BlockState, CacheGeometry};
use pim_trace::{Addr, PeId, Word};

/// Fill pattern for words of a direct-written block that were never
/// written. Reading one back indicates a violated `DW` software contract,
/// which the protocol layer surfaces as a statistic.
pub const DW_POISON: Word = 0xDEAD_BEEF_DEAD_BEEF;

/// One line of a [`CacheBank`]: its index in the bank and the PE whose
/// cache it belongs to.
///
/// A handle names a line, not a block: it stays meaningful only while the
/// line keeps the block it was found or installed with. The protocol
/// finds a PE's line once per access and acts on it until the access ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    index: usize,
    pe: PeId,
}

impl Line {
    /// The PE whose cache holds the line.
    #[inline]
    pub fn pe(self) -> PeId {
        self.pe
    }
}

/// The set-associative caches of all PEs on the bus, stored set-major.
///
/// Set `s` of every PE's cache forms one *row*: PE 0's ways, then PE 1's,
/// and so on, so line `(s, pe, way)` sits at index
/// `(s * pes + pe) * ways + way`. A bus snoop, which asks every cache
/// about one block, reads one contiguous row instead of one set in each
/// of `pes` separate arrays ([`CacheBank::snoop`]); a PE's own lookup
/// reads the `ways` entries of its slice of the row.
///
/// Storage is struct-of-arrays over that index: states in one vector, and
/// one more vector holding every tag, then every LRU stamp, then every
/// line's words (line `i`'s at `i * block_words` of that part). Validity
/// lives in the state alone, so a tag may use all 64 bits (one-word
/// blocks in one set). Each PE keeps its own LRU clock, so stamps and
/// victims are those of separate per-PE caches.
///
/// Tags, stamps and words share one allocation because building a system
/// then costs what it did with separate per-PE arrays. With a vector each
/// (the largest 256 KiB at the paper's geometry), simbench's
/// `kl1-tri-profiled` spent 75–85 µs building its system instead of
/// 18–21 µs; a larger glibc trim threshold closed the gap, so the freed
/// vectors went back to the operating system and were faulted in again
/// for the next system.
///
/// The bank is a passive structure: it answers lookups, installs and
/// evicts blocks, and tracks LRU — all *decisions* (what to fetch, whom to
/// invalidate, what a transaction costs) live in
/// [`crate::protocol::CoherentSystem`]. Addresses are split with shifts
/// and masks precomputed from the power-of-two block size and set count.
/// No operation allocates: block contents leave the bank by borrow
/// ([`CacheBank::block`]) or into a buffer the caller owns
/// ([`CacheBank::install`]).
#[derive(Debug, Clone)]
pub struct CacheBank {
    geometry: CacheGeometry,
    /// Ways per set of one PE's cache.
    ways: usize,
    /// `pes * ways`: the lines of one row.
    row: usize,
    /// `log2(block_words)`: an address shifted right by this is its block
    /// number.
    block_shift: u32,
    /// `log2(block_words * sets)`: an address shifted right by this is its
    /// tag.
    tag_shift: u32,
    /// `block_words - 1`: masks an address to its word offset.
    offset_mask: u64,
    /// `sets - 1`: masks a block number to its set index.
    set_mask: u64,
    states: Vec<BlockState>,
    /// Every line's tag, then every line's LRU stamp, then every line's
    /// words: one allocation.
    store: Vec<u64>,
    /// The number of lines: `store`'s LRU stamps start here.
    lines: usize,
    /// `2 * lines`: where `store`'s words start.
    data_at: usize,
    /// Each PE's LRU clock.
    clocks: Vec<u64>,
}

/// The valid line an [`CacheBank::install`] displaced. Its words were
/// copied into the caller's eviction buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted block.
    pub base: Addr,
    /// Its state at eviction (dirty states require a swap-out).
    pub state: BlockState,
}

/// The way of a PE's set slice holding `tag`, if any.
#[inline]
fn way_of(tags: &[u64], states: &[BlockState], tag: u64) -> Option<usize> {
    tags.iter()
        .zip(states)
        .position(|(&t, s)| t == tag && s.is_valid())
}

impl CacheBank {
    /// Creates `pes` empty (all-invalid) caches of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `pes` or `ways` is zero, or `block_words` or `sets` is not
    /// a power of two. [`CacheGeometry::with_shape`] guarantees the
    /// geometry's part, but its fields are public, so a struct literal can
    /// bypass it.
    pub fn new(geometry: CacheGeometry, pes: usize) -> CacheBank {
        let CacheGeometry {
            block_words,
            sets,
            ways,
        } = geometry;
        assert!(pes > 0, "a cache bank needs at least one PE");
        assert!(ways > 0, "cache ways must be at least 1");
        assert!(
            block_words.is_power_of_two(),
            "cache block_words must be a power of two, got {block_words}"
        );
        assert!(
            sets.is_power_of_two(),
            "cache sets must be a power of two, got {sets}"
        );
        let row = pes * ways as usize;
        let lines = sets as usize * row;
        CacheBank {
            geometry,
            ways: ways as usize,
            row,
            block_shift: block_words.trailing_zeros(),
            tag_shift: block_words.trailing_zeros() + sets.trailing_zeros(),
            offset_mask: block_words - 1,
            set_mask: sets - 1,
            states: vec![BlockState::Inv; lines],
            store: vec![0; lines * (2 + block_words as usize)],
            lines,
            data_at: 2 * lines,
            clocks: vec![0; pes],
        }
    }

    /// The geometry of each PE's cache.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The number of PEs whose caches the bank holds.
    pub fn pes(&self) -> usize {
        self.clocks.len()
    }

    /// Splits an address into `(tag, set index)`.
    #[inline]
    fn split(&self, addr: Addr) -> (u64, usize) {
        (
            addr >> self.tag_shift,
            ((addr >> self.block_shift) & self.set_mask) as usize,
        )
    }

    /// The index of `pe`'s first way in `set`.
    #[inline]
    fn slice_start(&self, pe: PeId, set: usize) -> usize {
        debug_assert!(pe.index() < self.pes(), "unknown {pe}");
        set * self.row + pe.index() * self.ways
    }

    /// The index into `store` of `addr`'s word in line `i`.
    #[inline]
    fn word_index(&self, i: usize, addr: Addr) -> usize {
        self.data_at + ((i << self.block_shift) | (addr & self.offset_mask) as usize)
    }

    /// The range of `store` holding line `i`'s words.
    #[inline]
    fn words(&self, i: usize) -> std::ops::Range<usize> {
        self.data_at + (i << self.block_shift)..self.data_at + ((i + 1) << self.block_shift)
    }

    /// `pe`'s line holding the block containing `addr`.
    #[inline]
    pub fn find(&self, pe: PeId, addr: Addr) -> Option<Line> {
        let (tag, set) = self.split(addr);
        let start = self.slice_start(pe, set);
        let end = start + self.ways;
        // Tags open `store`, so a line's tag is at its own index.
        let way = way_of(&self.store[start..end], &self.states[start..end], tag)?;
        Some(Line {
            index: start + way,
            pe,
        })
    }

    /// A mask of the lines in `range` (at most 64, one bit each from the
    /// range's start) that hold a valid copy of `tag`. Branch-free, so the
    /// cost of a row scan does not depend on where the copies are.
    #[inline]
    fn hits(&self, range: std::ops::Range<usize>, tag: u64) -> u64 {
        let tags = &self.store[range.clone()];
        let states = &self.states[range];
        let mut hits = 0;
        for (k, (&t, &s)) in tags.iter().zip(states).enumerate() {
            hits |= u64::from((t == tag) & s.is_valid()) << k;
        }
        hits
    }

    /// Every PE's line holding the block containing `addr`, in PE order:
    /// one scan of the block's row, 64 lines at a time.
    #[inline]
    pub fn copies(&self, addr: Addr) -> impl Iterator<Item = Line> + '_ {
        let (tag, set) = self.split(addr);
        let start = set * self.row;
        let end = start + self.row;
        (start..end).step_by(64).flat_map(move |chunk| {
            let mut hits = self.hits(chunk..end.min(chunk + 64), tag);
            std::iter::from_fn(move || {
                if hits == 0 {
                    return None;
                }
                let index = chunk + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let pe = (index - start) / self.ways;
                Some(Line {
                    index,
                    pe: PeId(pe as u32),
                })
            })
        })
    }

    /// The bus snoop of one command by `requester` on `base`'s block:
    /// fills `holders` with every other PE's line holding the block, in
    /// PE order, and returns the supplier — the first dirty holder, else
    /// the lowest-numbered one. `holders` is cleared first and never
    /// grows past `pes - 1` lines, so a buffer of that capacity never
    /// reallocates.
    #[inline]
    pub fn snoop(&self, requester: PeId, base: Addr, holders: &mut Vec<Line>) -> Option<Line> {
        holders.clear();
        holders.extend(self.copies(base).filter(|line| line.pe != requester));
        holders
            .iter()
            .find(|line| self.states[line.index].is_dirty())
            .or(holders.first())
            .copied()
    }

    /// The base address of every resident block, once each: row by row
    /// in set order, and within a row in the order of each block's first
    /// copy (PE order, then way).
    pub fn blocks(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.states.len()).filter_map(move |i| {
            if !self.states[i].is_valid() {
                return None;
            }
            let set = (i / self.row) as u64;
            let base = self.geometry.recompose(self.store[i], set);
            let first = self.copies(base).next()?;
            (first.index == i).then_some(base)
        })
    }

    /// The line's state.
    #[inline]
    pub fn state(&self, line: Line) -> BlockState {
        self.states[line.index]
    }

    /// Reads the word at `addr` from `line`, bumping its LRU stamp.
    #[inline]
    pub fn read(&mut self, line: Line, addr: Addr) -> Word {
        self.touch(line);
        self.store[self.word_index(line.index, addr)]
    }

    /// Writes the word at `addr` into `line`, bumping its LRU stamp and
    /// moving it to `state` (the protocol decides the state).
    #[inline]
    pub fn write(&mut self, line: Line, addr: Addr, value: Word, state: BlockState) {
        self.touch(line);
        let w = self.word_index(line.index, addr);
        self.store[w] = value;
        self.states[line.index] = state;
    }

    /// Moves `line` to `state` without touching data or LRU (snoop-induced
    /// transitions and invalidations), returning its old state. Only the
    /// state changes; a caller that needs the words of a line it
    /// invalidates copies them from [`CacheBank::block`] first.
    #[inline]
    pub fn set_state(&mut self, line: Line, state: BlockState) -> BlockState {
        std::mem::replace(&mut self.states[line.index], state)
    }

    /// Borrows a line's words without changing anything (cache-to-cache
    /// supply).
    #[inline]
    pub fn block(&self, line: Line) -> &[Word] {
        &self.store[self.words(line.index)]
    }

    /// Reads the word at `addr` from `line` without touching LRU state
    /// (inspection).
    #[inline]
    pub fn word(&self, line: Line, addr: Addr) -> Word {
        self.store[self.word_index(line.index, addr)]
    }

    /// The line [`CacheBank::install`] fills in `pe`'s `set`: the least
    /// recently used invalid way, else the least recently used way. An
    /// invalid way keeps the stamp of its last use, so after two
    /// invalidations the one used longer ago is filled first; ties (ways
    /// never used) go to the lowest way.
    #[inline]
    fn victim(&self, pe: PeId, set: usize) -> usize {
        let start = self.slice_start(pe, set);
        let Some(i) = (start..start + self.ways)
            .min_by_key(|&i| (self.states[i].is_valid(), self.store[self.lines + i]))
        else {
            unreachable!("a set always has at least one way")
        };
        i
    }

    /// Installs a block (fetched or direct-written) over the LRU victim of
    /// its set in `pe`'s cache and returns the line it filled. If a valid
    /// line had to be displaced, its words are copied into `evicted` and
    /// its base and state returned too.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `evicted` is not exactly one block long, `base`
    /// is not block-aligned, or the block is already resident in `pe`'s
    /// cache (the protocol must not double-install).
    #[inline]
    pub fn install(
        &mut self,
        pe: PeId,
        base: Addr,
        data: &[Word],
        state: BlockState,
        evicted: &mut [Word],
    ) -> (Line, Option<Eviction>) {
        assert_eq!(data.len() as u64, self.geometry.block_words, "bad block");
        assert_eq!(
            evicted.len() as u64,
            self.geometry.block_words,
            "bad eviction buffer"
        );
        assert_eq!(base & self.offset_mask, 0, "unaligned block");
        assert!(
            self.find(pe, base).is_none(),
            "block {base:#x} already resident"
        );

        let (tag, set) = self.split(base);
        let victim = self.victim(pe, set);
        let words = self.words(victim);
        let eviction = if self.states[victim].is_valid() {
            evicted.copy_from_slice(&self.store[words.clone()]);
            Some(Eviction {
                base: self.geometry.recompose(self.store[victim], set as u64),
                state: self.states[victim],
            })
        } else {
            None
        };

        let line = Line { index: victim, pe };
        self.store[victim] = tag;
        self.states[victim] = state;
        self.store[words].copy_from_slice(data);
        self.touch(line);
        (line, eviction)
    }

    #[inline]
    fn touch(&mut self, line: Line) {
        let clock = &mut self.clocks[line.pe.index()];
        *clock += 1;
        // The stamps follow the `lines` tags in `store`.
        self.store[self.lines + line.index] = *clock;
    }

    /// `pe`'s lines in the order of a separate per-PE array: set by set,
    /// way by way.
    fn pe_lines(&self, pe: PeId) -> impl Iterator<Item = usize> + '_ {
        (0..self.geometry.sets as usize).flat_map(move |set| {
            let start = self.slice_start(pe, set);
            start..start + self.ways
        })
    }

    /// Checkpoint hook: serializes `pe`'s LRU clock and every line of its
    /// cache, set by set and way by way (tag, state, LRU stamp, words) —
    /// the bytes a separate per-PE array wrote, whatever the bank's
    /// layout.
    pub fn save_ckpt(&self, pe: PeId, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.clocks[pe.index()]);
        w.put_len(self.geometry.sets as usize * self.ways);
        for i in self.pe_lines(pe) {
            w.put_u64(self.store[i]);
            w.put_u8(state_tag(self.states[i]));
            w.put_u64(self.store[self.lines + i]);
            for &word in &self.store[self.words(i)] {
                w.put_u64(word);
            }
        }
    }

    /// Checkpoint hook: restores `pe`'s cache saved by
    /// [`CacheBank::save_ckpt`] into a freshly constructed bank of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the line count disagrees
    /// with this bank's geometry; [`pim_ckpt::CkptError::Corrupt`] on an
    /// unknown state tag.
    pub fn restore_ckpt(
        &mut self,
        pe: PeId,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        self.clocks[pe.index()] = r.get_u64()?;
        let n = r.get_len()?;
        let lines = self.geometry.sets as usize * self.ways;
        if n != lines {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("cache array has {lines} lines, checkpoint has {n}"),
            });
        }
        for set in 0..self.geometry.sets as usize {
            let start = self.slice_start(pe, set);
            for i in start..start + self.ways {
                self.store[i] = r.get_u64()?;
                self.states[i] = state_from_tag(r.get_u8()?)?;
                self.store[self.lines + i] = r.get_u64()?;
                let words = self.words(i);
                for word in &mut self.store[words] {
                    *word = r.get_u64()?;
                }
            }
        }
        Ok(())
    }
}

/// Stable wire encoding of a [`BlockState`] for checkpoints.
fn state_tag(state: BlockState) -> u8 {
    match state {
        BlockState::Em => 0,
        BlockState::Ec => 1,
        BlockState::Sm => 2,
        BlockState::Shared => 3,
        BlockState::Inv => 4,
    }
}

fn state_from_tag(tag: u8) -> Result<BlockState, pim_ckpt::CkptError> {
    Ok(match tag {
        0 => BlockState::Em,
        1 => BlockState::Ec,
        2 => BlockState::Sm,
        3 => BlockState::Shared,
        4 => BlockState::Inv,
        other => {
            return Err(pim_ckpt::CkptError::Corrupt {
                detail: format!("unknown cache block state tag {other}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PeId = PeId(0);
    const P1: PeId = PeId(1);
    const P2: PeId = PeId(2);

    /// `pes` caches of 2 sets × 2 ways × 4-word blocks = 16 words.
    fn tiny(pes: usize) -> CacheBank {
        CacheBank::new(CacheGeometry::with_shape(16, 4, 2), pes)
    }

    /// Installs with a throwaway eviction buffer.
    fn install(
        c: &mut CacheBank,
        pe: PeId,
        base: Addr,
        data: &[Word],
        state: BlockState,
    ) -> Option<Eviction> {
        c.install(pe, base, data, state, &mut [0; 4]).1
    }

    fn read(c: &mut CacheBank, pe: PeId, addr: Addr) -> Option<Word> {
        let line = c.find(pe, addr)?;
        Some(c.read(line, addr))
    }

    fn state_of(c: &CacheBank, pe: PeId, addr: Addr) -> BlockState {
        c.find(pe, addr).map_or(BlockState::Inv, |l| c.state(l))
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = tiny(1);
        assert_eq!(read(&mut c, P0, 5), None);
        assert!(install(&mut c, P0, 4, &[10, 11, 12, 13], BlockState::Ec).is_none());
        assert_eq!(read(&mut c, P0, 5), Some(11));
        assert_eq!(state_of(&c, P0, 5), BlockState::Ec);
        let line = c.find(P0, 6).expect("resident");
        assert_eq!(c.block(line), &[10, 11, 12, 13][..]);
        assert_eq!(c.word(line, 7), 13);
        assert_eq!(c.find(P0, 8), None);
    }

    #[test]
    fn install_returns_the_line_it_filled() {
        let mut c = tiny(3);
        let (line, ev) = c.install(P1, 4, &[1, 2, 3, 4], BlockState::Ec, &mut [0; 4]);
        assert_eq!(ev, None);
        assert_eq!(line.pe(), P1);
        assert_eq!(c.find(P1, 7), Some(line));
        assert_eq!(c.find(P0, 4), None, "other PEs' caches are untouched");
        assert_eq!(c.find(P2, 4), None);
    }

    #[test]
    fn write_updates_data_and_state() {
        let mut c = tiny(1);
        install(&mut c, P0, 0, &[0; 4], BlockState::Ec);
        let line = c.find(P0, 2).expect("resident");
        c.write(line, 2, 99, BlockState::Em);
        assert_eq!(read(&mut c, P0, 2), Some(99));
        assert_eq!(state_of(&c, P0, 2), BlockState::Em);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(1);
        // Set 0 holds blocks whose (block index % 2 == 0): bases 0, 8, 16…
        install(&mut c, P0, 0, &[1; 4], BlockState::Ec);
        install(&mut c, P0, 8, &[2; 4], BlockState::Ec);
        read(&mut c, P0, 0); // make base 0 most recent
        let ev = install(&mut c, P0, 16, &[3; 4], BlockState::Ec).expect("eviction");
        assert_eq!(ev.base, 8);
        assert!(c.find(P0, 0).is_some() && c.find(P0, 16).is_some());
        assert!(c.find(P0, 8).is_none());
    }

    #[test]
    fn lru_clocks_are_per_pe() {
        let mut c = tiny(2);
        install(&mut c, P0, 0, &[1; 4], BlockState::Ec);
        install(&mut c, P0, 8, &[2; 4], BlockState::Ec);
        // Touching P1's cache many times must not age P0's lines.
        install(&mut c, P1, 0, &[1; 4], BlockState::Shared);
        for _ in 0..5 {
            read(&mut c, P1, 0);
        }
        read(&mut c, P0, 0);
        let ev = install(&mut c, P0, 16, &[3; 4], BlockState::Ec).expect("eviction");
        assert_eq!(ev.base, 8);
    }

    #[test]
    fn the_invalid_way_used_longest_ago_is_filled_first() {
        let mut c = tiny(1);
        install(&mut c, P0, 0, &[1; 4], BlockState::Ec); // way 0, stamp 1
        install(&mut c, P0, 8, &[2; 4], BlockState::Ec); // way 1, stamp 2
        read(&mut c, P0, 0); // way 0, stamp 3
        for base in [0, 8] {
            let line = c.find(P0, base).expect("resident");
            c.set_state(line, BlockState::Inv);
        }
        // Both ways are invalid; way 1's stale stamp (2) is older.
        let (line, ev) = c.install(P0, 16, &[3; 4], BlockState::Ec, &mut [0; 4]);
        assert_eq!(ev, None);
        assert_eq!(line.index, 1);
    }

    #[test]
    fn eviction_data_lands_in_the_callers_buffer() {
        let mut c = tiny(1);
        install(&mut c, P0, 0, &[7, 6, 5, 4], BlockState::Em);
        install(&mut c, P0, 8, &[0; 4], BlockState::Ec);
        let mut evicted = [0; 4];
        let (line, ev) = c.install(P0, 16, &[1; 4], BlockState::Ec, &mut evicted);
        // base 0 was older than base 8.
        assert_eq!(
            ev,
            Some(Eviction {
                base: 0,
                state: BlockState::Em
            })
        );
        assert_eq!(evicted, [7, 6, 5, 4]);
        assert_eq!(c.block(line), &[1; 4][..]);
    }

    #[test]
    fn installing_into_an_invalid_way_leaves_the_buffer_alone() {
        let mut c = tiny(1);
        let mut evicted = [9; 4];
        assert!(c
            .install(P0, 0, &[1; 4], BlockState::Ec, &mut evicted)
            .1
            .is_none());
        assert_eq!(evicted, [9; 4]);
    }

    #[test]
    fn set_state_returns_the_old_state() {
        let mut c = tiny(1);
        install(&mut c, P0, 4, &[1, 2, 3, 4], BlockState::Sm);
        let line = c.find(P0, 6).expect("resident");
        assert_eq!(c.set_state(line, BlockState::Inv), BlockState::Sm);
        assert_eq!(c.find(P0, 4), None);
    }

    #[test]
    fn snoop_lists_other_holders_in_pe_order_and_picks_the_supplier() {
        let mut c = tiny(4);
        let mut holders = Vec::with_capacity(4);
        assert_eq!(c.snoop(P0, 4, &mut holders), None);
        assert!(holders.is_empty());
        for pe in [PeId(3), P1, P0] {
            install(&mut c, pe, 4, &[1; 4], BlockState::Shared);
        }
        // The clean supplier is the lowest-numbered holder.
        let sup = c.snoop(P0, 5, &mut holders).expect("a holder");
        assert_eq!(sup.pe(), P1);
        let pes: Vec<_> = holders.iter().map(|l| l.pe()).collect();
        assert_eq!(pes, [P1, PeId(3)]);
        // A dirty holder supplies, whatever its number.
        let owner = c.find(PeId(3), 4).expect("resident");
        c.set_state(owner, BlockState::Sm);
        assert_eq!(c.snoop(P2, 4, &mut holders), Some(owner));
        let pes: Vec<_> = holders.iter().map(|l| l.pe()).collect();
        assert_eq!(pes, [P0, P1, PeId(3)]);
        assert!(holders.capacity() == 4, "the buffer never grew");
    }

    #[test]
    fn blocks_walk_rows_in_set_order_once_each() {
        let mut c = tiny(2);
        install(&mut c, P1, 12, &[0; 4], BlockState::Ec); // set 1
        install(&mut c, P1, 0, &[0; 4], BlockState::Shared); // set 0
        install(&mut c, P0, 8, &[0; 4], BlockState::Ec); // set 0
        install(&mut c, P0, 0, &[0; 4], BlockState::Shared); // set 0
                                                             // Set 0: P0's lines come first (way 0 holds 8, way 1 holds 0).
        assert_eq!(c.blocks().collect::<Vec<_>>(), [8, 0, 12]);
    }

    #[test]
    fn checkpoint_is_per_pe_and_round_trips() {
        let mut c = tiny(3);
        install(&mut c, P0, 0, &[1, 2, 3, 4], BlockState::Em);
        install(&mut c, P2, 4, &[5, 6, 7, 8], BlockState::Sm);
        install(&mut c, P2, 12, &[9; 4], BlockState::Ec);
        let mut fresh = tiny(3);
        for pe in [P0, P1, P2] {
            let mut w = pim_ckpt::Writer::new();
            c.save_ckpt(pe, &mut w);
            let mut r = pim_ckpt::Reader::new(w.payload());
            fresh.restore_ckpt(pe, &mut r).expect("restore");
        }
        assert_eq!(fresh.states, c.states);
        assert_eq!(fresh.store, c.store);
        assert_eq!(fresh.clocks, c.clocks);
    }

    #[test]
    fn address_split_matches_the_geometry() {
        let g = CacheGeometry::paper_default();
        let c = CacheBank::new(g, 1);
        for addr in [0u64, 1, 3, 4, 4095, 4096, 123_456_789] {
            let (tag, set, _) = g.decompose(addr);
            assert_eq!(c.split(addr), (tag, set as usize));
        }
    }

    #[test]
    fn one_word_blocks_in_one_set_use_the_whole_tag() {
        let mut c = CacheBank::new(CacheGeometry::with_shape(2, 1, 2), 2);
        for addr in [0, u64::MAX] {
            c.install(P1, addr, &[addr], BlockState::Ec, &mut [0]);
        }
        assert_eq!(
            c.find(P1, u64::MAX).map(|l| c.word(l, u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(c.find(P1, 0).map(|l| c.word(l, 0)), Some(0));
        assert_eq!(c.find(P0, 0), None, "an empty line's zero tag is not a hit");
        assert_eq!(c.blocks().collect::<Vec<_>>(), [0, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_install_panics() {
        let mut c = tiny(2);
        install(&mut c, P1, 0, &[0; 4], BlockState::Ec);
        install(&mut c, P1, 0, &[0; 4], BlockState::Ec);
    }

    #[test]
    #[should_panic(expected = "cache block_words must be a power of two, got 3")]
    fn non_power_of_two_block_rejected() {
        // A struct literal skips `with_shape`'s checks.
        CacheBank::new(
            CacheGeometry {
                block_words: 3,
                sets: 4,
                ways: 2,
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "cache sets must be a power of two, got 6")]
    fn non_power_of_two_sets_rejected() {
        CacheBank::new(
            CacheGeometry {
                block_words: 4,
                sets: 6,
                ways: 2,
            },
            1,
        );
    }
}
