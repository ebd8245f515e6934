//! The per-PE set-associative cache array (tags, states, data, LRU).

use crate::{BlockState, CacheGeometry};
use pim_trace::{Addr, Word};

/// Fill pattern for words of a direct-written block that were never
/// written. Reading one back indicates a violated `DW` software contract,
/// which the protocol layer surfaces as a statistic.
pub const DW_POISON: Word = 0xDEAD_BEEF_DEAD_BEEF;

/// A single PE's set-associative cache array.
///
/// The array is a passive structure: it answers lookups, installs and
/// evicts blocks, and tracks LRU — all *decisions* (what to fetch, whom to
/// invalidate, what a transaction costs) live in
/// [`crate::protocol::PimSystem`].
///
/// Storage is struct-of-arrays: line `i` (way `i % ways` of set
/// `i / ways`) has its tag, state and LRU stamp at index `i` of three
/// parallel vectors, and its words at `i * block_words` of one contiguous
/// data vector. Addresses are split with shifts and masks precomputed from
/// the power-of-two block size and set count. No operation allocates:
/// block contents leave the array by borrow ([`CacheArray::block`]) or
/// into a buffer the caller owns ([`CacheArray::install`]).
#[derive(Debug, Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
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
    tags: Vec<u64>,
    states: Vec<BlockState>,
    lru: Vec<u64>,
    data: Vec<Word>,
    clock: u64,
}

/// The valid line an [`CacheArray::install`] displaced. Its words were
/// copied into the caller's eviction buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted block.
    pub base: Addr,
    /// Its state at eviction (dirty states require a swap-out).
    pub state: BlockState,
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `block_words` or `sets` is not a power of two.
    /// [`CacheGeometry::with_shape`] guarantees both, but the geometry's
    /// fields are public, so a struct literal can bypass it.
    pub fn new(geometry: CacheGeometry) -> CacheArray {
        let CacheGeometry {
            block_words,
            sets,
            ways,
        } = geometry;
        assert!(
            block_words.is_power_of_two(),
            "cache block_words must be a power of two, got {block_words}"
        );
        assert!(
            sets.is_power_of_two(),
            "cache sets must be a power of two, got {sets}"
        );
        let lines = (sets * ways) as usize;
        CacheArray {
            geometry,
            block_shift: block_words.trailing_zeros(),
            tag_shift: block_words.trailing_zeros() + sets.trailing_zeros(),
            offset_mask: block_words - 1,
            set_mask: sets - 1,
            tags: vec![0; lines],
            states: vec![BlockState::Inv; lines],
            lru: vec![0; lines],
            data: vec![0; lines * block_words as usize],
            clock: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Splits an address into `(tag, set index)`.
    fn split(&self, addr: Addr) -> (u64, u64) {
        (
            addr >> self.tag_shift,
            (addr >> self.block_shift) & self.set_mask,
        )
    }

    /// The index into `data` of `addr`'s word in line `i`.
    fn word_index(&self, i: usize, addr: Addr) -> usize {
        (i << self.block_shift) | (addr & self.offset_mask) as usize
    }

    /// The range of `data` holding line `i`'s words.
    fn words(&self, i: usize) -> std::ops::Range<usize> {
        (i << self.block_shift)..((i + 1) << self.block_shift)
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set * self.geometry.ways) as usize;
        start..start + self.geometry.ways as usize
    }

    fn find(&self, addr: Addr) -> Option<usize> {
        let (tag, set) = self.split(addr);
        self.set_range(set)
            .find(|&i| self.tags[i] == tag && self.states[i].is_valid())
    }

    /// The line [`CacheArray::install`] fills in `set`: the first invalid
    /// way, else the least recently used one.
    fn victim(&self, set: u64) -> usize {
        let Some(i) = self
            .set_range(set)
            .min_by_key(|&i| (self.states[i].is_valid(), self.lru[i]))
        else {
            unreachable!("a set always has at least one way")
        };
        i
    }

    /// The state of the block containing `addr` ([`BlockState::Inv`] if
    /// absent).
    pub fn state_of(&self, addr: Addr) -> BlockState {
        self.find(addr).map_or(BlockState::Inv, |i| self.states[i])
    }

    /// Whether the block containing `addr` is resident.
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Reads the word at `addr` if resident, bumping LRU.
    pub fn read(&mut self, addr: Addr) -> Option<Word> {
        let i = self.find(addr)?;
        self.touch(i);
        Some(self.data[self.word_index(i, addr)])
    }

    /// Writes the word at `addr` if resident, bumping LRU and moving the
    /// state to `new_state` (the protocol decides the state).
    pub fn write(&mut self, addr: Addr, value: Word, new_state: BlockState) -> bool {
        let Some(i) = self.find(addr) else {
            return false;
        };
        let w = self.word_index(i, addr);
        self.touch(i);
        self.data[w] = value;
        self.states[i] = new_state;
        true
    }

    /// Sets the state of a resident block without touching data or LRU
    /// (snoop-induced transitions).
    pub fn set_state(&mut self, addr: Addr, state: BlockState) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.states[i] = state;
                true
            }
            None => false,
        }
    }

    /// Invalidates the block containing `addr`, returning its old state.
    /// Only the state changes; a caller that needs the words copies them
    /// from [`CacheArray::block`] first.
    pub fn invalidate(&mut self, addr: Addr) -> Option<BlockState> {
        let i = self.find(addr)?;
        let state = self.states[i];
        self.states[i] = BlockState::Inv;
        Some(state)
    }

    /// Borrows a resident block's words without changing anything
    /// (cache-to-cache supply).
    pub fn block(&self, addr: Addr) -> Option<&[Word]> {
        let i = self.find(addr)?;
        Some(&self.data[self.words(i)])
    }

    /// Reads one resident word without touching LRU state (inspection).
    pub fn snapshot_word(&self, addr: Addr) -> Option<Word> {
        let i = self.find(addr)?;
        Some(self.data[self.word_index(i, addr)])
    }

    /// Installs a block (fetched or direct-written) over the LRU victim of
    /// its set. If a valid line had to be displaced, its words are copied
    /// into `evicted` and its base and state returned.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `evicted` is not exactly one block long, `base`
    /// is not block-aligned, or the block is already resident (the
    /// protocol must not double-install).
    pub fn install(
        &mut self,
        base: Addr,
        data: &[Word],
        state: BlockState,
        evicted: &mut [Word],
    ) -> Option<Eviction> {
        assert_eq!(data.len() as u64, self.geometry.block_words, "bad block");
        assert_eq!(
            evicted.len() as u64,
            self.geometry.block_words,
            "bad eviction buffer"
        );
        assert_eq!(base & self.offset_mask, 0, "unaligned block");
        assert!(
            self.find(base).is_none(),
            "block {base:#x} already resident"
        );

        let (tag, set) = self.split(base);
        let victim = self.victim(set);
        let words = self.words(victim);
        let eviction = if self.states[victim].is_valid() {
            evicted.copy_from_slice(&self.data[words.clone()]);
            Some(Eviction {
                base: self.geometry.recompose(self.tags[victim], set),
                state: self.states[victim],
            })
        } else {
            None
        };

        self.tags[victim] = tag;
        self.states[victim] = state;
        self.data[words].copy_from_slice(data);
        self.touch(victim);
        eviction
    }

    /// Iterates over all valid blocks as `(base address, state)` — used by
    /// invariant checks in tests.
    pub fn valid_blocks(&self) -> impl Iterator<Item = (Addr, BlockState)> + '_ {
        (0..self.states.len()).filter_map(move |i| {
            let state = self.states[i];
            state.is_valid().then(|| {
                let set = i as u64 / self.geometry.ways;
                (self.geometry.recompose(self.tags[i], set), state)
            })
        })
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.lru[i] = self.clock;
    }

    /// Checkpoint hook: serializes the LRU clock and every line, line by
    /// line (tag, state, LRU stamp, words), whatever the in-memory layout.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.clock);
        w.put_len(self.tags.len());
        for i in 0..self.tags.len() {
            w.put_u64(self.tags[i]);
            w.put_u8(state_tag(self.states[i]));
            w.put_u64(self.lru[i]);
            for &word in &self.data[self.words(i)] {
                w.put_u64(word);
            }
        }
    }

    /// Checkpoint hook: restores an array saved by
    /// [`CacheArray::save_ckpt`] into a freshly constructed array of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the line count disagrees
    /// with this array's geometry; [`pim_ckpt::CkptError::Corrupt`] on an
    /// unknown state tag.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        self.clock = r.get_u64()?;
        let n = r.get_len()?;
        if n != self.tags.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "cache array has {} lines, checkpoint has {n}",
                    self.tags.len()
                ),
            });
        }
        for i in 0..n {
            self.tags[i] = r.get_u64()?;
            self.states[i] = state_from_tag(r.get_u8()?)?;
            self.lru[i] = r.get_u64()?;
            let words = self.words(i);
            for word in &mut self.data[words] {
                *word = r.get_u64()?;
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

    fn tiny() -> CacheArray {
        // 2 sets × 2 ways × 4-word blocks = 16 words.
        CacheArray::new(CacheGeometry::with_shape(16, 4, 2))
    }

    /// Installs with a throwaway eviction buffer.
    fn install(
        c: &mut CacheArray,
        base: Addr,
        data: &[Word],
        state: BlockState,
    ) -> Option<Eviction> {
        c.install(base, data, state, &mut [0; 4])
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = tiny();
        assert_eq!(c.read(5), None);
        assert!(install(&mut c, 4, &[10, 11, 12, 13], BlockState::Ec).is_none());
        assert_eq!(c.read(5), Some(11));
        assert_eq!(c.state_of(5), BlockState::Ec);
        assert_eq!(c.block(6), Some(&[10, 11, 12, 13][..]));
        assert_eq!(c.block(8), None);
    }

    #[test]
    fn write_updates_data_and_state() {
        let mut c = tiny();
        install(&mut c, 0, &[0; 4], BlockState::Ec);
        assert!(c.write(2, 99, BlockState::Em));
        assert_eq!(c.read(2), Some(99));
        assert_eq!(c.state_of(2), BlockState::Em);
        assert!(!c.write(100, 1, BlockState::Em), "miss writes fail");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds blocks whose (block index % 2 == 0): bases 0, 8, 16…
        install(&mut c, 0, &[1; 4], BlockState::Ec);
        install(&mut c, 8, &[2; 4], BlockState::Ec);
        c.read(0); // make base 0 most recent
        let ev = install(&mut c, 16, &[3; 4], BlockState::Ec).expect("eviction");
        assert_eq!(ev.base, 8);
        assert!(c.contains(0) && c.contains(16) && !c.contains(8));
    }

    #[test]
    fn eviction_data_lands_in_the_callers_buffer() {
        let mut c = tiny();
        install(&mut c, 0, &[7, 6, 5, 4], BlockState::Em);
        install(&mut c, 8, &[0; 4], BlockState::Ec);
        let mut evicted = [0; 4];
        let ev = c
            .install(16, &[1; 4], BlockState::Ec, &mut evicted)
            .expect("eviction");
        // base 0 was older than base 8.
        assert_eq!(
            ev,
            Eviction {
                base: 0,
                state: BlockState::Em
            }
        );
        assert_eq!(evicted, [7, 6, 5, 4]);
        assert_eq!(c.block(16), Some(&[1; 4][..]));
    }

    #[test]
    fn installing_into_an_invalid_way_leaves_the_buffer_alone() {
        let mut c = tiny();
        let mut evicted = [9; 4];
        assert!(c
            .install(0, &[1; 4], BlockState::Ec, &mut evicted)
            .is_none());
        assert_eq!(evicted, [9; 4]);
    }

    #[test]
    fn invalidate_returns_the_old_state() {
        let mut c = tiny();
        install(&mut c, 4, &[1, 2, 3, 4], BlockState::Sm);
        assert_eq!(c.invalidate(6), Some(BlockState::Sm));
        assert!(!c.contains(4));
        assert_eq!(c.block(4), None);
        assert_eq!(c.invalidate(6), None);
    }

    #[test]
    fn valid_blocks_enumerates() {
        let mut c = tiny();
        install(&mut c, 0, &[0; 4], BlockState::Ec);
        install(&mut c, 4, &[0; 4], BlockState::Em);
        let mut blocks: Vec<_> = c.valid_blocks().collect();
        blocks.sort();
        assert_eq!(blocks, vec![(0, BlockState::Ec), (4, BlockState::Em)]);
    }

    #[test]
    fn address_split_matches_the_geometry() {
        let g = CacheGeometry::paper_default();
        let c = CacheArray::new(g);
        for addr in [0u64, 1, 3, 4, 4095, 4096, 123_456_789] {
            let (tag, set, _) = g.decompose(addr);
            assert_eq!(c.split(addr), (tag, set));
        }
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_install_panics() {
        let mut c = tiny();
        install(&mut c, 0, &[0; 4], BlockState::Ec);
        install(&mut c, 0, &[0; 4], BlockState::Ec);
    }

    #[test]
    #[should_panic(expected = "cache block_words must be a power of two, got 3")]
    fn non_power_of_two_block_rejected() {
        // A struct literal skips `with_shape`'s checks.
        CacheArray::new(CacheGeometry {
            block_words: 3,
            sets: 4,
            ways: 2,
        });
    }

    #[test]
    #[should_panic(expected = "cache sets must be a power of two, got 6")]
    fn non_power_of_two_sets_rejected() {
        CacheArray::new(CacheGeometry {
            block_words: 4,
            sets: 6,
            ways: 2,
        });
    }
}
