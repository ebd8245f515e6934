//! Cache geometry: block size, associativity, set count, and the
//! directory-bit accounting used by the paper's Figure 2.

use pim_trace::Addr;

/// Shape of one PE's cache.
///
/// The paper's base configuration is a four-Kword, four-way set-associative
/// cache with 256 columns (sets) and four-word blocks, unified for
/// instructions and data.
///
/// # Examples
///
/// ```
/// use pim_cache::CacheGeometry;
/// let g = CacheGeometry::paper_default();
/// assert_eq!(g.data_words(), 4096);
/// let (tag, set, offset) = g.decompose(0x1237);
/// assert_eq!(offset, 3);
/// assert_eq!(g.block_base(0x1237), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Words per block (power of two).
    pub block_words: u64,
    /// Number of sets / columns (power of two).
    pub sets: u64,
    /// Associativity.
    pub ways: u64,
}

/// Why [`CacheGeometry::try_with_shape`] refused a shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The parameter at fault: `capacity`, `block` or `ways`.
    pub param: &'static str,
    /// The rule it breaks.
    pub reason: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for ShapeError {}

impl CacheGeometry {
    /// The paper's base cache: 4-word blocks × 256 sets × 4 ways = 4 Kwords.
    pub fn paper_default() -> CacheGeometry {
        CacheGeometry {
            block_words: 4,
            sets: 256,
            ways: 4,
        }
    }

    /// A geometry with the given total data capacity (in words), keeping
    /// the paper's four-word blocks and four-way associativity. Used for
    /// the capacity sweep of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words` is not a power of two or is too small to
    /// hold one set (`block_words * ways`).
    pub fn with_capacity(capacity_words: u64) -> CacheGeometry {
        CacheGeometry::with_shape(capacity_words, 4, 4)
    }

    /// A geometry with the given capacity, block size, and associativity.
    ///
    /// # Panics
    ///
    /// Panics on any shape [`CacheGeometry::try_with_shape`] refuses.
    pub fn with_shape(capacity_words: u64, block_words: u64, ways: u64) -> CacheGeometry {
        CacheGeometry::try_with_shape(capacity_words, block_words, ways)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A geometry with the given capacity, block size, and associativity,
    /// or the first rule the shape breaks: capacity and block size must
    /// be powers of two, there must be at least one way, and the
    /// capacity must hold a power-of-two number of sets.
    ///
    /// # Errors
    ///
    /// A [`ShapeError`] naming the offending parameter.
    pub fn try_with_shape(
        capacity_words: u64,
        block_words: u64,
        ways: u64,
    ) -> Result<CacheGeometry, ShapeError> {
        let refuse = |param, reason| Err(ShapeError { param, reason });
        if !capacity_words.is_power_of_two() {
            return refuse(
                "capacity",
                format!("capacity must be 2^k, got {capacity_words}"),
            );
        }
        if !block_words.is_power_of_two() {
            return refuse("block", format!("block must be 2^k, got {block_words}"));
        }
        if ways == 0 {
            return refuse("ways", "ways must be at least 1".into());
        }
        let per_set = block_words.saturating_mul(ways);
        if capacity_words < per_set {
            return refuse(
                "capacity",
                format!("capacity {capacity_words} below one set ({per_set})"),
            );
        }
        let sets = capacity_words / per_set;
        if !sets.is_power_of_two() {
            return refuse(
                "ways",
                format!("sets must be 2^k, got {sets} ({ways} ways)"),
            );
        }
        Ok(CacheGeometry {
            block_words,
            sets,
            ways,
        })
    }

    /// Total data capacity in words.
    pub fn data_words(&self) -> u64 {
        self.block_words * self.sets * self.ways
    }

    /// Splits an address into `(tag, set index, block offset)`.
    #[inline]
    pub fn decompose(&self, addr: Addr) -> (u64, u64, u64) {
        let offset = addr % self.block_words;
        let block = addr / self.block_words;
        let set = block % self.sets;
        let tag = block / self.sets;
        (tag, set, offset)
    }

    /// The first address of the block containing `addr`.
    #[inline]
    pub fn block_base(&self, addr: Addr) -> Addr {
        addr - addr % self.block_words
    }

    /// Whether `addr` is the first word of its block (the `DW`
    /// block-boundary condition of Section 3.2).
    #[inline]
    pub fn is_block_boundary(&self, addr: Addr) -> bool {
        addr.is_multiple_of(self.block_words)
    }

    /// Whether `addr` is the last word of its block (the `ER` purge
    /// condition of Section 3.2).
    #[inline]
    pub fn is_last_word(&self, addr: Addr) -> bool {
        addr % self.block_words == self.block_words - 1
    }

    /// Reconstructs a block's base address from its tag and set index.
    pub fn recompose(&self, tag: u64, set: u64) -> Addr {
        (tag * self.sets + set) * self.block_words
    }

    /// Total storage bits for this cache under the paper's accounting:
    /// data array + tag array + state bits, for `bits_per_word`-bit words
    /// and a `addr_bits`-bit word-address space.
    ///
    /// The paper assumes 5-byte (40-bit) data words and reports, e.g., a
    /// "four-Kword cache" as 190 000 bits; this method reproduces that
    /// order of accounting for Figure 2's x-axis.
    pub fn total_bits(&self, bits_per_word: u64, addr_bits: u64) -> u64 {
        self.data_bits(bits_per_word) + self.directory_bits(addr_bits)
    }

    /// Bits in the data array alone.
    pub fn data_bits(&self, bits_per_word: u64) -> u64 {
        self.data_words() * bits_per_word
    }

    /// Bits in the address (tag + state) directory.
    pub fn directory_bits(&self, addr_bits: u64) -> u64 {
        let set_bits = self.sets.trailing_zeros() as u64;
        let offset_bits = self.block_words.trailing_zeros() as u64;
        let tag_bits = addr_bits.saturating_sub(set_bits + offset_bits);
        // Three state bits encode the five states.
        let per_line = tag_bits + 3;
        per_line * self.sets * self.ways
    }
}

impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let g = CacheGeometry::paper_default();
        assert_eq!(g.sets, 256);
        assert_eq!(g.ways, 4);
        assert_eq!(g.block_words, 4);
        assert_eq!(g.data_words(), 4096);
    }

    #[test]
    fn paper_bit_accounting_is_about_190k_for_4kwords() {
        // The paper: a "four-Kword cache" is 190 000 bits with 5-byte words.
        let g = CacheGeometry::paper_default();
        let bits = g.total_bits(40, 32);
        assert!(
            (170_000..220_000).contains(&bits),
            "got {bits}, expected ≈190k"
        );
    }

    #[test]
    fn decompose_recompose_round_trip() {
        let g = CacheGeometry::paper_default();
        for addr in [0u64, 1, 3, 4, 4095, 4096, 123_456_789] {
            let (tag, set, offset) = g.decompose(addr);
            assert_eq!(g.recompose(tag, set) + offset, addr);
            assert_eq!(g.block_base(addr), g.recompose(tag, set));
        }
    }

    #[test]
    fn boundary_predicates() {
        let g = CacheGeometry::paper_default();
        assert!(g.is_block_boundary(0));
        assert!(g.is_block_boundary(8));
        assert!(!g.is_block_boundary(9));
        assert!(g.is_last_word(3));
        assert!(g.is_last_word(7));
        assert!(!g.is_last_word(4));
    }

    #[test]
    fn with_capacity_sweep_shapes() {
        for cap in [512u64, 1024, 2048, 4096, 8192, 16384] {
            let g = CacheGeometry::with_capacity(cap);
            assert_eq!(g.data_words(), cap);
            assert_eq!(g.block_words, 4);
            assert_eq!(g.ways, 4);
        }
    }

    #[test]
    fn with_shape_block_sweep() {
        for block in [1u64, 2, 4, 8, 16] {
            let g = CacheGeometry::with_shape(4096, block, 4);
            assert_eq!(g.data_words(), 4096);
            assert_eq!(g.block_words, block);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be 2^k")]
    fn non_power_of_two_capacity_rejected() {
        CacheGeometry::with_capacity(3000);
    }

    #[test]
    fn bigger_caches_use_more_bits() {
        let small = CacheGeometry::with_capacity(512).total_bits(40, 32);
        let big = CacheGeometry::with_capacity(16384).total_bits(40, 32);
        assert!(big > small * 8);
    }
}
