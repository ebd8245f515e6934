//! The bus transaction cost model.

use std::fmt;

/// The kind of a completed bus transaction, classified into the paper's six
/// access patterns (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transaction {
    /// A block fetched from shared global memory (triggered by `F` or `FI`
    /// when no cache can supply), optionally preceded by the swap-out of a
    /// dirty victim. The swap-out write is hidden under the memory access
    /// latency of the fetch.
    MemoryFetch {
        /// Whether a dirty victim was written back as part of this
        /// transaction.
        swap_out: bool,
    },
    /// A block supplied by another PE's cache, optionally with a dirty
    /// victim swap-out (which can only partially hide under the short
    /// snoop-resolution window).
    CacheToCache {
        /// Whether a dirty victim was written back as part of this
        /// transaction.
        swap_out: bool,
    },
    /// A bare swap-out with no accompanying fetch. The paper notes this
    /// pattern "appears only in DW": a direct write allocates without
    /// fetching, so evicting a dirty victim is the whole transaction.
    SwapOutOnly,
    /// An invalidation broadcast (`I`), or the invalidation half of an
    /// upgrade on a shared block.
    Invalidate,
    /// An unlock broadcast (`UL`), sent only when another PE is waiting on
    /// the lock (the `LWAIT` state).
    Unlock,
}

impl Transaction {
    /// All transaction kinds, for table iteration.
    pub const ALL: [Transaction; 7] = [
        Transaction::MemoryFetch { swap_out: false },
        Transaction::MemoryFetch { swap_out: true },
        Transaction::CacheToCache { swap_out: false },
        Transaction::CacheToCache { swap_out: true },
        Transaction::SwapOutOnly,
        Transaction::Invalidate,
        Transaction::Unlock,
    ];

    /// This transaction's position in [`Transaction::ALL`]: the column
    /// of per-pattern counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Transaction::MemoryFetch { swap_out: false } => 0,
            Transaction::MemoryFetch { swap_out: true } => 1,
            Transaction::CacheToCache { swap_out: false } => 2,
            Transaction::CacheToCache { swap_out: true } => 3,
            Transaction::SwapOutOnly => 4,
            Transaction::Invalidate => 5,
            Transaction::Unlock => 6,
        }
    }

    /// Whether this transaction reads or writes shared global memory
    /// (used for the memory-module busy-ratio statistic that motivates the
    /// `SM` state).
    pub fn touches_memory(self) -> bool {
        matches!(
            self,
            Transaction::MemoryFetch { .. } | Transaction::SwapOutOnly
        ) || matches!(self, Transaction::CacheToCache { swap_out: true })
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Transaction::MemoryFetch { swap_out: false } => "swap-in",
            Transaction::MemoryFetch { swap_out: true } => "swap-in+swap-out",
            Transaction::CacheToCache { swap_out: false } => "c2c",
            Transaction::CacheToCache { swap_out: true } => "c2c+swap-out",
            Transaction::SwapOutOnly => "swap-out-only",
            Transaction::Invalidate => "invalidate",
            Transaction::Unlock => "unlock",
        };
        f.write_str(s)
    }
}

/// Bus and memory timing parameters.
///
/// `cycles` reconstructs the paper's six access patterns from first
/// principles so that the block-size (Figure 1) and bus-width (Section 4.4)
/// studies fall out of the same model:
///
/// * block transfer takes `ceil(block_words / bus_width_words)` bus cycles;
/// * every transaction starts with a one-cycle address/command broadcast;
/// * snoop resolution takes [`BusTiming::SNOOP_CYCLES`] cycles, overlapped
///   with the memory access on a memory fetch;
/// * a swap-out costs `1 + transfer` cycles but hides under whatever idle
///   window the transaction has (the full memory latency on a memory fetch,
///   the snoop-resolution window on a cache-to-cache transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusTiming {
    /// Bus width in words (paper default: 1).
    pub bus_width_words: u64,
    /// Shared-memory access latency in cycles (paper default: 8).
    pub memory_cycles: u64,
}

impl BusTiming {
    /// Cycles needed to resolve a snoop (collect `H`/`LH` responses).
    pub const SNOOP_CYCLES: u64 = 2;

    /// The paper's assumptions: one-word bus, eight-cycle memory.
    pub fn paper_default() -> BusTiming {
        BusTiming {
            bus_width_words: 1,
            memory_cycles: 8,
        }
    }

    /// A two-word bus, as studied in Section 4.4.
    pub fn two_word_bus() -> BusTiming {
        BusTiming {
            bus_width_words: 2,
            memory_cycles: 8,
        }
    }

    /// Bus cycles to move one block.
    pub fn transfer_cycles(&self, block_words: u64) -> u64 {
        assert!(block_words > 0, "block must be non-empty");
        assert!(self.bus_width_words > 0, "bus must be at least one word");
        block_words.div_ceil(self.bus_width_words)
    }

    /// Total bus cycles consumed by one transaction on blocks of
    /// `block_words` words.
    ///
    /// With the paper defaults and four-word blocks this yields exactly the
    /// published 13/13/10/7/5/2 pattern costs.
    pub fn cycles(&self, tx: Transaction, block_words: u64) -> u64 {
        let t = self.transfer_cycles(block_words);
        let swap_out_raw = 1 + t;
        match tx {
            Transaction::MemoryFetch { swap_out } => {
                let base = 1 + self.memory_cycles + t;
                if swap_out {
                    // The victim write-back hides under the memory access
                    // latency; any residue beyond it becomes visible.
                    base + swap_out_raw.saturating_sub(self.memory_cycles)
                } else {
                    base
                }
            }
            Transaction::CacheToCache { swap_out } => {
                let base = 1 + Self::SNOOP_CYCLES + t;
                if swap_out {
                    base + swap_out_raw.saturating_sub(Self::SNOOP_CYCLES)
                } else {
                    base
                }
            }
            Transaction::SwapOutOnly => swap_out_raw,
            Transaction::Invalidate | Transaction::Unlock => 2,
        }
    }
}

impl Default for BusTiming {
    fn default() -> Self {
        BusTiming::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The six published access-pattern costs for the paper's base model
    /// (one-word bus, eight-cycle memory, four-word blocks).
    #[test]
    fn paper_pattern_costs() {
        let t = BusTiming::paper_default();
        assert_eq!(t.cycles(Transaction::MemoryFetch { swap_out: true }, 4), 13);
        assert_eq!(
            t.cycles(Transaction::MemoryFetch { swap_out: false }, 4),
            13
        );
        assert_eq!(
            t.cycles(Transaction::CacheToCache { swap_out: true }, 4),
            10
        );
        assert_eq!(
            t.cycles(Transaction::CacheToCache { swap_out: false }, 4),
            7
        );
        assert_eq!(t.cycles(Transaction::SwapOutOnly, 4), 5);
        assert_eq!(t.cycles(Transaction::Invalidate, 4), 2);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, tx) in Transaction::ALL.into_iter().enumerate() {
            assert_eq!(tx.index(), i, "{tx}");
        }
    }

    #[test]
    fn wider_bus_never_costs_more() {
        let one = BusTiming::paper_default();
        let two = BusTiming::two_word_bus();
        for tx in Transaction::ALL {
            for block in [1u64, 2, 4, 8, 16] {
                assert!(
                    two.cycles(tx, block) <= one.cycles(tx, block),
                    "{tx} block={block}"
                );
            }
        }
    }

    #[test]
    fn bigger_blocks_never_cost_less() {
        let t = BusTiming::paper_default();
        for tx in Transaction::ALL {
            let mut prev = 0;
            for block in [1u64, 2, 4, 8, 16] {
                let c = t.cycles(tx, block);
                assert!(c >= prev, "{tx} block={block}");
                prev = c;
            }
        }
    }

    #[test]
    fn swap_out_hides_fully_under_memory_latency() {
        let t = BusTiming::paper_default();
        // 1 + transfer = 5 <= 8 memory cycles, so fully hidden.
        assert_eq!(
            t.cycles(Transaction::MemoryFetch { swap_out: true }, 4),
            t.cycles(Transaction::MemoryFetch { swap_out: false }, 4)
        );
        // With 16-word blocks the 17-cycle write-back no longer hides.
        assert!(
            t.cycles(Transaction::MemoryFetch { swap_out: true }, 16)
                > t.cycles(Transaction::MemoryFetch { swap_out: false }, 16)
        );
    }

    #[test]
    fn memory_touching_classification() {
        assert!(Transaction::MemoryFetch { swap_out: false }.touches_memory());
        assert!(Transaction::SwapOutOnly.touches_memory());
        assert!(Transaction::CacheToCache { swap_out: true }.touches_memory());
        assert!(!Transaction::CacheToCache { swap_out: false }.touches_memory());
        assert!(!Transaction::Invalidate.touches_memory());
        assert!(!Transaction::Unlock.touches_memory());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_block_rejected() {
        BusTiming::paper_default().transfer_cycles(0);
    }
}
