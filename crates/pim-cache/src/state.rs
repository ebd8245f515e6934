//! The five cache-block states (paper Section 3.1).

use std::fmt;

/// State of one cache block in the PIM protocol.
///
/// The split between [`BlockState::Sm`] and [`BlockState::Shared`] is the
/// protocol's point of difference from Illinois: because a dirty block
/// transferred cache-to-cache is *not* copied back to shared memory, some
/// shared blocks remain dirty, and exactly one cache (the `SM` owner) stays
/// responsible for the eventual swap-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BlockState {
    /// `EM` — exclusive and modified; must be swapped out on eviction.
    Em,
    /// `EC` — exclusive and clean; silently replaceable.
    Ec,
    /// `SM` — possibly shared and modified; this cache owns the swap-out
    /// obligation.
    Sm,
    /// `S` — possibly shared, not owned; silently replaceable.
    Shared,
    /// `INV` — invalid.
    #[default]
    Inv,
}

impl BlockState {
    /// All five states.
    pub const ALL: [BlockState; 5] = [
        BlockState::Em,
        BlockState::Ec,
        BlockState::Sm,
        BlockState::Shared,
        BlockState::Inv,
    ];

    /// Whether the block holds usable data.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != BlockState::Inv
    }

    /// Whether this cache must write the block back on eviction.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, BlockState::Em | BlockState::Sm)
    }

    /// Whether no other cache may hold a valid copy.
    #[inline]
    pub fn is_exclusive(self) -> bool {
        matches!(self, BlockState::Em | BlockState::Ec)
    }

    /// The paper mnemonic (`EM`, `EC`, `SM`, `S`, `INV`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BlockState::Em => "EM",
            BlockState::Ec => "EC",
            BlockState::Sm => "SM",
            BlockState::Shared => "S",
            BlockState::Inv => "INV",
        }
    }
}

impl fmt::Display for BlockState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl From<BlockState> for pim_obs::CohState {
    #[inline]
    fn from(state: BlockState) -> pim_obs::CohState {
        match state {
            BlockState::Em => pim_obs::CohState::Em,
            BlockState::Ec => pim_obs::CohState::Ec,
            BlockState::Sm => pim_obs::CohState::Sm,
            BlockState::Shared => pim_obs::CohState::Sh,
            BlockState::Inv => pim_obs::CohState::Inv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_definitions() {
        assert!(BlockState::Em.is_dirty() && BlockState::Em.is_exclusive());
        assert!(!BlockState::Ec.is_dirty() && BlockState::Ec.is_exclusive());
        assert!(BlockState::Sm.is_dirty() && !BlockState::Sm.is_exclusive());
        assert!(!BlockState::Shared.is_dirty() && !BlockState::Shared.is_exclusive());
        assert!(!BlockState::Inv.is_valid());
        for s in BlockState::ALL {
            if s.is_dirty() || s.is_exclusive() {
                assert!(s.is_valid(), "{s}");
            }
        }
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(BlockState::default(), BlockState::Inv);
    }
}
