//! Memory access records.

use crate::{Addr, MemOp, StorageArea};
use std::fmt;

/// Identifier of a processing element (PE).
///
/// The paper simulates up to eight PEs on one bus; the reproduction allows
/// any count but follows the paper's guidance that "about eight
/// high-performance PEs will be connected" per bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PeId(pub u32);

impl PeId {
    /// Dense index for per-PE arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// One memory reference, as emitted by a PE's reduction engine and consumed
/// by its local cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The issuing processing element.
    pub pe: PeId,
    /// The operation performed.
    pub op: MemOp,
    /// The target word address.
    pub addr: Addr,
    /// The storage area `addr` belongs to (precomputed by the issuer so
    /// sinks need no [`crate::AreaMap`]).
    pub area: StorageArea,
}

impl Access {
    /// Creates an access record.
    #[inline]
    pub fn new(pe: PeId, op: MemOp, addr: Addr, area: StorageArea) -> Access {
        Access { pe, op, addr, area }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {:#x} [{}]",
            self.pe, self.op, self.addr, self.area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_informative() {
        let a = Access::new(PeId(3), MemOp::DirectWrite, 0x40, StorageArea::Heap);
        let s = a.to_string();
        assert!(s.contains("PE3"));
        assert!(s.contains("DW"));
        assert!(s.contains("heap"));
    }
}
