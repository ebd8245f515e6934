//! The five KL1 storage areas and the address-space partition.

use crate::Addr;
use std::fmt;

/// One of the five main shared-memory storage areas of the KL1 architecture
/// (paper Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StorageArea {
    /// Compiled clause code. Read-only after loading.
    Instruction,
    /// Structures and logical variables; allocated from the top like an
    /// ever-growing stack, reclaimed only by general GC.
    Heap,
    /// Goal records, managed with a free-list; written once, read once.
    Goal,
    /// Suspension records hooking floating goals to unbound variables;
    /// free-list managed.
    Suspension,
    /// Inter-PE message buffers for on-demand load balancing; two-word
    /// records, written once and read once.
    Communication,
}

impl StorageArea {
    /// All five areas in the paper's reporting order
    /// (inst, heap, goal, susp, comm).
    pub const ALL: [StorageArea; 5] = [
        StorageArea::Instruction,
        StorageArea::Heap,
        StorageArea::Goal,
        StorageArea::Suspension,
        StorageArea::Communication,
    ];

    /// The column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            StorageArea::Instruction => "inst",
            StorageArea::Heap => "heap",
            StorageArea::Goal => "goal",
            StorageArea::Suspension => "susp",
            StorageArea::Communication => "comm",
        }
    }

    /// Index into dense per-area arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            StorageArea::Instruction => 0,
            StorageArea::Heap => 1,
            StorageArea::Goal => 2,
            StorageArea::Suspension => 3,
            StorageArea::Communication => 4,
        }
    }

    /// Whether this area holds data (everything except instructions).
    pub fn is_data(self) -> bool {
        self != StorageArea::Instruction
    }
}

impl fmt::Display for StorageArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Partition of the simulated word address space into the five storage
/// areas.
///
/// Each area occupies one contiguous segment. The map answers
/// "which area does this address belong to" for every access the abstract
/// machine emits, which is how the simulator attributes references and bus
/// cycles to areas (Tables 2 and 4).
///
/// # Examples
///
/// ```
/// use pim_trace::{AreaMap, StorageArea};
/// let map = AreaMap::standard();
/// let goal0 = map.base(StorageArea::Goal);
/// assert_eq!(map.area(goal0), StorageArea::Goal);
/// assert!(map.size(StorageArea::Heap) > 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaMap {
    // Segment base addresses indexed by StorageArea::index(); segments are
    // laid out in ALL order, each ending where the next begins.
    bases: [Addr; 5],
    end: Addr,
}

impl AreaMap {
    /// Builds a map from per-area sizes (in words), laid out in
    /// [`StorageArea::ALL`] order starting at address 0.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or the total overflows the address space.
    pub fn with_sizes(sizes: [Addr; 5]) -> AreaMap {
        let mut bases = [0; 5];
        let mut cursor: Addr = 0;
        for (i, &sz) in sizes.iter().enumerate() {
            assert!(sz > 0, "storage area {i} must be non-empty");
            bases[i] = cursor;
            cursor = match cursor.checked_add(sz) {
                Some(c) => c,
                None => panic!("address space overflow"),
            };
        }
        AreaMap { bases, end: cursor }
    }

    /// The standard layout used throughout the reproduction: 16 Mwords of
    /// instruction space, 256 Mwords of heap, 64 Mwords of goal area, and
    /// 32 Mwords each of suspension and communication area.
    ///
    /// The sizes only bound the simulation (the areas are paged, so unused
    /// space costs nothing); they do not affect cache behaviour.
    pub fn standard() -> AreaMap {
        AreaMap::with_sizes([16 << 20, 256 << 20, 64 << 20, 32 << 20, 32 << 20])
    }

    /// The first address of `area`.
    #[inline]
    pub fn base(&self, area: StorageArea) -> Addr {
        self.bases[area.index()]
    }

    /// The size of `area` in words.
    pub fn size(&self, area: StorageArea) -> Addr {
        self.limit(area) - self.base(area)
    }

    /// One past the last address of `area`.
    pub fn limit(&self, area: StorageArea) -> Addr {
        let i = area.index();
        if i + 1 < 5 {
            self.bases[i + 1]
        } else {
            self.end
        }
    }

    /// One past the last mapped address.
    pub fn end(&self) -> Addr {
        self.end
    }

    /// The area containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies outside every area — that is always a bug in
    /// the abstract machine, not a recoverable condition.
    #[inline]
    pub fn area(&self, addr: Addr) -> StorageArea {
        assert!(
            addr < self.end,
            "address {addr:#x} outside the mapped space"
        );
        // Linear scan over five segments beats binary search at this size.
        let mut found = StorageArea::Instruction;
        for area in StorageArea::ALL {
            if addr >= self.base(area) {
                found = area;
            } else {
                break;
            }
        }
        found
    }

    /// Checked variant of [`AreaMap::area`].
    pub fn try_area(&self, addr: Addr) -> Option<StorageArea> {
        if addr < self.end {
            Some(self.area(addr))
        } else {
            None
        }
    }
}

impl Default for AreaMap {
    fn default() -> Self {
        AreaMap::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_is_contiguous_and_ordered() {
        let map = AreaMap::standard();
        let mut prev_end = 0;
        for area in StorageArea::ALL {
            assert_eq!(map.base(area), prev_end, "{area}");
            assert!(map.limit(area) > map.base(area), "{area}");
            prev_end = map.limit(area);
        }
        assert_eq!(prev_end, map.end());
    }

    #[test]
    fn boundaries_classify_correctly() {
        let map = AreaMap::with_sizes([10, 10, 10, 10, 10]);
        assert_eq!(map.area(0), StorageArea::Instruction);
        assert_eq!(map.area(9), StorageArea::Instruction);
        assert_eq!(map.area(10), StorageArea::Heap);
        assert_eq!(map.area(19), StorageArea::Heap);
        assert_eq!(map.area(20), StorageArea::Goal);
        assert_eq!(map.area(30), StorageArea::Suspension);
        assert_eq!(map.area(40), StorageArea::Communication);
        assert_eq!(map.area(49), StorageArea::Communication);
        assert_eq!(map.try_area(50), None);
    }

    #[test]
    #[should_panic(expected = "outside the mapped space")]
    fn out_of_range_panics() {
        let map = AreaMap::with_sizes([1, 1, 1, 1, 1]);
        let _ = map.area(5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_sized_area_rejected() {
        let _ = AreaMap::with_sizes([1, 0, 1, 1, 1]);
    }

    #[test]
    fn labels_are_paper_order() {
        let labels: Vec<_> = StorageArea::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["inst", "heap", "goal", "susp", "comm"]);
    }
}
