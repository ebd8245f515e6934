//! Per-area, per-operation reference counters (paper Tables 2 and 3).

use crate::{Access, MemOp, OpClass, StorageArea};

/// Counts memory references by storage area and operation.
///
/// This is the accumulator behind the "% Memory References by Area" half of
/// Table 2 and all of Table 3. It is deliberately independent of the cache:
/// references are counted as issued, whether they hit or miss.
///
/// # Examples
///
/// ```
/// use pim_trace::{Access, MemOp, PeId, RefStats, StorageArea};
/// let mut s = RefStats::new();
/// s.record(Access::new(PeId(0), MemOp::Read, 0, StorageArea::Instruction));
/// s.record(Access::new(PeId(0), MemOp::LockRead, 9, StorageArea::Heap));
/// assert_eq!(s.total(), 2);
/// assert_eq!(s.data_total(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefStats {
    counts: [[u64; 10]; 5],
}

impl RefStats {
    /// Creates an empty accumulator.
    pub fn new() -> RefStats {
        RefStats::default()
    }

    /// Records one access.
    #[inline]
    pub fn record(&mut self, access: Access) {
        self.counts[access.area.index()][access.op.index()] += 1;
    }

    /// Count for one (area, op) cell.
    pub fn count(&self, area: StorageArea, op: MemOp) -> u64 {
        self.counts[area.index()][op.index()]
    }

    /// Total references to `area` across all operations.
    pub fn area_total(&self, area: StorageArea) -> u64 {
        self.counts[area.index()].iter().sum()
    }

    /// Total references of `class` across all areas.
    pub fn class_total(&self, class: OpClass) -> u64 {
        self.by_class_in(StorageArea::ALL.iter().copied(), class)
    }

    /// Total references of `class` restricted to data areas (Table 3's
    /// `E(data)` rows).
    pub fn data_class_total(&self, class: OpClass) -> u64 {
        self.by_class_in(
            StorageArea::ALL.iter().copied().filter(|a| a.is_data()),
            class,
        )
    }

    /// Total references of `class` within a single area (Table 3's
    /// `E(heap)` rows).
    pub fn area_class_total(&self, area: StorageArea, class: OpClass) -> u64 {
        self.by_class_in(std::iter::once(area), class)
    }

    fn by_class_in(&self, areas: impl Iterator<Item = StorageArea>, class: OpClass) -> u64 {
        let mut sum = 0;
        for area in areas {
            for op in MemOp::ALL {
                if op.class() == class {
                    sum += self.count(area, op);
                }
            }
        }
        sum
    }

    /// Grand total of all references.
    pub fn total(&self) -> u64 {
        StorageArea::ALL.iter().map(|&a| self.area_total(a)).sum()
    }

    /// Total data references (everything except the instruction area).
    pub fn data_total(&self) -> u64 {
        self.total() - self.area_total(StorageArea::Instruction)
    }

    /// Percentage of all references that fall in `area`, or 0 if empty.
    pub fn area_pct(&self, area: StorageArea) -> f64 {
        pct(self.area_total(area), self.total())
    }

    /// Percentage of data references that fall in `area`.
    pub fn data_area_pct(&self, area: StorageArea) -> f64 {
        if area.is_data() {
            pct(self.area_total(area), self.data_total())
        } else {
            0.0
        }
    }

    /// Merges another accumulator into this one (e.g. across PEs).
    pub fn merge(&mut self, other: &RefStats) {
        for a in 0..5 {
            for o in 0..10 {
                self.counts[a][o] += other.counts[a][o];
            }
        }
    }

    /// Checkpoint hook: serializes the 5x10 counter matrix.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        for row in &self.counts {
            for &c in row {
                w.put_u64(c);
            }
        }
    }

    /// Checkpoint hook: restores a matrix saved by [`RefStats::save_ckpt`].
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        for row in &mut self.counts {
            for c in row {
                *c = r.get_u64()?;
            }
        }
        Ok(())
    }
}

/// `100 * num / den`, or 0 when the denominator is zero.
pub(crate) fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeId;

    fn acc(op: MemOp, area: StorageArea) -> Access {
        Access::new(PeId(0), op, 0, area)
    }

    #[test]
    fn totals_are_consistent() {
        let mut s = RefStats::new();
        s.record(acc(MemOp::Read, StorageArea::Instruction));
        s.record(acc(MemOp::Read, StorageArea::Heap));
        s.record(acc(MemOp::Write, StorageArea::Heap));
        s.record(acc(MemOp::LockRead, StorageArea::Heap));
        s.record(acc(MemOp::WriteUnlock, StorageArea::Heap));
        s.record(acc(MemOp::DirectWrite, StorageArea::Goal));

        assert_eq!(s.total(), 6);
        assert_eq!(s.data_total(), 5);
        assert_eq!(s.area_total(StorageArea::Heap), 4);
        assert_eq!(s.class_total(OpClass::Read), 2);
        assert_eq!(s.class_total(OpClass::Write), 2);
        assert_eq!(s.class_total(OpClass::LockRead), 1);
        assert_eq!(s.class_total(OpClass::Unlock), 1);
        assert_eq!(s.data_class_total(OpClass::Read), 1);
        assert_eq!(s.area_class_total(StorageArea::Heap, OpClass::Write), 1);
    }

    #[test]
    fn class_totals_partition_the_total() {
        let mut s = RefStats::new();
        for (i, op) in MemOp::ALL.iter().enumerate() {
            for (j, area) in StorageArea::ALL.iter().enumerate() {
                for _ in 0..(i + 2 * j) {
                    s.record(acc(*op, *area));
                }
            }
        }
        let by_class: u64 = OpClass::ALL.iter().map(|&c| s.class_total(c)).sum();
        assert_eq!(by_class, s.total());
        let by_area: u64 = StorageArea::ALL.iter().map(|&a| s.area_total(a)).sum();
        assert_eq!(by_area, s.total());
    }

    #[test]
    fn percentages_sum_to_100() {
        let mut s = RefStats::new();
        s.record(acc(MemOp::Read, StorageArea::Instruction));
        s.record(acc(MemOp::Read, StorageArea::Heap));
        s.record(acc(MemOp::Write, StorageArea::Goal));
        let sum: f64 = StorageArea::ALL.iter().map(|&a| s.area_pct(a)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_report_zero_percent() {
        let s = RefStats::new();
        assert_eq!(s.area_pct(StorageArea::Heap), 0.0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = RefStats::new();
        let mut b = RefStats::new();
        a.record(acc(MemOp::Read, StorageArea::Heap));
        b.record(acc(MemOp::Read, StorageArea::Heap));
        b.record(acc(MemOp::Unlock, StorageArea::Communication));
        a.merge(&b);
        assert_eq!(a.count(StorageArea::Heap, MemOp::Read), 2);
        assert_eq!(a.total(), 3);
    }
}
