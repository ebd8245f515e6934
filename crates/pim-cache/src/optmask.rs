//! Per-area enabling of the optimized memory commands (paper Table 4).
//!
//! Section 4.6 evaluates the optimizations by enabling them selectively:
//! the "Heap" column allows `DW` only in the heap area, "Goal" allows
//! `ER`/`RP`/`DW` only in the goal area, "Comm" allows `RI` only in the
//! communication area, and "All" combines everything. A disabled command
//! silently downgrades to its unoptimized equivalent (`DW`→`W`,
//! `ER`/`RP`/`RI`→`R`), so the same instrumented workload drives every
//! column.

use pim_trace::{MemOp, StorageArea};
use std::fmt;

/// The five experiment columns of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptColumn {
    /// No optimized commands anywhere.
    None,
    /// `DW` in the heap area only.
    Heap,
    /// `ER`, `RP` and `DW` in the goal area only.
    Goal,
    /// `RI` in the communication area only.
    Comm,
    /// All optimizations in every area.
    All,
}

impl OptColumn {
    /// The columns in the paper's order.
    pub const ALL: [OptColumn; 5] = [
        OptColumn::None,
        OptColumn::Heap,
        OptColumn::Goal,
        OptColumn::Comm,
        OptColumn::All,
    ];

    /// Table header.
    pub fn header(self) -> &'static str {
        match self {
            OptColumn::None => "None",
            OptColumn::Heap => "Heap",
            OptColumn::Goal => "Goal",
            OptColumn::Comm => "Comm",
            OptColumn::All => "All",
        }
    }
}

impl fmt::Display for OptColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.header())
    }
}

/// Which optimized commands are honoured in which storage areas.
///
/// # Examples
///
/// ```
/// use pim_cache::{OptColumn, OptMask};
/// use pim_trace::{MemOp, StorageArea};
///
/// let heap_only = OptMask::column(OptColumn::Heap);
/// assert_eq!(
///     heap_only.effective(StorageArea::Heap, MemOp::DirectWrite),
///     MemOp::DirectWrite
/// );
/// assert_eq!(
///     heap_only.effective(StorageArea::Goal, MemOp::DirectWrite),
///     MemOp::Write, // downgraded outside the enabled area
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptMask {
    // [area][optimized op]: DW, DWD, ER, RP, RI
    enabled: [[bool; 5]; 5],
}

#[inline]
fn opt_index(op: MemOp) -> Option<usize> {
    match op {
        MemOp::DirectWrite => Some(0),
        MemOp::DirectWriteDown => Some(1),
        MemOp::ExclusiveRead => Some(2),
        MemOp::ReadPurge => Some(3),
        MemOp::ReadInvalidate => Some(4),
        _ => None,
    }
}

impl OptMask {
    /// All optimizations disabled.
    pub fn none() -> OptMask {
        OptMask {
            enabled: [[false; 5]; 5],
        }
    }

    /// All optimizations enabled in every area.
    pub fn all() -> OptMask {
        OptMask {
            enabled: [[true; 5]; 5],
        }
    }

    /// The mask for one of the paper's Table 4 columns.
    pub fn column(column: OptColumn) -> OptMask {
        let mut m = OptMask::none();
        match column {
            OptColumn::None => {}
            OptColumn::Heap => {
                m.enable(StorageArea::Heap, MemOp::DirectWrite);
            }
            OptColumn::Goal => {
                m.enable(StorageArea::Goal, MemOp::DirectWrite);
                m.enable(StorageArea::Goal, MemOp::ExclusiveRead);
                m.enable(StorageArea::Goal, MemOp::ReadPurge);
            }
            OptColumn::Comm => {
                m.enable(StorageArea::Communication, MemOp::ReadInvalidate);
            }
            OptColumn::All => return OptMask::all(),
        }
        m
    }

    /// Enables `op` in `area`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an optimized command.
    pub fn enable(&mut self, area: StorageArea, op: MemOp) {
        let Some(i) = opt_index(op) else {
            panic!("{op:?} is not an optimized command")
        };
        self.enabled[area.index()][i] = true;
    }

    /// Disables `op` in `area`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an optimized command.
    pub fn disable(&mut self, area: StorageArea, op: MemOp) {
        let Some(i) = opt_index(op) else {
            panic!("{op:?} is not an optimized command")
        };
        self.enabled[area.index()][i] = false;
    }

    /// The operation actually performed: `op` itself when enabled for
    /// `area` (or not an optimized command at all), otherwise its
    /// downgraded form.
    #[inline]
    pub fn effective(&self, area: StorageArea, op: MemOp) -> MemOp {
        match opt_index(op) {
            Some(i) if !self.enabled[area.index()][i] => op.downgraded(),
            _ => op,
        }
    }
}

impl Default for OptMask {
    fn default() -> Self {
        OptMask::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_downgrades_everything() {
        let m = OptMask::none();
        for area in StorageArea::ALL {
            assert_eq!(m.effective(area, MemOp::DirectWrite), MemOp::Write);
            assert_eq!(m.effective(area, MemOp::ExclusiveRead), MemOp::Read);
            assert_eq!(m.effective(area, MemOp::ReadPurge), MemOp::Read);
            assert_eq!(m.effective(area, MemOp::ReadInvalidate), MemOp::Read);
            // Ordinary ops pass through untouched.
            assert_eq!(m.effective(area, MemOp::LockRead), MemOp::LockRead);
            assert_eq!(m.effective(area, MemOp::Write), MemOp::Write);
        }
    }

    #[test]
    fn all_passes_everything() {
        let m = OptMask::all();
        for area in StorageArea::ALL {
            for op in MemOp::ALL {
                assert_eq!(m.effective(area, op), op);
            }
        }
    }

    #[test]
    fn heap_column_is_dw_in_heap_only() {
        let m = OptMask::column(OptColumn::Heap);
        assert_eq!(
            m.effective(StorageArea::Heap, MemOp::DirectWrite),
            MemOp::DirectWrite
        );
        assert_eq!(
            m.effective(StorageArea::Goal, MemOp::DirectWrite),
            MemOp::Write
        );
        assert_eq!(
            m.effective(StorageArea::Heap, MemOp::ExclusiveRead),
            MemOp::Read
        );
    }

    #[test]
    fn goal_column_is_er_rp_dw_in_goal_only() {
        let m = OptMask::column(OptColumn::Goal);
        for op in [MemOp::DirectWrite, MemOp::ExclusiveRead, MemOp::ReadPurge] {
            assert_eq!(m.effective(StorageArea::Goal, op), op);
        }
        assert_eq!(
            m.effective(StorageArea::Goal, MemOp::ReadInvalidate),
            MemOp::Read
        );
        assert_eq!(
            m.effective(StorageArea::Heap, MemOp::DirectWrite),
            MemOp::Write
        );
    }

    #[test]
    fn comm_column_is_ri_in_comm_only() {
        let m = OptMask::column(OptColumn::Comm);
        assert_eq!(
            m.effective(StorageArea::Communication, MemOp::ReadInvalidate),
            MemOp::ReadInvalidate
        );
        assert_eq!(
            m.effective(StorageArea::Heap, MemOp::ReadInvalidate),
            MemOp::Read
        );
        assert_eq!(
            m.effective(StorageArea::Communication, MemOp::DirectWrite),
            MemOp::Write
        );
    }

    #[test]
    fn enable_disable_round_trip() {
        let mut m = OptMask::none();
        m.enable(StorageArea::Suspension, MemOp::ReadPurge);
        assert_eq!(
            m.effective(StorageArea::Suspension, MemOp::ReadPurge),
            MemOp::ReadPurge
        );
        m.disable(StorageArea::Suspension, MemOp::ReadPurge);
        assert_eq!(
            m.effective(StorageArea::Suspension, MemOp::ReadPurge),
            MemOp::Read
        );
    }

    #[test]
    #[should_panic(expected = "not an optimized command")]
    fn enabling_plain_read_panics() {
        OptMask::none().enable(StorageArea::Heap, MemOp::Read);
    }
}
