//! Memory operations issued by a processing element.

use std::fmt;

/// A memory operation, as issued by the abstract machine to its local cache.
///
/// The first two are the ordinary operations; the next four are the
/// software-controlled optimized commands introduced by the paper
/// (Section 3.2); the last three are the lock operations served by the
/// separate lock directory (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemOp {
    /// `R` — ordinary read.
    Read,
    /// `W` — ordinary write (fetch-on-write, write-allocate).
    Write,
    /// `DW` — *direct write*: on a block-boundary miss, allocate the block
    /// without fetching from shared memory. Used when creating new data
    /// structures (heap, goal records), where the old contents are garbage.
    DirectWrite,
    /// `DWD` — *direct write, downward*: the mirror of `DW` for
    /// downward-growing stacks — allocates without fetching when the
    /// address is the *last* word of its block. The paper notes that `DW`
    /// works for one stack direction only and "to optimize both, two
    /// commands are necessary" (Section 3.2).
    DirectWriteDown,
    /// `ER` — *exclusive read*: read data that will not be needed in this
    /// cache afterwards. Invalidates the supplier on a remote miss
    /// (read-invalidate case) and purges the local block after reading its
    /// last word (read-purge case).
    ExclusiveRead,
    /// `RP` — *read purge*: read, then forcibly purge the (local or freshly
    /// fetched) block, without copying it back. Used for the final word of a
    /// read-once region whose length is not a multiple of the block size.
    ReadPurge,
    /// `RI` — *read invalidate*: read with intent to rewrite soon; fetches
    /// the block exclusively so the subsequent write needs no invalidate
    /// bus command.
    ReadInvalidate,
    /// `LR` — lock-and-read a single word via the lock directory.
    LockRead,
    /// `UW` — write the locked word and unlock it.
    WriteUnlock,
    /// `U` — unlock without writing.
    Unlock,
}

impl MemOp {
    /// All ten operations, in a stable order (useful for table headers).
    pub const ALL: [MemOp; 10] = [
        MemOp::Read,
        MemOp::Write,
        MemOp::DirectWrite,
        MemOp::DirectWriteDown,
        MemOp::ExclusiveRead,
        MemOp::ReadPurge,
        MemOp::ReadInvalidate,
        MemOp::LockRead,
        MemOp::WriteUnlock,
        MemOp::Unlock,
    ];

    /// This operation's position in [`MemOp::ALL`]: the column of
    /// per-op counters, and the stable tag of checkpoints and traces.
    #[inline]
    pub fn index(self) -> usize {
        // Declaration order is `ALL` order; a unit test pins the two.
        self as usize
    }

    /// The operation at `index` in [`MemOp::ALL`], if there is one.
    #[inline]
    pub fn from_index(index: usize) -> Option<MemOp> {
        MemOp::ALL.get(index).copied()
    }

    /// Returns `true` if the operation delivers data to the processor.
    ///
    /// `LR` both locks and reads; `U` moves no data at all.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            MemOp::Read
                | MemOp::ExclusiveRead
                | MemOp::ReadPurge
                | MemOp::ReadInvalidate
                | MemOp::LockRead
        )
    }

    /// Returns `true` if the operation stores data from the processor.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            MemOp::Write | MemOp::DirectWrite | MemOp::DirectWriteDown | MemOp::WriteUnlock
        )
    }

    /// Returns `true` for the lock-directory operations (`LR`, `UW`, `U`).
    pub fn is_lock(self) -> bool {
        matches!(self, MemOp::LockRead | MemOp::WriteUnlock | MemOp::Unlock)
    }

    /// Returns `true` for the optimized commands of Section 3.2 (and the
    /// downward direct-write twin).
    pub fn is_optimized(self) -> bool {
        matches!(
            self,
            MemOp::DirectWrite
                | MemOp::DirectWriteDown
                | MemOp::ExclusiveRead
                | MemOp::ReadPurge
                | MemOp::ReadInvalidate
        )
    }

    /// The unoptimized operation this command degenerates to when its
    /// special-case conditions do not hold (or when optimizations are
    /// disabled for an experiment): `DW`→`W`, `ER`/`RP`/`RI`→`R`.
    pub fn downgraded(self) -> MemOp {
        match self {
            MemOp::DirectWrite | MemOp::DirectWriteDown => MemOp::Write,
            MemOp::ExclusiveRead | MemOp::ReadPurge | MemOp::ReadInvalidate => MemOp::Read,
            other => other,
        }
    }

    /// The reporting class used by the paper's Table 3.
    pub fn class(self) -> OpClass {
        match self {
            MemOp::Read | MemOp::ExclusiveRead | MemOp::ReadPurge | MemOp::ReadInvalidate => {
                OpClass::Read
            }
            MemOp::Write | MemOp::DirectWrite | MemOp::DirectWriteDown => OpClass::Write,
            MemOp::LockRead => OpClass::LockRead,
            MemOp::WriteUnlock | MemOp::Unlock => OpClass::Unlock,
        }
    }

    /// The short mnemonic used in the paper (`R`, `W`, `DW`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Read => "R",
            MemOp::Write => "W",
            MemOp::DirectWrite => "DW",
            MemOp::DirectWriteDown => "DWD",
            MemOp::ExclusiveRead => "ER",
            MemOp::ReadPurge => "RP",
            MemOp::ReadInvalidate => "RI",
            MemOp::LockRead => "LR",
            MemOp::WriteUnlock => "UW",
            MemOp::Unlock => "U",
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The four-way grouping of operations used by the paper's Table 3:
/// `R`, `LR`, `W`, and `UW+U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Plain reads (including the read-flavoured optimized commands).
    Read,
    /// Lock-and-read.
    LockRead,
    /// Plain writes (including direct write).
    Write,
    /// Unlocks, with or without a write (`UW + U`).
    Unlock,
}

impl OpClass {
    /// All four classes in the paper's column order.
    pub const ALL: [OpClass; 4] = [
        OpClass::Read,
        OpClass::LockRead,
        OpClass::Write,
        OpClass::Unlock,
    ];

    /// Column header used in Table 3.
    pub fn header(self) -> &'static str {
        match self {
            OpClass::Read => "R",
            OpClass::LockRead => "LR",
            OpClass::Write => "W",
            OpClass::Unlock => "UW+U",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.header())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all_and_round_trips() {
        for (i, op) in MemOp::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i, "{op}");
            assert_eq!(MemOp::from_index(i), Some(op), "{op}");
        }
        assert_eq!(MemOp::from_index(MemOp::ALL.len()), None);
        assert_eq!(MemOp::from_index(usize::MAX), None);
    }

    #[test]
    fn downgrades_strip_optimizations() {
        for op in MemOp::ALL {
            let d = op.downgraded();
            assert!(!d.is_optimized(), "{op} downgraded to optimized {d}");
            // Downgrading preserves read/write direction.
            assert_eq!(op.is_read(), d.is_read(), "{op}");
            assert_eq!(op.is_write(), d.is_write(), "{op}");
        }
    }

    #[test]
    fn downgrade_is_idempotent() {
        for op in MemOp::ALL {
            assert_eq!(op.downgraded().downgraded(), op.downgraded());
        }
    }

    #[test]
    fn lock_ops_are_not_optimized_commands() {
        for op in MemOp::ALL {
            assert!(!(op.is_lock() && op.is_optimized()), "{op}");
        }
    }

    #[test]
    fn classes_cover_all_ops() {
        use std::collections::HashSet;
        let classes: HashSet<_> = MemOp::ALL.iter().map(|op| op.class()).collect();
        assert_eq!(classes.len(), OpClass::ALL.len());
    }

    #[test]
    fn every_op_reads_or_writes_or_unlocks() {
        for op in MemOp::ALL {
            assert!(op.is_read() || op.is_write() || op == MemOp::Unlock, "{op}");
        }
    }

    #[test]
    fn mnemonics_match_paper() {
        assert_eq!(MemOp::DirectWrite.to_string(), "DW");
        assert_eq!(MemOp::ExclusiveRead.to_string(), "ER");
        assert_eq!(MemOp::ReadPurge.to_string(), "RP");
        assert_eq!(MemOp::ReadInvalidate.to_string(), "RI");
        assert_eq!(OpClass::Unlock.to_string(), "UW+U");
    }
}
