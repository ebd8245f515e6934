//! Per-PE partitioning of the shared storage areas, and allocators.
//!
//! Each PE allocates heap, goal and suspension records from its own
//! contiguous slice of the corresponding shared area (as the real KL1
//! system gives PEs private allocation chunks), so allocation itself needs
//! no locking. Free-list *structure* is kept machine-side (the paper
//! excludes area-management pointers from measurement); only record
//! *contents* generate memory traffic.

use pim_trace::{Addr, AreaMap, PeId, StorageArea};

/// The per-PE slice boundaries for every area.
#[derive(Debug, Clone)]
pub struct Layout {
    map: AreaMap,
    pes: u32,
    /// Cache-block alignment for direct-write-friendly record placement.
    pub align: u64,
    /// Words per goal record (header + max arity), before alignment.
    pub goal_record_words: u64,
    /// Allocation stride between goal records (aligned).
    pub goal_stride: u64,
}

/// Words per suspension record: `[goal pointer, next hook]`.
pub const SUSP_RECORD_WORDS: u64 = 2;

/// Words per load-balancing reply message: `[goal record addr, donor id]`.
pub const REPLY_WORDS: u64 = 2;

impl Layout {
    /// Builds the layout for `pes` PEs over `map`, with goal records big
    /// enough for `max_arity` arguments and blocks of `align` words.
    ///
    /// # Panics
    ///
    /// Panics if `align` or `pes` is zero, or if [`Layout::try_new`]
    /// refuses the PE count.
    pub fn new(map: AreaMap, pes: u32, max_arity: u8, align: u64) -> Layout {
        Layout::try_new(map, pes, max_arity, align).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the layout like [`Layout::new`], checking that `pes` PEs
    /// fit: every PE's heap, goal and suspension slice must hold more
    /// than one goal record, and the communication area must hold all
    /// `pes × pes` request/reply slots of [`Layout::pair_slot`].
    ///
    /// # Errors
    ///
    /// [`TooManyPes`], naming the largest PE count that fits.
    ///
    /// # Panics
    ///
    /// Panics if `align` or `pes` is zero.
    pub fn try_new(
        map: AreaMap,
        pes: u32,
        max_arity: u8,
        align: u64,
    ) -> Result<Layout, TooManyPes> {
        assert!(align > 0, "alignment must be positive");
        assert!(pes > 0, "need at least one PE");
        let goal_record_words = 1 + u64::from(max_arity);
        let goal_stride = goal_record_words.div_ceil(align) * align;
        let l = Layout {
            map,
            pes,
            align,
            goal_record_words,
            goal_stride,
        };
        if l.fits(pes) {
            return Ok(l);
        }
        // Fewer PEs get larger slices and fewer pair slots, so the counts
        // that fit are exactly 1..=max: binary-search the boundary.
        let (mut lo, mut hi) = (0, pes);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if l.fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Err(TooManyPes {
            requested: pes,
            max: lo,
        })
    }

    /// Whether `pes` PEs fit this layout's map, block size and goal
    /// records (see [`Layout::try_new`]).
    fn fits(&self, pes: u32) -> bool {
        let slices_fit = [
            StorageArea::Heap,
            StorageArea::Goal,
            StorageArea::Suspension,
        ]
        .into_iter()
        .all(|area| self.slice_words(area, pes) > self.goal_stride);
        let pes = u64::from(pes);
        let slots_fit = (pes * pes)
            .checked_mul(self.pair_stride())
            .is_some_and(|words| words <= self.map.size(StorageArea::Communication));
        slices_fit && slots_fit
    }

    /// The `[base, limit)` slice of `area` belonging to `pe`, aligned to
    /// block boundaries.
    pub fn slice(&self, area: StorageArea, pe: PeId) -> (Addr, Addr) {
        let per_pe = self.slice_words(area, self.pes);
        let lo = self.map.base(area) + per_pe * u64::from(pe.0);
        (lo, lo + per_pe)
    }

    /// Words in each PE's block-aligned slice of `area` when `pes` PEs
    /// share it.
    fn slice_words(&self, area: StorageArea, pes: u32) -> u64 {
        self.map.size(area) / u64::from(pes) / self.align * self.align
    }

    /// The request/reply turnaround buffer for the ordered PE pair
    /// `(requester, donor)`: the requester writes its work request there,
    /// the donor reads it with `RI` and rewrites it in place with the
    /// reply, which the requester reads with `RI` and rewrites with its
    /// next request — the exact "data rewritten just after it is read
    /// from other PE cache" pattern the `RI` command exists for.
    pub fn pair_slot(&self, requester: PeId, donor: PeId) -> Addr {
        self.map.base(StorageArea::Communication)
            + (u64::from(requester.0) * u64::from(self.pes) + u64::from(donor.0))
                * self.pair_stride()
    }

    /// Words between consecutive pair slots. Slots must hold a whole
    /// message *and* stay block-aligned, so the stride is REPLY_WORDS
    /// rounded up to the block size (for one-word blocks the block size
    /// alone would make slots overlap).
    fn pair_stride(&self) -> u64 {
        REPLY_WORDS.div_ceil(self.align) * self.align
    }

    /// The area map.
    pub fn map(&self) -> &AreaMap {
        &self.map
    }

    /// Checks a semispace size for stop-and-copy GC: `requested` words,
    /// rounded up to block alignment, two of which must fit a PE's heap
    /// slice. Returns the rounded size.
    ///
    /// # Errors
    ///
    /// [`SemispaceTooLarge`], naming the largest size that fits, when
    /// they do not fit or the rounding overflows.
    pub fn semispace_words(&self, requested: u64) -> Result<u64, SemispaceTooLarge> {
        let (lo, hi) = self.slice(StorageArea::Heap, PeId(0));
        let slice = hi - lo;
        requested
            .checked_next_multiple_of(self.align)
            .filter(|&n| n.checked_mul(2).is_some_and(|both| both <= slice))
            .ok_or(SemispaceTooLarge {
                requested,
                slice,
                max: slice / 2 / self.align * self.align,
            })
    }
}

/// A semispace size whose two semispaces do not fit a PE's heap slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemispaceTooLarge {
    /// The requested semispace words.
    pub requested: u64,
    /// Words in each PE's heap slice.
    pub slice: u64,
    /// The largest semispace size that fits.
    pub max: u64,
}

impl std::fmt::Display for SemispaceTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SemispaceTooLarge {
            requested,
            slice,
            max,
        } = self;
        write!(
            f,
            "two {requested}-word semispaces exceed the {slice}-word heap slice \
             (at most {max} words fit)"
        )
    }
}

impl std::error::Error for SemispaceTooLarge {}

/// A PE count too large for the storage areas (see [`Layout::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyPes {
    /// The requested PE count.
    pub requested: u32,
    /// The largest PE count that fits (0 if not even one does).
    pub max: u32,
}

impl std::fmt::Display for TooManyPes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TooManyPes { requested, max } = self;
        write!(
            f,
            "{requested} PEs do not fit the storage areas (at most {max} fit)"
        )
    }
}

impl std::error::Error for TooManyPes {}

/// One PE's allocation state.
#[derive(Debug, Clone)]
pub struct PeAllocators {
    /// Heap bump pointer (recycled only by stop-and-copy GC, like the
    /// paper's ever-growing heap).
    pub heap_next: Addr,
    heap_limit: Addr,
    // Semispace GC state: (slice base, semispace words, active-low flag).
    // None = the whole slice is one space and GC never runs.
    semi: Option<(Addr, u64, bool)>,
    goal_next: Addr,
    goal_limit: Addr,
    goal_stride: u64,
    /// Free-list of recycled goal records (machine-side bookkeeping).
    pub goal_free: Vec<Addr>,
    susp_next: Addr,
    susp_limit: Addr,
    // Suspension records are read-once with ER/RP, which purges their
    // whole block without write-back — so records must never share a
    // block with live data: one block-aligned stride per record.
    susp_stride: u64,
    /// Free-list of recycled suspension records.
    pub susp_free: Vec<Addr>,
}

/// Snapshot of allocator bump positions, for aborting a stalled
/// micro-step. Free-list state is deliberately *not* part of the mark: a
/// record freed before the stall (by a committed binding's resumption)
/// stays freed, and a record popped from a free list before the stall is
/// leaked rather than double-allocated — stalls are rare, so the leak is
/// negligible and always safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocMark {
    heap_next: Addr,
    goal_next: Addr,
    susp_next: Addr,
}

impl PeAllocators {
    /// Creates allocators over `pe`'s slices of `layout`. With
    /// `semispace_words = Some(n)` the heap slice is split into two
    /// `n`-word semispaces for stop-and-copy GC (rounded up to block
    /// alignment); otherwise the whole slice is one space.
    ///
    /// # Panics
    ///
    /// Panics if two semispaces do not fit the heap slice (see
    /// [`Layout::semispace_words`]).
    pub fn with_semispace(layout: &Layout, pe: PeId, semispace_words: Option<u64>) -> PeAllocators {
        let mut a = PeAllocators::new(layout, pe);
        if let Some(n) = semispace_words {
            let n = layout.semispace_words(n).unwrap_or_else(|e| panic!("{e}"));
            let lo = layout.slice(StorageArea::Heap, pe).0;
            a.heap_next = lo;
            a.heap_limit = lo + n;
            a.semi = Some((lo, n, true));
        }
        a
    }

    /// Creates allocators over `pe`'s slices of `layout`.
    pub fn new(layout: &Layout, pe: PeId) -> PeAllocators {
        let (heap_next, heap_limit) = layout.slice(StorageArea::Heap, pe);
        let (goal_next, goal_limit) = layout.slice(StorageArea::Goal, pe);
        let (susp_next, susp_limit) = layout.slice(StorageArea::Suspension, pe);
        let susp_stride = SUSP_RECORD_WORDS.div_ceil(layout.align) * layout.align;
        PeAllocators {
            heap_next,
            heap_limit,
            semi: None,
            goal_next,
            goal_limit,
            goal_stride: layout.goal_stride,
            goal_free: Vec::new(),
            susp_next,
            susp_limit,
            susp_stride,
            susp_free: Vec::new(),
        }
    }

    /// Allocates `n` heap words.
    ///
    /// # Panics
    ///
    /// Panics when the PE's heap slice is exhausted (the reproduction
    /// sizes slices so benchmarks never need the stop-and-copy GC of the
    /// real system; see DESIGN.md).
    pub fn heap(&mut self, n: u64) -> Addr {
        let a = self.heap_next;
        self.heap_next += n;
        assert!(
            self.heap_next <= self.heap_limit,
            "heap slice exhausted at {a:#x} (+{n})"
        );
        a
    }

    /// Allocates a goal record (block-aligned for `DW`).
    ///
    /// # Panics
    ///
    /// Panics when the goal slice is exhausted.
    pub fn goal_record(&mut self) -> Addr {
        if let Some(a) = self.goal_free.pop() {
            return a;
        }
        let a = self.goal_next;
        self.goal_next += self.goal_stride;
        assert!(self.goal_next <= self.goal_limit, "goal slice exhausted");
        a
    }

    /// Returns a goal record to the free list.
    pub fn free_goal_record(&mut self, addr: Addr) {
        self.goal_free.push(addr);
    }

    /// Allocates a suspension record.
    ///
    /// # Panics
    ///
    /// Panics when the suspension slice is exhausted.
    pub fn susp_record(&mut self) -> Addr {
        if let Some(a) = self.susp_free.pop() {
            return a;
        }
        let a = self.susp_next;
        self.susp_next += self.susp_stride;
        assert!(
            self.susp_next <= self.susp_limit,
            "suspension slice exhausted"
        );
        a
    }

    /// Returns a suspension record to the free list.
    pub fn free_susp_record(&mut self, addr: Addr) {
        self.susp_free.push(addr);
    }

    /// Heap words consumed so far (for Table-1-style reporting).
    pub fn heap_used(&self, layout: &Layout, pe: PeId) -> u64 {
        self.heap_next - layout.slice(StorageArea::Heap, pe).0
    }

    /// Words still available in the active (semi)space.
    pub fn heap_remaining(&self) -> u64 {
        self.heap_limit - self.heap_next
    }

    /// Base address of the inactive semispace (the GC copy target).
    ///
    /// # Panics
    ///
    /// Panics if semispaces are not enabled.
    pub fn heap_other_semispace(&self) -> Addr {
        let Some((lo, n, active_low)) = self.semi else {
            panic!("semispaces not enabled")
        };
        if active_low {
            lo + n
        } else {
            lo
        }
    }

    /// Words allocated in the active semispace so far.
    ///
    /// # Panics
    ///
    /// Panics if semispaces are not enabled.
    pub fn heap_semispace_used(&self) -> u64 {
        let Some((lo, n, active_low)) = self.semi else {
            panic!("semispaces not enabled")
        };
        let base = if active_low { lo } else { lo + n };
        self.heap_next - base
    }

    /// Makes the inactive semispace active, with allocation resuming at
    /// `bump` (one past the last word the collector copied).
    ///
    /// # Panics
    ///
    /// Panics if semispaces are not enabled or `bump` lies outside the
    /// new active semispace.
    pub fn flip_semispace(&mut self, bump: Addr) {
        let Some((lo, n, active_low)) = self.semi else {
            panic!("semispaces not enabled")
        };
        let new_base = if active_low { lo + n } else { lo };
        assert!(
            bump >= new_base && bump <= new_base + n,
            "flip bump {bump:#x} outside semispace [{new_base:#x}, +{n})"
        );
        self.heap_next = bump;
        self.heap_limit = new_base + n;
        self.semi = Some((lo, n, !active_low));
    }

    /// Checkpoint hook: serializes bump pointers, the semispace flag, and
    /// both free lists. Slice limits and strides ride along so a resume
    /// against a different layout is caught.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.heap_next);
        w.put_u64(self.heap_limit);
        match self.semi {
            Some((lo, n, active_low)) => {
                w.put_bool(true);
                w.put_u64(lo);
                w.put_u64(n);
                w.put_bool(active_low);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.goal_next);
        w.put_u64(self.goal_limit);
        w.put_u64(self.goal_stride);
        w.put_u64s(&self.goal_free);
        w.put_u64(self.susp_next);
        w.put_u64(self.susp_limit);
        w.put_u64(self.susp_stride);
        w.put_u64s(&self.susp_free);
    }

    /// Checkpoint hook: restores state saved by
    /// [`PeAllocators::save_ckpt`] into allocators built over the same
    /// layout and GC configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the slice geometry or
    /// semispace configuration disagrees; [`pim_ckpt::CkptError::Corrupt`]
    /// when a bump pointer lies outside its slice.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let heap_next = r.get_u64()?;
        let heap_limit = r.get_u64()?;
        let semi = if r.get_bool()? {
            Some((r.get_u64()?, r.get_u64()?, r.get_bool()?))
        } else {
            None
        };
        match (self.semi, semi) {
            (None, None) => {
                if heap_limit != self.heap_limit {
                    return Err(pim_ckpt::CkptError::Mismatch {
                        detail: format!(
                            "heap limit {heap_limit:#x}, allocator has {:#x}",
                            self.heap_limit
                        ),
                    });
                }
            }
            (Some((lo, n, _)), Some((clo, cn, _))) if lo == clo && n == cn => {}
            _ => {
                return Err(pim_ckpt::CkptError::Mismatch {
                    detail: "semispace configuration disagrees with checkpoint".to_string(),
                })
            }
        }
        let goal_next = r.get_u64()?;
        let goal_limit = r.get_u64()?;
        let goal_stride = r.get_u64()?;
        let goal_free = r.get_u64s()?;
        let susp_next = r.get_u64()?;
        let susp_limit = r.get_u64()?;
        let susp_stride = r.get_u64()?;
        let susp_free = r.get_u64s()?;
        if goal_limit != self.goal_limit
            || goal_stride != self.goal_stride
            || susp_limit != self.susp_limit
            || susp_stride != self.susp_stride
        {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: "allocator slice geometry disagrees with checkpoint".to_string(),
            });
        }
        if heap_next > heap_limit || goal_next > goal_limit || susp_next > susp_limit {
            return Err(pim_ckpt::CkptError::Corrupt {
                detail: "allocator bump pointer beyond its slice limit".to_string(),
            });
        }
        self.heap_next = heap_next;
        self.heap_limit = heap_limit;
        self.semi = semi;
        self.goal_next = goal_next;
        self.goal_free = goal_free;
        self.susp_next = susp_next;
        self.susp_free = susp_free;
        Ok(())
    }

    /// Marks the current allocation state.
    pub fn mark(&self) -> AllocMark {
        AllocMark {
            heap_next: self.heap_next,
            goal_next: self.goal_next,
            susp_next: self.susp_next,
        }
    }

    /// Rolls bump allocations back to `mark` (after a stalled micro-step),
    /// so the retried step writes the same addresses again.
    pub fn rollback(&mut self, mark: AllocMark) {
        self.heap_next = mark.heap_next;
        self.goal_next = mark.goal_next;
        self.susp_next = mark.susp_next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(AreaMap::standard(), 8, 5, 4)
    }

    #[test]
    fn slices_are_disjoint_and_inside_the_area() {
        let l = layout();
        for area in [
            StorageArea::Heap,
            StorageArea::Goal,
            StorageArea::Suspension,
        ] {
            let mut prev_end = l.map().base(area);
            for pe in 0..8 {
                let (lo, hi) = l.slice(area, PeId(pe));
                assert!(lo >= prev_end, "{area} PE{pe}");
                assert!(hi <= l.map().limit(area));
                assert_eq!(lo % 4, 0, "block aligned");
                prev_end = hi;
            }
        }
    }

    #[test]
    fn goal_records_are_aligned_and_strided() {
        let l = layout();
        assert_eq!(l.goal_record_words, 6);
        assert_eq!(l.goal_stride, 8);
        let mut a = PeAllocators::new(&l, PeId(0));
        let r1 = a.goal_record();
        let r2 = a.goal_record();
        assert_eq!(r2 - r1, 8);
        assert_eq!(r1 % 4, 0);
        a.free_goal_record(r1);
        assert_eq!(a.goal_record(), r1, "free list recycles");
    }

    #[test]
    fn heap_bump_allocates_sequentially() {
        let l = layout();
        let mut a = PeAllocators::new(&l, PeId(3));
        let (base, _) = l.slice(StorageArea::Heap, PeId(3));
        assert_eq!(a.heap(2), base);
        assert_eq!(a.heap(1), base + 2);
        assert_eq!(a.heap_used(&l, PeId(3)), 3);
    }

    #[test]
    fn mark_rollback_restores_allocations() {
        let l = layout();
        let mut a = PeAllocators::new(&l, PeId(0));
        let h0 = a.heap_next;
        let mark = a.mark();
        a.heap(10);
        a.goal_record();
        a.susp_record();
        a.rollback(mark);
        assert_eq!(a.heap_next, h0);
        let h = a.heap(1);
        assert_eq!(h, h0, "rolled-back heap words are reallocated");
    }

    #[test]
    fn pair_slots_do_not_collide_at_any_block_size() {
        for align in [1u64, 2, 4, 8, 16] {
            let l = Layout::new(AreaMap::standard(), 8, 5, align);
            let mut slots = Vec::new();
            for q in 0..8 {
                for p in 0..8 {
                    let s = l.pair_slot(PeId(q), PeId(p));
                    assert_eq!(l.map().area(s), StorageArea::Communication);
                    slots.push(s);
                }
            }
            slots.sort_unstable();
            for w in slots.windows(2) {
                assert!(
                    w[1] - w[0] >= REPLY_WORDS,
                    "align={align}: slots {w:?} overlap"
                );
            }
        }
    }

    #[test]
    fn semispace_sizes_are_checked_up_to_the_largest_that_fits() {
        let l = layout();
        let max = l.semispace_words(u64::MAX).unwrap_err().max;
        assert_eq!(l.semispace_words(max), Ok(max));
        let a = PeAllocators::with_semispace(&l, PeId(7), Some(max));
        assert_eq!(a.heap_remaining(), max);
        // One word more rounds up past half the slice; u64::MAX
        // overflows the round-up itself.
        for requested in [max + 1, u64::MAX] {
            let err = l.semispace_words(requested).unwrap_err();
            assert_eq!((err.requested, err.max), (requested, max));
        }
    }

    #[test]
    fn pe_counts_are_checked_up_to_the_largest_that_fits() {
        // With 4-word blocks the 32M-word communication area holds the
        // pes × pes four-word pair slots of at most 2,896 PEs.
        let map = AreaMap::standard();
        let l = Layout::try_new(map.clone(), 2_896, 5, 4).unwrap();
        let last = l.pair_slot(PeId(2_895), PeId(2_895));
        assert!(last + 4 <= map.limit(StorageArea::Communication));
        for requested in [2_897, 100_000_000] {
            let err = Layout::try_new(map.clone(), requested, 5, 4).unwrap_err();
            assert_eq!((err.requested, err.max), (requested, 2_896));
        }
    }

    #[test]
    fn susp_records_recycle() {
        let l = layout();
        let mut a = PeAllocators::new(&l, PeId(0));
        let s = a.susp_record();
        a.free_susp_record(s);
        assert_eq!(a.susp_record(), s);
    }
}
