//! Stop-and-copy heap garbage collection.
//!
//! The system the paper measured "uses stop-and-copy GC"; this module
//! reproduces that: each PE's heap slice is split into two semispaces
//! (enable with [`crate::ClusterConfig::heap_semispace_words`]), and when
//! any active semispace runs low the cluster performs a global
//! stop-the-world collection **between micro-steps** — every GC memory
//! access (tracing reads, copies, pointer rewrites in goal records) is
//! issued through the memory port and therefore shows up in the reference
//! and bus statistics, exactly like the mutator's own traffic.
//!
//! # Why intervals, not Cheney objects
//!
//! WAM-style terms contain *interior pointers*: a `Ref` may target a cell
//! that is simultaneously an argument slot of a structure (created by
//! `SetOp::Fresh`). Copying "objects" would either duplicate such cells
//! (breaking variable identity) or need a second pass anyway. Instead the
//! collector marks live cells as address *intervals* (a cons contributes
//! `[a, a+2)`, a structure `[a, a+1+n)`, a plain variable `[a, a+1)`),
//! merges overlapping intervals, and relocates each merged interval as a
//! unit — offsets within an interval are preserved, so interior pointers
//! stay valid under the same remapping as everything else.
//!
//! # Safety conditions
//!
//! A collection only starts when no PE holds a variable lock across a
//! step boundary (the suspension engine's `LWAIT` window), because lock
//! directories hold raw addresses. The engine cannot observe GC as a
//! distinct phase: it is one (long) micro-step of the triggering PE, and
//! its cycle cost lands on that PE's clock.

use crate::machine::{pv, Abort, Cluster, Mres, Phase};
use crate::words::Tagged;
use pim_trace::{Addr, MemOp, MemoryPort, PeId, StorageArea, Word};
use std::collections::VecDeque;

/// Statistics of all collections so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Completed collections.
    pub collections: u64,
    /// Live words copied in total.
    pub words_copied: u64,
    /// Words reclaimed (allocated-but-dead at collection time) in total.
    pub words_reclaimed: u64,
}

/// A merged live interval `[from, from + len)` with its relocation target.
#[derive(Debug, Clone, Copy)]
struct Span {
    from: Addr,
    len: u64,
    to: Addr,
}

/// The per-collection working state.
pub(crate) struct Collector {
    /// Sorted, merged live intervals with assigned targets, per PE.
    spans: Vec<Span>,
}

impl Collector {
    fn remap(&self, addr: Addr) -> Addr {
        // Binary search the span containing `addr`.
        let i = self.spans.partition_point(|s| s.from + s.len <= addr);
        match self.spans.get(i) {
            Some(s) if addr >= s.from => s.to + (addr - s.from),
            _ => addr, // not in a moved range (non-heap or already to-space)
        }
    }

    fn remap_word(&self, w: Word) -> Word {
        match Tagged::decode(w) {
            Tagged::Ref(a) => Tagged::Ref(self.remap(a)).encode(),
            Tagged::List(a) => Tagged::List(self.remap(a)).encode(),
            Tagged::Struct(a) => Tagged::Struct(self.remap(a)).encode(),
            // Hooks point into the suspension area, which does not move.
            _ => w,
        }
    }
}

/// The low-water reserve that triggers (and must survive) a collection:
/// enough for the largest single-step allocation (a max-arity structure),
/// scaled down for very small semispaces.
fn gc_margin(semispace: u64) -> u64 {
    (semispace / 4).clamp(64, 512).min(semispace)
}

impl Cluster {
    /// Whether a collection is needed and currently safe to run.
    pub(crate) fn gc_due(&self) -> bool {
        let Some(semi) = self.config.heap_semispace_words else {
            return false;
        };
        let margin = gc_margin(semi);
        let due = self.pes.iter().any(|p| p.alloc.heap_remaining() < margin);
        if !due {
            return false;
        }
        // Unsafe while any PE holds a lock across steps: the lock
        // directory tracks raw addresses.
        self.pes
            .iter()
            .all(|p| !matches!(&p.phase, Phase::Suspend(s) if s.locked))
    }

    /// Runs one global stop-and-copy collection. All memory traffic is
    /// issued through `port` on behalf of the triggering PE.
    pub(crate) fn collect_garbage(&mut self, port: &mut dyn MemoryPort) -> Mres<()> {
        // ---- 1. Gather roots (machine-side words; no memory traffic).
        let mut worklist: VecDeque<Word> = VecDeque::new();
        for pe in &self.pes {
            // Registers carry live values only while a goal is running;
            // idle/suspending PEs' goals live in records, traced below.
            if pe.current.is_some() {
                for &w in &pe.regs {
                    worklist.push_back(w);
                }
            }
            for &v in &pe.susp_vars {
                worklist.push_back(Tagged::Ref(v).encode());
            }
            if let Phase::Suspend(_) = pe.phase {
                for &v in &pe.hook_vars {
                    worklist.push_back(Tagged::Ref(v).encode());
                }
            }
        }
        for (_, a) in &self.query_vars {
            worklist.push_back(Tagged::Ref(*a).encode());
        }
        // Goal records (queued and floating) hold heap references in their
        // argument words; reading them is real traffic.
        let mut records: Vec<Addr> = Vec::new();
        for pe in &self.pes {
            records.extend(pe.deque.iter().copied());
        }
        records.extend(self.floating.iter().copied());
        let mut record_args: Vec<(Addr, u8)> = Vec::new();
        for &rec in &records {
            let header = pv(port.read(rec))?;
            let argc = match Tagged::decode(header) {
                Tagged::Functor(_, n) => n,
                other => panic!("goal record {rec:#x} header {other:?}"),
            };
            for i in 0..u64::from(argc) {
                worklist.push_back(pv(port.read(rec + 1 + i))?);
            }
            record_args.push((rec, argc));
        }

        // ---- 2. Trace: mark live intervals (metadata is machine-side;
        // cell reads are counted).
        let mut intervals: Vec<(Addr, u64)> = Vec::new();
        let mut visited = std::collections::HashSet::new();
        let in_heap = {
            let map = self.config.area_map.clone();
            move |a: Addr| map.try_area(a) == Some(StorageArea::Heap)
        };
        while let Some(w) = worklist.pop_front() {
            match Tagged::decode(w) {
                Tagged::Ref(a) if in_heap(a) && visited.insert(a) => {
                    intervals.push((a, 1));
                    worklist.push_back(pv(port.read(a))?);
                }
                Tagged::List(a) if visited.insert(a) => {
                    intervals.push((a, 2));
                    worklist.push_back(pv(port.read(a))?);
                    worklist.push_back(pv(port.read(a + 1))?);
                }
                Tagged::Struct(a) if visited.insert(a) => {
                    let f = pv(port.read(a))?;
                    let n = match Tagged::decode(f) {
                        Tagged::Functor(_, n) => u64::from(n),
                        other => panic!("structure {a:#x} functor {other:?}"),
                    };
                    intervals.push((a, 1 + n));
                    for i in 0..n {
                        worklist.push_back(pv(port.read(a + 1 + i))?);
                    }
                }
                _ => {}
            }
        }

        // ---- 3. Merge intervals and assign to-space targets per PE.
        intervals.sort_unstable();
        let mut merged: Vec<(Addr, u64)> = Vec::new();
        for (a, len) in intervals {
            match merged.last_mut() {
                Some((ma, mlen)) if a <= *ma + *mlen => {
                    let end = (*ma + *mlen).max(a + len);
                    *mlen = end - *ma;
                }
                _ => merged.push((a, len)),
            }
        }
        let mut spans = Vec::with_capacity(merged.len());
        let mut live_before: u64 = 0;
        // Assign per-PE: intervals are sorted by address and PE slices are
        // contiguous, so walk them in order.
        struct Cursor {
            slice_lo: Addr,
            slice_hi: Addr,
            bump: Addr,
            to_limit: Addr,
        }
        let Some(semi_words) = self.config.heap_semispace_words else {
            unreachable!("collector runs only with semispaces enabled")
        };
        let semi = semi_words.div_ceil(self.config.block_words) * self.config.block_words;
        let mut cursors: Vec<Cursor> = Vec::new();
        for i in 0..self.pes.len() {
            let (lo, hi) = self.layout.slice(StorageArea::Heap, PeId(i as u32));
            let to_base = self.pes[i].alloc.heap_other_semispace();
            cursors.push(Cursor {
                slice_lo: lo,
                slice_hi: hi,
                bump: to_base,
                to_limit: to_base + semi,
            });
        }
        for (a, len) in merged {
            live_before += len;
            let Some(c) = cursors
                .iter_mut()
                .find(|c| a >= c.slice_lo && a < c.slice_hi)
            else {
                unreachable!("live heap interval {a:#x} outside every PE slice")
            };
            let to = c.bump;
            c.bump += len;
            if c.bump > c.to_limit {
                return Err(Abort::Fail(format!(
                    "heap exhausted: live data does not fit a {semi}-word semispace"
                )));
            }
            spans.push(Span { from: a, len, to });
        }
        let collector = Collector { spans };

        // ---- 4. Copy live intervals (counted reads and writes) with
        // pointers rewritten on the fly.
        for s in &collector.spans {
            for i in 0..s.len {
                let w = pv(port.read(s.from + i))?;
                let nw = collector.remap_word(w);
                // To-space blocks are freshly reused memory: direct-write
                // on boundaries, like any new structure.
                let dst = s.to + i;
                let op = if dst % self.config.block_words == 0 {
                    MemOp::DirectWrite
                } else {
                    MemOp::Write
                };
                pv(port.op(op, dst, Some(nw)))?;
            }
        }

        // ---- 5. Rewrite roots.
        for pe in &mut self.pes {
            for w in pe.regs.iter_mut() {
                *w = collector.remap_word(*w);
            }
            for v in pe.susp_vars.iter_mut() {
                *v = collector.remap(*v);
            }
            if let Phase::Suspend(_) = pe.phase {
                for v in pe.hook_vars.iter_mut() {
                    *v = collector.remap(*v);
                }
            }
        }
        for (_, a) in self.query_vars.iter_mut() {
            *a = collector.remap(*a);
        }
        for (rec, argc) in record_args {
            for i in 0..u64::from(argc) {
                let slot = rec + 1 + i;
                let w = pv(port.read(slot))?;
                let nw = collector.remap_word(w);
                if nw != w {
                    pv(port.op(MemOp::Write, slot, Some(nw)))?;
                }
            }
        }

        // ---- 6. Flip semispaces.
        let mut allocated_before = 0;
        for (i, c) in cursors.iter().enumerate() {
            allocated_before += self.pes[i].alloc.heap_semispace_used();
            self.pes[i].alloc.flip_semispace(c.bump);
        }
        self.gc_stats.collections += 1;
        self.gc_stats.words_copied += live_before;
        self.gc_stats.words_reclaimed += allocated_before.saturating_sub(live_before);
        let margin = gc_margin(semi);
        if self.pes.iter().any(|p| p.alloc.heap_remaining() < margin) {
            return Err(Abort::Fail(format!(
                "heap exhausted: {live_before} live words leave no allocation room"
            )));
        }
        Ok(())
    }
}
