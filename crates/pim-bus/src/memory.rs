//! Paged shared global memory.

use pim_trace::{Addr, Word};
use std::collections::HashMap;

const PAGE_WORDS: usize = 4096;

/// The shared global memory behind all caches.
///
/// Storage is paged and demand-allocated so the large KL1 address space
/// (hundreds of megawords, mostly untouched) costs nothing until written.
/// Unwritten words read as zero, like initialized DRAM.
///
/// # Examples
///
/// ```
/// use pim_bus::SharedMemory;
/// let mut mem = SharedMemory::new();
/// mem.write(0x1234, 7);
/// assert_eq!(mem.read(0x1234), 7);
/// assert_eq!(mem.read(0x9999), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedMemory {
    pages: HashMap<u64, Box<[Word; PAGE_WORDS]>>,
}

impl SharedMemory {
    /// Creates an empty memory.
    pub fn new() -> SharedMemory {
        SharedMemory::default()
    }

    /// Reads the word at `addr` (zero if never written).
    pub fn read(&self, addr: Addr) -> Word {
        let (page, offset) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[offset])
    }

    /// Writes the word at `addr`.
    pub fn write(&mut self, addr: Addr, value: Word) {
        let (page, offset) = split(addr);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[offset] = value;
    }

    /// Reads `block.len()` consecutive words starting at `base` into
    /// `block` (a cache block fill). One page lookup per page touched.
    pub fn read_block(&self, base: Addr, block: &mut [Word]) {
        let mut addr = base;
        let mut rest = block;
        while !rest.is_empty() {
            let (page, offset) = split(addr);
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_WORDS - offset));
            match self.pages.get(&page) {
                Some(p) => chunk.copy_from_slice(&p[offset..offset + chunk.len()]),
                None => chunk.fill(0),
            }
            addr += chunk.len() as Addr;
            rest = tail;
        }
    }

    /// Writes `block` to consecutive words starting at `base` (a swap-out).
    /// One page lookup per page touched.
    pub fn write_block(&mut self, base: Addr, block: &[Word]) {
        let mut addr = base;
        let mut rest = block;
        while !rest.is_empty() {
            let (page, offset) = split(addr);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_WORDS - offset));
            self.pages
                .entry(page)
                .or_insert_with(|| Box::new([0; PAGE_WORDS]))[offset..offset + chunk.len()]
                .copy_from_slice(chunk);
            addr += chunk.len() as Addr;
            rest = tail;
        }
    }

    /// Number of resident pages (for memory-footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Checkpoint hook: serializes the resident pages in sorted page
    /// order, so the same memory image always produces the same bytes
    /// regardless of `HashMap` iteration order.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for k in keys {
            w.put_u64(k);
            if let Some(page) = self.pages.get(&k) {
                for &word in page.iter() {
                    w.put_u64(word);
                }
            }
        }
    }

    /// Checkpoint hook: replaces the memory image with the one saved by
    /// [`SharedMemory::save_ckpt`].
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        self.pages.clear();
        let n = r.get_len()?;
        for _ in 0..n {
            let k = r.get_u64()?;
            let mut page = Box::new([0 as Word; PAGE_WORDS]);
            for slot in page.iter_mut() {
                *slot = r.get_u64()?;
            }
            self.pages.insert(k, page);
        }
        Ok(())
    }
}

fn split(addr: Addr) -> (u64, usize) {
    (
        addr / PAGE_WORDS as u64,
        (addr % PAGE_WORDS as u64) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = SharedMemory::new();
        assert_eq!(mem.read(0), 0);
        assert_eq!(mem.read(u64::MAX / 2), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = SharedMemory::new();
        mem.write(5, 42);
        mem.write(5 + PAGE_WORDS as u64, 43);
        assert_eq!(mem.read(5), 42);
        assert_eq!(mem.read(5 + PAGE_WORDS as u64), 43);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn block_ops_cross_page_boundaries() {
        let mut mem = SharedMemory::new();
        let base = PAGE_WORDS as u64 - 2; // straddles two pages
        mem.write_block(base, &[1, 2, 3, 4]);
        let mut out = [0; 4];
        mem.read_block(base, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn block_reads_of_unwritten_pages_are_zero() {
        let mut mem = SharedMemory::new();
        mem.write(PAGE_WORDS as u64, 5);
        let mut out = [9; 4];
        mem.read_block(PAGE_WORDS as u64 - 2, &mut out);
        assert_eq!(out, [0, 0, 5, 0]);
        assert_eq!(mem.resident_pages(), 1, "reads never allocate pages");
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut mem = SharedMemory::new();
        mem.write(9, 1);
        mem.write(9, 2);
        assert_eq!(mem.read(9), 2);
    }
}
