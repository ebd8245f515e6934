//! A counting global allocator. The `simbench` binary installs it for the
//! whole process, so the untraced and the traced pass run the same
//! program; the traced pass reads the count at span boundaries to charge
//! allocations to layers, and the end-to-end pass reads the peak of live
//! heap bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Per thread, so that tracking costs a few plain loads and stores. A
// workload runs on one thread, which makes the figures its own; memory
// freed by another thread than allocated it only makes them approximate.
// `Cell<u64>` needs no destructor, so these are usable at any time.
thread_local! {
    static LIVE_BYTES: Cell<u64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (including reallocations) made by this process so far; 0
/// when [`CountingAlloc`] is not the global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The most heap bytes this thread has had allocated at once; 0 when
/// [`CountingAlloc`] is not the global allocator.
pub fn peak_heap_bytes() -> u64 {
    PEAK_BYTES.get()
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.get().saturating_add(bytes as u64);
    LIVE_BYTES.set(live);
    if live > PEAK_BYTES.get() {
        PEAK_BYTES.set(live);
    }
}

fn shrink(bytes: usize) {
    LIVE_BYTES.set(LIVE_BYTES.get().saturating_sub(bytes as u64));
}

/// [`System`] plus counter updates per allocation. The shared counter
/// publishes no other data, so relaxed ordering is enough.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates neither allocate
// nor touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` satisfy `realloc`'s
        // contract as the caller guarantees; `System` allocated `ptr`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        // On failure the old block stays allocated and nothing changes.
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_of_live_heap_bytes_is_kept_per_thread() {
        const MIB: u64 = 1 << 20;
        let peak = std::thread::spawn(|| {
            let mut v: Vec<u8> = Vec::with_capacity(1 << 19);
            v.reserve_exact(1 << 20); // realloc to 1 MiB
            let grown = peak_heap_bytes();
            drop(v);
            let small = vec![0u8; 1 << 10];
            (grown, peak_heap_bytes(), small.len())
        })
        .join()
        .expect("the thread does not panic");
        assert!((MIB..MIB + MIB / 8).contains(&peak.0), "{peak:?}");
        assert_eq!(peak.0, peak.1, "freeing does not lower the peak");
        assert!(allocations() > 0);
    }
}
