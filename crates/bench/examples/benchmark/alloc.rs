//! A counting `#[global_allocator]`: every allocation of the benchmark
//! process (client threads, server threads, kernels) bumps two counters, so
//! `mem.allocs_per_op` / `mem.alloc_kb_per_op` are exact counts a later
//! allocation-free-path change can claim on.
//!
//! The counters cost two relaxed `fetch_add`s per allocation — a few hundred
//! allocations per operation against milliseconds of compute — and are always
//! on, so traced and untraced runs execute the same allocator code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts calls and requested bytes.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Independent statistics: nothing is published through them, and they
    // are read only after the threads being measured were joined.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is two atomic
// additions, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `layout` contract is passed straight through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` contract is passed straight through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr`/`layout` come from a prior call into this allocator,
    // i.e. from `System`, and are passed straight through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr`/`layout` come from a prior call into this allocator and
    // `new_size` obeys the caller's contract; all passed straight through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCounts {
    /// The process-wide counters right now.
    pub fn now() -> AllocCounts {
        AllocCounts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_and_bytes_of_this_thread() {
        // Other test threads allocate concurrently, so assert lower bounds.
        let before = AllocCounts::now();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let mut w: Vec<u64> = Vec::with_capacity(8);
        w.reserve_exact(1024); // a realloc counts as one more call
        let delta = AllocCounts::now().since(before);
        assert!(delta.allocs >= 3, "{delta:?}");
        assert!(delta.bytes >= 4096 + 64 + 8 * 1024, "{delta:?}");
        drop((v, w));
        let after_free = AllocCounts::now().since(before);
        assert!(after_free.allocs >= delta.allocs, "frees never decrement");
    }
}
