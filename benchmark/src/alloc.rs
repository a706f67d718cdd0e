//! Counting allocator for the traced binary. The untraced binary does not
//! install it, so the numbers it reports carry no counting cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Default)]
pub struct AllocCounters {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl AllocCounters {
    pub const fn new() -> AllocCounters {
        AllocCounters {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(allocations, bytes requested)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, bytes: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The system allocator, counting into `.0`.
pub struct CountingAlloc(pub AllocCounters);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain relaxed atomics and never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.0.count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}
