//! A counting global allocator for tests that budget heap allocations.
//!
//! Linking this crate installs its allocator in the process. It counts
//! every `alloc` and `realloc` call (`alloc_zeroed` goes through `alloc`)
//! and the bytes each asks for, and hands the call to [`System`]. The
//! counts are process-wide, so a test that reads them runs alone in its
//! own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocation calls and requested bytes since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` and `realloc` calls.
    pub calls: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
}

/// The counts so far. They only publish statistics, so they are read and
/// written `Relaxed`.
pub fn counts() -> Counts {
    Counts {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

/// The allocator: [`System`] plus two counters.
struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only two atomics
// and never allocates.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait impl; this one only counts and delegates to System"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` hold for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
