//! A counting global allocator for the traced run's allocs/event metrics.
//!
//! The `bench` binary installs it; counting is off unless a probe turns it
//! on, so an end-to-end run pays one relaxed load per allocation and nothing
//! else. Counts are process-wide: a probe that counts runs nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and bytes while counting is on.
pub struct CountingAlloc;

fn count(size: usize) {
    // Statistics only: they publish no other data, so `Relaxed` suffices.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for this `layout`; both are passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size` is
        // valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on; returns its result and the `(allocations,
/// bytes requested)` made meanwhile by any thread. Zeroes when the
/// allocator is not installed.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::SeqCst);
    let result = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        result,
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_only_while_counting_is_on() {
        // Other tests allocate concurrently, but only `counted` turns
        // counting on, so outside it the totals stand still.
        let idle = ALLOCATIONS.load(Ordering::Relaxed);
        let warm: Vec<u64> = std::hint::black_box(Vec::with_capacity(1_000));
        drop(warm);
        assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), idle);

        let (len, allocations, bytes) = counted(|| {
            let boxes: Vec<Box<u64>> = (0..100).map(Box::new).collect();
            std::hint::black_box(&boxes).len()
        });
        assert_eq!(len, 100);
        assert!(
            allocations >= 101,
            "100 boxes and their vector, got {allocations}"
        );
        assert!(bytes >= 100 * 8 + 100 * 8);

        let after = ALLOCATIONS.load(Ordering::Relaxed);
        drop(std::hint::black_box(vec![1u8; 4_096]));
        assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), after);
    }
}
