//! A counting global allocator, switched on only for the traced pass.
//!
//! Off, it costs one relaxed load per allocation; the end-to-end metrics
//! are measured that way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static BIG: AtomicU64 = AtomicU64::new(0);
static BIG_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);

// Relaxed throughout: these are statistics and publish no other memory.
fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if size >= BIG_FROM.load(Ordering::Relaxed) {
            BIG.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` lands here; it is an allocation of the new size.
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live `System` block and
        // `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the whole process while counting was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    pub count: u64,
    pub bytes: u64,
    /// Allocations of at least the `big_from` given to [`counting`].
    pub big: u64,
}

/// Counts every allocation of the process while `f` runs.
pub fn counting<T>(big_from: usize, f: impl FnOnce() -> T) -> (T, AllocCounts) {
    BIG_FROM.store(big_from, Ordering::Relaxed);
    for c in [&COUNT, &BYTES, &BIG] {
        c.store(0, Ordering::Relaxed);
    }
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
    (out, AllocCounts { count: read(&COUNT), bytes: read(&BYTES), big: read(&BIG) })
}
