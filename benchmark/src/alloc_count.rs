//! A counting allocator for the kernel rung's exact allocations per
//! commit. It forwards to the system allocator and bumps a
//! thread-local counter, so the single-threaded kernel rung reads an
//! exact count while the cluster's threads pay one thread-local
//! increment per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    // Const-initialised: reading it never allocates inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` with no destructor, touched without allocating.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations (and reallocations) the calling thread has made.
pub fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}
