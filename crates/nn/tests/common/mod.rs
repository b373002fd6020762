//! A counting global allocator shared by the allocation tests
//! (`train_alloc.rs`, `forward_alloc.rs`, and `fab-serve`'s
//! `shared_weights.rs`, which includes this file by path); each of them is
//! its own integration-test binary because it installs one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread and the bytes they asked for.
    /// `cargo test` runs the tests of a binary on parallel threads, so a
    /// process-wide counter would charge each test with the others'
    /// allocations. (A `const` `Cell` has no lazy initialiser and no
    /// destructor, so the allocator may touch it at any point of a thread's
    /// life.)
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|n| n.set((n.get().0 + 1, n.get().1 + bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `(allocations, bytes)` the calling thread makes while `f` runs. Most
/// counted models are small enough for every kernel to take its serial
/// path, so nothing is allocated on any other thread; where a kernel does
/// fan out, the pool's bookkeeping for the call is the caller's, and a
/// helper running a `for_each` block allocates nothing.
pub fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    let after = ALLOCATED.with(Cell::get);
    drop(result);
    (after.0 - before.0, after.1 - before.1)
}
