//! Task blocks, recycled per thread.
//!
//! Every spawn needs a block, and whichever thread drops its last reference
//! frees it: a submitter's blocks are freed on the worker that ran them. So
//! malloc's free lists carry blocks from one core to the other, and each
//! pop follows a link the other core wrote. The pool keeps free blocks
//! instead. Every block it keeps has one layout, [`BLOCK`], which fits any
//! task block of at most 128 bytes aligned to at most 8. Each thread caches
//! free blocks, and a small global depot moves them between threads
//! [`BATCH`] at a time, one lock acquisition per batch. A freed block goes
//! to the cache of the thread that frees it; a thread that exits gives its
//! cache back. A larger or more aligned layout goes to the global
//! allocator, as a `Box` would.
//!
//! A block stays allocated while it sits in the pool, so a use after its
//! last reference reads pooled memory: AddressSanitizer and Miri see such
//! a use only on a block outside the pool.

use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The layout of every pooled block.
const BLOCK: Layout = match Layout::from_size_align(128, 8) {
    Ok(layout) => layout,
    Err(_) => panic!("a valid layout"),
};
/// Blocks that move between a thread and the depot at once.
const BATCH: usize = 128;
/// Free blocks a thread keeps.
const CACHED: usize = 2 * BATCH;
/// Batches the depot keeps; one more goes back to the allocator.
const BATCHES: usize = 16;

type Slot = Option<NonNull<u8>>;

/// Whether a block of `layout` fits a pooled block.
fn pooled(layout: Layout) -> bool {
    layout.size() <= BLOCK.size() && layout.align() <= BLOCK.align()
}

/// One thread's free blocks, the last one freed on top.
struct Stack {
    len: usize,
    slots: [Slot; CACHED],
}

impl Stack {
    const fn new() -> Stack {
        Stack {
            len: 0,
            slots: [None; CACHED],
        }
    }

    /// Pops a block, refilling from `depot` when empty.
    fn pop(&mut self, depot: &Depot) -> Option<NonNull<u8>> {
        if self.len == 0 {
            depot.take(&mut self.slots[..BATCH])?;
            self.len = BATCH;
        }
        self.len -= 1;
        self.slots[self.len]
    }

    /// Pushes a free block; a full stack first gives its top batch to
    /// `depot`.
    fn push(&mut self, depot: &Depot, block: NonNull<u8>) {
        debug_assert!(
            !self.holds(block),
            "a block freed twice: already on this thread's stack"
        );
        if self.len == CACHED {
            self.len = BATCH;
            depot.give(&self.slots[BATCH..]);
        }
        self.slots[self.len] = Some(block);
        self.len += 1;
    }

    /// Whether `block` is on the stack.
    fn holds(&self, block: NonNull<u8>) -> bool {
        self.slots[..self.len].contains(&Some(block))
    }

    /// Gives every block to `depot`.
    fn drain(&mut self, depot: &Depot) {
        for batch in self.slots[..self.len].chunks(BATCH) {
            depot.give(batch);
        }
        self.len = 0;
    }
}

/// Full batches of free blocks, shared by every thread.
struct Depot(Mutex<Batches>);

struct Batches {
    len: usize,
    batches: [[Slot; BATCH]; BATCHES],
}

// SAFETY: a depot holds only free blocks, which no thread references: the
// thread that takes one out owns it.
unsafe impl Send for Batches {}

static DEPOT: Depot = Depot::new();

impl Depot {
    const fn new() -> Depot {
        Depot(Mutex::new(Batches {
            len: 0,
            batches: [[None; BATCH]; BATCHES],
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Batches> {
        // Copying slots cannot panic, so a poisoned depot is still whole.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves the last batch given into `batch`; `None` when there is none.
    #[cold]
    fn take(&self, batch: &mut [Slot]) -> Option<()> {
        let mut depot = self.lock();
        depot.len = depot.len.checked_sub(1)?;
        batch.copy_from_slice(&depot.batches[depot.len]);
        Some(())
    }

    /// Stores a full batch of free blocks; a partial batch, or one the full
    /// depot has no room for, goes to the allocator.
    #[cold]
    fn give(&self, batch: &[Slot]) {
        if batch.len() == BATCH {
            let mut depot = self.lock();
            if depot.len < BATCHES {
                let n = depot.len;
                depot.batches[n].copy_from_slice(batch);
                depot.len += 1;
                return;
            }
        }
        for block in batch.iter().flatten() {
            // SAFETY: a free pooled block, which `alloc` allocated with
            // `BLOCK`, dropped from the pool here.
            unsafe { alloc::dealloc(block.as_ptr(), BLOCK) };
        }
    }
}

/// A thread's free blocks; a thread that exits gives them back.
struct Cache(UnsafeCell<Stack>);

impl Drop for Cache {
    fn drop(&mut self) {
        self.0.get_mut().drain(&DEPOT);
    }
}

thread_local! {
    static CACHE: Cache = const { Cache(UnsafeCell::new(Stack::new())) };
}

/// Runs `f` on this thread's stack; `None` once the thread's cache is gone
/// (a destructor running at thread exit).
#[inline]
fn with_stack<R>(f: impl FnOnce(&mut Stack) -> R) -> Option<R> {
    CACHE
        .try_with(|cache| {
            // SAFETY: only this thread reaches its cache, and `f` is a
            // `pop` or a `push`, which call nothing but the depot's lock
            // and the global allocator: nothing reenters the pool while
            // this reference lives.
            f(unsafe { &mut *cache.0.get() })
        })
        .ok()
}

/// A fresh block from the global allocator.
///
/// # Safety
///
/// `layout` has a non-zero size.
unsafe fn fresh(layout: Layout) -> NonNull<u8> {
    // SAFETY: a non-zero size, per the caller.
    NonNull::new(unsafe { alloc::alloc(layout) })
        .unwrap_or_else(|| alloc::handle_alloc_error(layout))
}

/// A block fit for `layout`: from this thread's cache when it fits a pooled
/// block, else from the global allocator.
///
/// # Safety
///
/// `layout` has a non-zero size.
#[inline]
pub(crate) unsafe fn alloc(layout: Layout) -> NonNull<u8> {
    if !pooled(layout) {
        // SAFETY: a non-zero size, per the caller.
        return unsafe { fresh(layout) };
    }
    match with_stack(|stack| stack.pop(&DEPOT)).flatten() {
        Some(block) => block,
        // SAFETY: `BLOCK` has a non-zero size.
        None => unsafe { fresh(BLOCK) },
    }
}

/// Gives back a block: to this thread's cache when it fits a pooled block,
/// else to the global allocator.
///
/// # Safety
///
/// [`alloc()`] returned `block` for this `layout`, and nothing uses it again.
#[inline]
pub(crate) unsafe fn free(block: NonNull<u8>, layout: Layout) {
    if !pooled(layout) {
        // SAFETY: `alloc` took it from the allocator with `layout`.
        return unsafe { alloc::dealloc(block.as_ptr(), layout) };
    }
    if with_stack(|stack| stack.push(&DEPOT, block)).is_none() {
        // SAFETY: `alloc` allocated every pooled block with `BLOCK`; the
        // caller gives it up.
        unsafe { alloc::dealloc(block.as_ptr(), BLOCK) };
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::thread;

    /// Whether the block at address `block` is on this thread's stack.
    #[cfg(interleave)]
    pub(crate) fn cached(block: usize) -> bool {
        with_stack(|stack| {
            stack.slots[..stack.len]
                .iter()
                .flatten()
                .any(|b| b.addr().get() == block)
        })
        .unwrap_or(false)
    }

    /// A block handed to another thread.
    struct Handoff(NonNull<u8>);

    // SAFETY: an allocated block that only the thread holding it uses.
    unsafe impl Send for Handoff {}

    impl Handoff {
        fn take(self) -> NonNull<u8> {
            self.0
        }
    }

    /// `n` fresh pooled blocks.
    fn blocks(n: usize) -> Vec<NonNull<u8>> {
        // SAFETY: `BLOCK` has a non-zero size.
        (0..n).map(|_| unsafe { fresh(BLOCK) }).collect()
    }

    /// Pops every block of `stack` and `depot` and frees it; returns them.
    fn empty(stack: &mut Stack, depot: &Depot) -> Vec<NonNull<u8>> {
        let blocks: Vec<_> = std::iter::from_fn(|| stack.pop(depot)).collect();
        for &block in &blocks {
            // SAFETY: allocated with `BLOCK`, and dropped from the pool.
            unsafe { alloc::dealloc(block.as_ptr(), BLOCK) };
        }
        blocks
    }

    #[test]
    fn small_layouts_are_pooled() {
        let layout = |size, align| Layout::from_size_align(size, align).unwrap();
        assert!(pooled(layout(24, 8)));
        assert!(pooled(layout(128, 8)));
        assert!(!pooled(layout(129, 8)), "larger than a pooled block");
        assert!(!pooled(layout(64, 16)), "over-aligned");
    }

    #[test]
    fn a_block_freed_on_another_thread_is_reused_there() {
        let layout = Layout::from_size_align(112, 8).unwrap();
        // SAFETY: a non-zero size.
        let handoff = Handoff(unsafe { alloc(layout) });
        thread::spawn(move || {
            let block = handoff.take();
            // SAFETY: `alloc` returned it for `layout`; the spawner gave
            // it up.
            unsafe { free(block, layout) };
            // SAFETY: a non-zero size.
            let again = unsafe { alloc(layout) };
            assert_eq!(again, block, "the freeing thread's cache serves it");
            // SAFETY: just allocated for `layout`, not used again.
            unsafe { free(again, layout) };
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_full_stack_moves_its_top_batch_to_the_depot() {
        let depot = Depot::new();
        let mut stack = Stack::new();
        let freed = blocks(CACHED + 1);
        for &block in &freed {
            stack.push(&depot, block);
        }
        assert_eq!(stack.len, BATCH + 1);
        assert_eq!(depot.lock().len, 1);
        // The stack serves its own blocks first, the last freed on top,
        // then takes the batch back.
        let mut served = empty(&mut stack, &depot);
        let batch = served.split_off(BATCH + 1);
        assert_eq!(served[0], freed[CACHED]);
        assert!(served[1..].iter().rev().eq(&freed[..BATCH]));
        assert!(batch.iter().rev().eq(&freed[BATCH..CACHED]));
    }

    #[test]
    fn a_drained_stack_gives_every_block_back() {
        let depot = Depot::new();
        let mut stack = Stack::new();
        let freed = blocks(CACHED);
        for &block in &freed {
            stack.push(&depot, block);
        }
        stack.drain(&depot);
        assert_eq!((stack.len, depot.lock().len), (0, 2));
        let mut taken = empty(&mut stack, &depot);
        taken.reverse();
        assert!(taken.iter().eq(&freed), "a cached block was lost");
        // A partial batch goes to the allocator: Miri and LeakSanitizer
        // see a block it loses.
        for &block in &blocks(BATCH - 1) {
            stack.push(&depot, block);
        }
        stack.drain(&depot);
        assert_eq!((stack.len, depot.lock().len), (0, 0));
    }

    #[test]
    fn a_thread_that_exits_with_a_full_cache_gives_it_back() {
        // What its cache gives back lands in the depot every thread
        // shares, so this checks no count: Miri and LeakSanitizer see a
        // block the exit loses.
        thread::spawn(|| {
            for block in blocks(CACHED) {
                // SAFETY: a fresh pooled block, not used again.
                unsafe { free(block, BLOCK) };
            }
            assert_eq!(with_stack(|stack| stack.len), Some(CACHED));
        })
        .join()
        .unwrap();
    }
}
