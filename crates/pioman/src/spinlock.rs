//! The spinlock protecting each task queue.
//!
//! The paper is explicit about this choice (§IV-A): "a thread that modifies
//! a list enters the corresponding critical section for a very short period,
//! less than the time required to perform a context switch. Using a
//! classical mutex or a semaphore [...] would imply a risk of costly context
//! switches. On the contrary, using spinlocks [...] guarantees a fast access
//! to the list."
//!
//! This is a test-and-test-and-set (TTAS) lock with bounded exponential
//! backoff: waiters spin on a plain load (cache-local once the line is
//! shared) and only attempt the atomic swap when the lock looks free,
//! keeping the cache line from ping-ponging under contention — the effect
//! the paper measures at the per-chip and global levels of Tables I–II.

use core::cell::UnsafeCell;
use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A TTAS spinlock with exponential backoff guarding a `T`.
///
/// # Examples
///
/// ```
/// use pioman::spinlock::SpinLock;
/// let lock = SpinLock::new(0u32);
/// *lock.lock() += 1;
/// assert_eq!(*lock.lock(), 1);
/// ```
pub struct SpinLock<T> {
    locked: AtomicBool,
    /// Number of lock acquisitions that had to spin at least once.
    contended: AtomicU64,
    /// Total acquisitions.
    acquisitions: AtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides the necessary synchronization: `value` is only
// reachable through a guard obtained by winning `locked`.
unsafe impl<T: Send> Send for SpinLock<T> {}
unsafe impl<T: Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates an unlocked lock around `value`.
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            contended: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning until available.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let mut spun = false;
        let mut backoff = 1u32;
        // TTAS: swap only when a relaxed peek says the lock looks free.
        while self.locked.swap(true, Ordering::Acquire) {
            spun = true;
            while self.locked.load(Ordering::Relaxed) {
                for _ in 0..backoff {
                    core::hint::spin_loop();
                }
                // Cap the backoff: the critical sections are tiny, so waiting
                // long strides would only add latency.
                backoff = (backoff * 2).min(64);
            }
        }
        bump(&self.acquisitions, 1);
        if spun {
            bump(&self.contended, 1);
        }
        SpinGuard { lock: self }
    }

    /// Tries to acquire without spinning. Returns `None` if held.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            bump(&self.acquisitions, 1);
            Some(SpinGuard { lock: self })
        } else {
            None
        }
    }

    /// `true` if some thread currently holds the lock (racy snapshot).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    /// Total successful acquisitions (relaxed counter; diagnostic only).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions that found the lock held and had to spin.
    pub fn contended_acquisitions(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Mutable access without locking (safe: `&mut self` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

/// `+= n` on a counter only a lock's holder writes: a relaxed load + store, not a locked
/// RMW. No count is lost, as the lock's `Acquire` swap / `Release` store orders the holders.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl<T: core::fmt::Debug> core::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("SpinLock").field(&*g).finish(),
            None => f.write_str("SpinLock(<locked>)"),
        }
    }
}

/// RAII guard: the lock is released on drop.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists, so we hold the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard exists, so we hold the lock exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic_mutation() {
        let lock = SpinLock::new(vec![1, 2]);
        lock.lock().push(3);
        assert_eq!(*lock.lock(), vec![1, 2, 3]);
        assert_eq!(lock.acquisitions(), 2);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        assert!(lock.is_locked());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = SpinLock::new(5);
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 6);
    }

    #[test]
    fn counter_under_contention_is_exact() {
        // The classic torture test: N threads x M increments.
        let lock = Arc::new(SpinLock::new(0u64));
        let threads = 4;
        let iters = if cfg!(miri) { 200 } else { 10_000 };
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = lock.clone();
                thread::spawn(move || {
                    for _ in 0..iters {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), threads * iters);
    }

    #[test]
    fn guard_release_makes_writes_visible() {
        // Publication test: a value written under the lock must be visible
        // to the thread that subsequently acquires it (Release/Acquire).
        let lock = Arc::new(SpinLock::new(None::<String>));
        let l2 = lock.clone();
        let writer = thread::spawn(move || {
            *l2.lock() = Some("published".to_owned());
        });
        writer.join().unwrap();
        assert_eq!(lock.lock().as_deref(), Some("published"));
    }

    #[test]
    fn contention_counter_moves_under_fight() {
        let lock = Arc::new(SpinLock::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = lock.clone();
                thread::spawn(move || {
                    for _ in 0..5_000 {
                        let mut g = lock.lock();
                        *g = g.wrapping_add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // We cannot assert contention happened on a 1-core box (threads may
        // serialize perfectly), only that counters are consistent.
        assert!(lock.contended_acquisitions() <= lock.acquisitions());
        assert_eq!(lock.acquisitions(), 4 * 5_000);
    }
}
