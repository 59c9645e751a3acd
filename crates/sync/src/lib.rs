//! Ordered synchronization primitives and a deterministic schedule-chaos
//! injector — the runtime half of the workspace's concurrency-correctness
//! story.
//!
//! # Ordered locks
//!
//! [`OrderedMutex`] and [`OrderedRwLock`] wrap their `std::sync`
//! counterparts with a [`LockClass`], whose declaration order is the
//! workspace lock order. Under `debug_assertions` every acquisition
//! checks the classes the calling thread already holds and panics,
//! naming both classes, on an out-of-rank or repeated class, before it
//! blocks. [`OrderedBarrier::wait`] panics while the caller holds any
//! guard, and a thread marked with [`mark_comm_lane`] panics on a second
//! guard. Release builds compile the checks out, so the wrappers are
//! pass-throughs there. See [`LockClass`] for the rank.
//!
//! # Poison policy
//!
//! All wrappers recover from poisoning via [`recover`] instead of
//! propagating panics into unrelated threads: worker panics are already
//! surfaced as typed errors at their ends of the channels (e.g.
//! `CollectiveError::LaneFailed`), so a poisoned guard only means "a
//! panic was reported elsewhere" and the protected state — plain data,
//! never mid-invariant — stays usable.
//!
//! # Schedule chaos
//!
//! The [`chaos`] module provides seeded yield points for the
//! `neo-xtask interleave` harness; see its docs for the determinism
//! contract.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "the Ordered* wrappers are built on the std::sync locks they replace"
)]

pub mod chaos;
mod class;

pub use class::{mark_comm_lane, LockClass};

use std::fmt;
use std::sync::{Barrier, BarrierWaitResult, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use class::Held;

/// Recovers the guard from a poisoned lock result.
///
/// The workspace-wide poison policy: a poisoned `std::sync` lock only
/// records that some thread panicked while holding it; the panic itself
/// is surfaced as a typed error on whichever channel the panicking
/// thread served. Protected state is plain data (never left
/// mid-invariant), so the guard is safe to use.
pub fn recover<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A [`std::sync::Mutex`] of a [`LockClass`], rank-checked under
/// `debug_assertions`.
pub struct OrderedMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a lock of `class`.
    pub const fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering from poison.
    ///
    /// # Panics
    ///
    /// Under `debug_assertions`, when the calling thread already holds a
    /// class ranked at or above this one, or holds any guard on a comm
    /// lane.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let held = Held::acquire(self.class);
        OrderedMutexGuard {
            inner: recover(self.inner.lock()),
            held,
        }
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class)
            .finish()
    }
}

/// RAII guard for [`OrderedMutex`]; releases its class on drop.
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    held: Held,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutexGuard")
            .field("class", &self.held.class())
            .finish()
    }
}

/// A [`std::sync::RwLock`] of a [`LockClass`], rank-checked under
/// `debug_assertions`. Readers and writers hold the same class.
pub struct OrderedRwLock<T> {
    class: LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in a lock of `class`.
    pub const fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: RwLock::new(value),
        }
    }

    /// Shared acquisition, checked like [`OrderedMutex::lock`].
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let held = Held::acquire(self.class);
        OrderedReadGuard {
            inner: recover(self.inner.read()),
            held,
        }
    }

    /// Exclusive acquisition, checked like [`OrderedMutex::lock`].
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let held = Held::acquire(self.class);
        OrderedWriteGuard {
            inner: recover(self.inner.write()),
            held,
        }
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("class", &self.class)
            .finish()
    }
}

/// Shared-access RAII guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    held: Held,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> fmt::Debug for OrderedReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedReadGuard")
            .field("class", &self.held.class())
            .finish()
    }
}

/// Exclusive-access RAII guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    held: Held,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> fmt::Debug for OrderedWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedWriteGuard")
            .field("class", &self.held.class())
            .finish()
    }
}

/// A [`std::sync::Barrier`] whose wait, under `debug_assertions`, panics
/// while the caller holds any ordered guard: a peer that needs the held
/// lock to reach the barrier would deadlock the rendezvous.
#[derive(Debug)]
pub struct OrderedBarrier {
    inner: Barrier,
}

impl OrderedBarrier {
    /// A barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        Self {
            inner: Barrier::new(n),
        }
    }

    /// Blocks until all `n` threads arrive; exactly one caller observes
    /// `is_leader()`.
    pub fn wait(&self) -> BarrierWaitResult {
        class::check_rendezvous();
        self.inner.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The formatted panic message `f` raises on a fresh thread, if it
    /// panics.
    fn panic_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let payload = std::thread::spawn(f).join().err()?;
        Some(
            payload
                .downcast::<String>()
                .map_or_else(|_| String::new(), |s| *s),
        )
    }

    /// Asserts `f` panics naming every one of `words` under
    /// `debug_assertions`, and runs through without a check otherwise.
    fn assert_checked(words: &[&str], f: impl FnOnce() + Send + 'static) {
        let msg = panic_of(f);
        if !cfg!(debug_assertions) {
            assert_eq!(msg, None, "release builds carry no check");
            return;
        }
        let msg = msg.expect("the check did not fire");
        for w in words {
            assert!(msg.contains(w), "`{w}` missing from: {msg}");
        }
    }

    #[test]
    fn mutex_and_rwlock_pass_values_through() {
        let m = OrderedMutex::new(LockClass::FeedState, 1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);

        let rw = OrderedRwLock::new(LockClass::TelemetryStore, vec![1, 2]);
        rw.write().push(3);
        assert_eq!(rw.read().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn barrier_elects_one_leader() {
        let b = Arc::new(OrderedBarrier::new(3));
        let leaders: usize = std::thread::scope(|s| {
            (0..3)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || usize::from(b.wait().is_leader()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("barrier thread"))
                .sum()
        });
        assert_eq!(leaders, 1);
    }

    #[test]
    fn rank_order_nesting_is_silent() {
        let feed = OrderedMutex::new(LockClass::FeedState, ());
        let slots = OrderedMutex::new(LockClass::CollectiveSlots, ());
        let store = OrderedRwLock::new(LockClass::TelemetryStore, ());
        let beats = OrderedMutex::new(LockClass::TelemetryHeartbeats, ());
        for _ in 0..3 {
            let _f = feed.lock();
            let _s = slots.lock();
            let _r = store.read();
            let _b = beats.lock();
        }
        // released classes may be taken again, in any order
        drop(beats.lock());
        drop(feed.lock());
        OrderedBarrier::new(1).wait();
    }

    #[test]
    fn seeded_inversion_panics_naming_both_classes() {
        assert_checked(&["acquiring FeedState", "holding TelemetryStore"], || {
            let feed = OrderedMutex::new(LockClass::FeedState, ());
            let store = OrderedMutex::new(LockClass::TelemetryStore, ());
            let _s = store.lock();
            let _f = feed.lock();
        });
    }

    #[test]
    fn same_class_reacquire_panics() {
        assert_checked(
            &["acquiring CollectiveSlots", "holding CollectiveSlots"],
            || {
                // two locks of one class: the main and lane slots
                let main = OrderedMutex::new(LockClass::CollectiveSlots, ());
                let lane = OrderedRwLock::new(LockClass::CollectiveSlots, ());
                let _m = main.lock();
                let _l = lane.write();
            },
        );
    }

    #[test]
    fn barrier_wait_while_holding_a_guard_panics() {
        assert_checked(&["barrier wait", "TelemetryHeartbeats"], || {
            let beats = OrderedMutex::new(LockClass::TelemetryHeartbeats, ());
            let _b = beats.lock();
            OrderedBarrier::new(1).wait();
        });
    }

    #[test]
    fn second_guard_on_a_comm_lane_panics() {
        assert_checked(&["comm lane", "TelemetryStore", "CollectiveSlots"], || {
            mark_comm_lane();
            let slots = OrderedMutex::new(LockClass::CollectiveSlots, ());
            let store = OrderedMutex::new(LockClass::TelemetryStore, ());
            drop(store.lock()); // one guard at a time is fine
            let _s = slots.lock();
            let _t = store.lock();
        });
    }
}
