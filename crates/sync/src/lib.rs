//! Ordered synchronization primitives and a deterministic schedule-chaos
//! injector — the runtime half of the workspace's concurrency-correctness
//! story.
//!
//! # Ordered locks
//!
//! [`OrderedMutex`] wraps `std::sync::Mutex` with a [`LockClass`], whose
//! declaration order is the workspace lock order. Under
//! `debug_assertions` every acquisition checks the classes the calling
//! thread already holds and panics, naming both classes, on an
//! out-of-rank or repeated class, before it blocks. [`OrderedCondvar::wait_while`] — the collectives ring's wait
//! for its peers' arrival — panics while the caller holds any guard
//! besides the one it waits with. Release builds compile the checks out,
//! so the wrappers are pass-throughs there. See [`LockClass`] for the
//! rank.
//!
//! # Poison policy
//!
//! All wrappers recover from poisoning via [`recover`] instead of
//! propagating panics into unrelated threads: a worker panic is already
//! surfaced where that worker is joined, so a poisoned guard only means
//! "a panic was reported elsewhere" and the protected state — plain
//! data, never mid-invariant — stays usable.
//!
//! # Schedule chaos
//!
//! The [`chaos`] module provides seeded yield points for the
//! `neo-xtask interleave` harness; see its docs for the determinism
//! contract.

#![deny(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "the Ordered* wrappers are built on the std::sync locks they replace"
)]

pub mod chaos;
mod class;

pub use class::LockClass;

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// class ranked at or above this one.
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

/// A [`std::sync::Condvar`] waited on with an [`OrderedMutexGuard`]: the
/// collectives ring parks here until every rank has arrived. Under
/// `debug_assertions` a wait panics while the caller holds any guard
/// besides the one it waits with: a peer that needs that lock to arrive
/// would hang the group.
#[derive(Debug, Default)]
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        Self {
            inner: Condvar::new(),
        }
    }

    /// Blocks while `cond` holds, releasing `guard`'s lock while parked
    /// and re-acquiring it before each check, recovering from poison.
    pub fn wait_while<'a, T>(
        &self,
        guard: OrderedMutexGuard<'a, T>,
        cond: impl FnMut(&mut T) -> bool,
    ) -> OrderedMutexGuard<'a, T> {
        class::check_wait(guard.held.class());
        let OrderedMutexGuard { inner, held } = guard;
        OrderedMutexGuard {
            inner: recover(self.inner.wait_while(inner, cond)),
            held,
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
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
    fn mutex_passes_values_through() {
        let m = OrderedMutex::new(LockClass::FeedState, 1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_a_waiter_once_its_condition_clears() {
        let slot = Arc::new((
            OrderedMutex::new(LockClass::CollectiveSlots, 0u32),
            OrderedCondvar::new(),
        ));
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let (m, cv) = &*slot;
                *cv.wait_while(m.lock(), |arrived| *arrived < 2)
            })
        };
        for _ in 0..2 {
            let (m, cv) = &*slot;
            *m.lock() += 1;
            cv.notify_all();
        }
        assert_eq!(waiter.join().expect("waiter thread"), 2);
    }

    #[test]
    fn rank_order_nesting_is_silent() {
        let feed = OrderedMutex::new(LockClass::FeedState, ());
        let slots = OrderedMutex::new(LockClass::CollectiveSlots, ());
        let store = OrderedMutex::new(LockClass::TelemetryStore, ());
        let beats = OrderedMutex::new(LockClass::TelemetryHeartbeats, ());
        for _ in 0..3 {
            let _f = feed.lock();
            let _s = slots.lock();
            let _r = store.lock();
            let _b = beats.lock();
        }
        // released classes may be taken again, in any order
        drop(beats.lock());
        drop(feed.lock());
        // waiting with the only guard held is silent
        let cv = OrderedCondvar::new();
        drop(cv.wait_while(slots.lock(), |_| false));
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
                // two locks of one class
                let main = OrderedMutex::new(LockClass::CollectiveSlots, ());
                let other = OrderedMutex::new(LockClass::CollectiveSlots, ());
                let _m = main.lock();
                let _o = other.lock();
            },
        );
    }

    #[test]
    fn condition_wait_while_holding_another_guard_panics() {
        assert_checked(&["condition wait", "FeedState"], || {
            let feed = OrderedMutex::new(LockClass::FeedState, ());
            let slots = OrderedMutex::new(LockClass::CollectiveSlots, ());
            let _f = feed.lock();
            drop(OrderedCondvar::new().wait_while(slots.lock(), |_| false));
        });
    }
}
