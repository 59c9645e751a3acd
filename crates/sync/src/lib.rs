//! Ordered synchronization primitives and a deterministic schedule-chaos
//! injector — the runtime half of the workspace's concurrency-correctness
//! story (the static half is `neo-xtask lint`'s `lock_order` rule).
//!
//! # Ordered locks
//!
//! [`OrderedMutex`], [`OrderedRwLock`], and [`OrderedBarrier`] wrap their
//! `std::sync` counterparts with a `&'static str` name. With the crate's
//! `sanitize` feature **off** (the default) they are pass-throughs: no
//! tracking, no extra state per acquisition, bitwise-identical behavior.
//! With `sanitize` **on**, every acquisition maintains a thread-local
//! held-lock stack and a process-wide acquisition-order graph:
//!
//! * acquiring `B` while holding `A` records the order edge `A → B`;
//! * an acquisition whose edge would close a cycle — the classic AB/BA
//!   inversion that deadlocks under the wrong interleaving — is reported
//!   as a typed [`LockOrderViolation`] *before* blocking, either via the
//!   fallible [`OrderedMutex::lock_ordered`] or by recording into a
//!   process-wide registry drained with [`take_violations`];
//! * an [`OrderedBarrier::wait`] entered while holding any lock is
//!   flagged as a rendezvous wait-cycle hazard (a peer that needs the
//!   lock to reach the barrier would hang the whole group).
//!
//! Lock names form the workspace lock hierarchy documented in DESIGN.md
//! (e.g. `collectives.main.slots`, `dataio.feed.state`,
//! `telemetry.store`); the graph is keyed by those names, so one misuse
//! anywhere in a process is enough for the validator to learn the edge
//! and flag the reverse order everywhere else.
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
mod order;

pub use order::{take_violations, LockOrderViolation, ViolationKind};

use std::fmt;
use std::sync::{Barrier, BarrierWaitResult, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// Lock names the calling thread currently holds, outermost first.
/// Always empty when the `sanitize` feature is off.
pub fn held_locks() -> Vec<&'static str> {
    order::held_locks()
}

/// A named [`std::sync::Mutex`] participating in lock-order validation
/// when the `sanitize` feature is on; a plain pass-through otherwise.
pub struct OrderedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` under the order-graph node `name`. Names should be
    /// globally unique, dot-separated `crate.component.field` paths.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// This lock's order-graph name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, recovering from poison. Under `sanitize`, a
    /// would-be ordering violation is recorded in the process registry
    /// (see [`take_violations`]) and the acquisition proceeds anyway —
    /// the call site keeps its infallible signature.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        if let Some(v) = order::on_acquire(self.name) {
            order::record(v);
        }
        let inner = recover(self.inner.lock());
        order::on_acquired(self.name);
        OrderedMutexGuard {
            name: self.name,
            inner,
        }
    }

    /// Acquires the lock, refusing (without blocking) if the acquisition
    /// would commit an ordering violation under `sanitize`. With
    /// `sanitize` off this never fails.
    pub fn lock_ordered(&self) -> Result<OrderedMutexGuard<'_, T>, LockOrderViolation> {
        if let Some(v) = order::on_acquire(self.name) {
            return Err(v);
        }
        let inner = recover(self.inner.lock());
        order::on_acquired(self.name);
        Ok(OrderedMutexGuard {
            name: self.name,
            inner,
        })
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .finish()
    }
}

/// RAII guard for [`OrderedMutex`]; releases the order-graph hold on drop.
pub struct OrderedMutexGuard<'a, T> {
    name: &'static str,
    inner: MutexGuard<'a, T>,
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

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

impl<T> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutexGuard")
            .field("name", &self.name)
            .finish()
    }
}

/// A named [`std::sync::RwLock`] participating in lock-order validation
/// when the `sanitize` feature is on; a plain pass-through otherwise.
/// Reader and writer acquisitions share one order-graph node.
pub struct OrderedRwLock<T> {
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` under the order-graph node `name`.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: RwLock::new(value),
        }
    }

    /// This lock's order-graph name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Shared acquisition; ordering violations are recorded, not raised.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        if let Some(v) = order::on_acquire(self.name) {
            order::record(v);
        }
        let inner = recover(self.inner.read());
        order::on_acquired(self.name);
        OrderedReadGuard {
            name: self.name,
            inner,
        }
    }

    /// Exclusive acquisition; ordering violations are recorded, not raised.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        if let Some(v) = order::on_acquire(self.name) {
            order::record(v);
        }
        let inner = recover(self.inner.write());
        order::on_acquired(self.name);
        OrderedWriteGuard {
            name: self.name,
            inner,
        }
    }

    /// Shared acquisition that refuses (without blocking) on a would-be
    /// ordering violation under `sanitize`.
    pub fn read_ordered(&self) -> Result<OrderedReadGuard<'_, T>, LockOrderViolation> {
        if let Some(v) = order::on_acquire(self.name) {
            return Err(v);
        }
        let inner = recover(self.inner.read());
        order::on_acquired(self.name);
        Ok(OrderedReadGuard {
            name: self.name,
            inner,
        })
    }

    /// Exclusive acquisition that refuses (without blocking) on a
    /// would-be ordering violation under `sanitize`.
    pub fn write_ordered(&self) -> Result<OrderedWriteGuard<'_, T>, LockOrderViolation> {
        if let Some(v) = order::on_acquire(self.name) {
            return Err(v);
        }
        let inner = recover(self.inner.write());
        order::on_acquired(self.name);
        Ok(OrderedWriteGuard {
            name: self.name,
            inner,
        })
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .finish()
    }
}

/// Shared-access RAII guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    name: &'static str,
    inner: RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

impl<T> fmt::Debug for OrderedReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedReadGuard")
            .field("name", &self.name)
            .finish()
    }
}

/// Exclusive-access RAII guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    name: &'static str,
    inner: RwLockWriteGuard<'a, T>,
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

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

impl<T> fmt::Debug for OrderedWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedWriteGuard")
            .field("name", &self.name)
            .finish()
    }
}

/// A named [`std::sync::Barrier`]. Under `sanitize`, entering the wait
/// while holding any ordered lock records a
/// [`ViolationKind::RendezvousWhileLocked`] hazard (a peer that needs the
/// held lock to reach this barrier would deadlock the rendezvous); the
/// wait itself always proceeds so peers are not starved of the arrival.
pub struct OrderedBarrier {
    name: &'static str,
    inner: Barrier,
}

impl OrderedBarrier {
    /// A barrier for `n` threads under the order-graph node `name`.
    pub fn new(name: &'static str, n: usize) -> Self {
        Self {
            name,
            inner: Barrier::new(n),
        }
    }

    /// This barrier's order-graph name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Blocks until all `n` threads arrive; exactly one caller observes
    /// `is_leader()`.
    pub fn wait(&self) -> BarrierWaitResult {
        order::on_rendezvous(self.name);
        self.inner.wait()
    }
}

impl fmt::Debug for OrderedBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedBarrier")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_rwlock_pass_values_through() {
        let m = OrderedMutex::new("test.pass.m", 1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.name(), "test.pass.m");

        let rw = OrderedRwLock::new("test.pass.rw", vec![1, 2]);
        rw.write().push(3);
        assert_eq!(rw.read().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn barrier_elects_one_leader() {
        let b = Arc::new(OrderedBarrier::new("test.pass.bar", 3));
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
    fn consistent_nesting_is_silent() {
        let a = OrderedMutex::new("test.nest.a", ());
        let b = OrderedMutex::new("test.nest.b", ());
        for _ in 0..3 {
            let _ga = a.lock();
            let gb = b.lock_ordered();
            assert!(gb.is_ok(), "same-order nesting must never be flagged");
        }
        assert!(held_locks().is_empty());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn inversion_is_refused_with_the_closing_cycle() {
        let a = OrderedMutex::new("test.inv.a", ());
        let b = OrderedMutex::new("test.inv.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // learns the edge a -> b
        }
        let _gb = b.lock();
        let err = a.lock_ordered().expect_err("b-then-a closes a cycle");
        assert_eq!(err.kind, ViolationKind::Cycle);
        assert_eq!(err.acquiring, "test.inv.a");
        assert_eq!(err.held, vec!["test.inv.b"]);
        assert_eq!(err.cycle.first(), Some(&"test.inv.a"));
        assert_eq!(err.cycle.last(), Some(&"test.inv.a"));
        assert!(err.cycle.contains(&"test.inv.b"));
        assert!(err.to_string().contains("lock-order cycle"));
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn reacquiring_the_same_lock_is_a_self_cycle() {
        let a = OrderedMutex::new("test.self.a", ());
        let _g = a.lock();
        let err = a.lock_ordered().expect_err("self-deadlock");
        assert_eq!(err.cycle, vec!["test.self.a", "test.self.a"]);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn held_stack_tracks_scopes() {
        let a = OrderedMutex::new("test.held.a", ());
        let rw = OrderedRwLock::new("test.held.rw", ());
        {
            let _ga = a.lock();
            let _gr = rw.read();
            assert_eq!(held_locks(), vec!["test.held.a", "test.held.rw"]);
        }
        assert!(held_locks().is_empty());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn rendezvous_while_locked_is_recorded() {
        let b = OrderedBarrier::new("test.rdv.bar", 1);
        let m = OrderedMutex::new("test.rdv.m", ());
        {
            let _g = m.lock();
            b.wait();
        }
        let hazards = take_violations();
        assert!(
            hazards
                .iter()
                .any(|v| v.kind == ViolationKind::RendezvousWhileLocked
                    && v.acquiring == "test.rdv.bar"
                    && v.held == vec!["test.rdv.m"]),
            "expected a rendezvous hazard, got {hazards:?}"
        );
    }

    #[cfg(not(feature = "sanitize"))]
    #[test]
    fn disarmed_wrappers_never_flag_anything() {
        let a = OrderedMutex::new("test.off.a", ());
        let b = OrderedMutex::new("test.off.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let _gb = b.lock();
        assert!(a.lock_ordered().is_ok(), "pass-through build");
        assert!(take_violations().is_empty());
        assert!(held_locks().is_empty());
    }
}
