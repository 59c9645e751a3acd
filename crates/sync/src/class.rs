//! Lock classes: the workspace lock order as a type.
//!
//! Every [`crate::OrderedMutex`] and [`crate::OrderedRwLock`] is built
//! with a [`LockClass`], and the enum's declaration order is the rank: a
//! thread holding class `A` may acquire class `B` only when `A < B`.
//! Threads that all climb the rank never wait on each other in a cycle,
//! so no interleaving can deadlock them on these locks.
//!
//! Under `debug_assertions` every acquisition checks a thread-local held
//! set and panics, naming both classes, on an out-of-rank or repeated
//! class; [`crate::OrderedBarrier::wait`] panics while any guard is held
//! (a peer that needs the lock to reach the barrier would hang the
//! group); and a thread marked with [`mark_comm_lane`] panics on a second
//! guard (a lane that waits on a lock re-exposes the communication the
//! overlap hides). The checks run before the lock blocks, so a violation
//! is reported instead of deadlocking. Release builds compile them out.

use std::cell::Cell;

/// A lock's rank in the workspace lock order; declaration order is the
/// rank. The only nesting the program executes is `FeedState` →
/// `TelemetryStore`, on worker threads: neo-dataio's `SharedFeed::batch`
/// holds the feed while the prefetch reader records into an armed sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// `neo-dataio`'s shared-feed state.
    FeedState,
    /// The collectives rendezvous slots. The main and comm-lane groups
    /// share the class: no thread holds both.
    CollectiveSlots,
    /// `neo-telemetry`'s metric and span store.
    TelemetryStore,
    /// `neo-telemetry`'s heartbeat slot registry.
    TelemetryHeartbeats,
}

/// Every class.
const CLASSES: [LockClass; 4] = [
    LockClass::FeedState,
    LockClass::CollectiveSlots,
    LockClass::TelemetryStore,
    LockClass::TelemetryHeartbeats,
];

impl LockClass {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

thread_local! {
    /// Classes this thread holds, one bit each. Held classes strictly
    /// increase, so the set is the whole held stack.
    static HELD: Cell<u8> = const { Cell::new(0) };
    /// Whether this thread is a comm lane (see [`mark_comm_lane`]).
    static COMM_LANE: Cell<bool> = const { Cell::new(false) };
}

/// The innermost (highest-ranked) class in the held set `held`.
fn innermost(held: u8) -> Option<LockClass> {
    CLASSES.into_iter().filter(|c| held & c.bit() != 0).max()
}

/// Marks the calling thread as a comm lane, which may hold one guard at
/// a time. The collectives crate calls this when it spawns a lane.
pub fn mark_comm_lane() {
    if cfg!(debug_assertions) {
        COMM_LANE.with(|lane| lane.set(true));
    }
}

/// One held class, released on drop; every guard owns one.
pub(crate) struct Held(LockClass);

impl Held {
    /// Records `class` as held, after checking it against what this
    /// thread already holds. Called before the lock blocks.
    pub(crate) fn acquire(class: LockClass) -> Self {
        if cfg!(debug_assertions) {
            HELD.with(|cell| {
                if let Some(top) = innermost(cell.get()) {
                    assert!(
                        top < class,
                        "lock order: acquiring {class:?} while holding {top:?}; a thread \
                         may only acquire a LockClass ranked above every class it holds"
                    );
                    assert!(
                        !COMM_LANE.with(Cell::get),
                        "comm lane acquires {class:?} while holding {top:?}; a lane may \
                         hold one guard at a time"
                    );
                }
                cell.set(cell.get() | class.bit());
            });
        }
        Held(class)
    }

    pub(crate) fn class(&self) -> LockClass {
        self.0
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            HELD.with(|cell| cell.set(cell.get() & !self.0.bit()));
        }
    }
}

/// Checks that the calling thread holds no guard before a barrier wait.
pub(crate) fn check_rendezvous() {
    if cfg!(debug_assertions) {
        assert_eq!(
            innermost(HELD.with(Cell::get)),
            None,
            "barrier wait while holding a guard; a peer that needs the lock to \
             reach the barrier would hang the group"
        );
    }
}
