//! Lock classes: the workspace lock order as a type.
//!
//! Every [`crate::OrderedMutex`] is built with a [`LockClass`], and the
//! enum's declaration order is the rank: a thread holding class `A` may
//! acquire class `B` only when `A < B`.
//! Threads that all climb the rank never wait on each other in a cycle,
//! so no interleaving can deadlock them on these locks.
//!
//! Under `debug_assertions` every acquisition checks a thread-local held
//! set and panics, naming both classes, on an out-of-rank or repeated
//! class; and [`crate::OrderedCondvar::wait_while`] panics while any
//! guard besides the one it waits with is held (a peer that needs the
//! lock to arrive would hang the group). The checks run before the lock
//! blocks, so a violation is reported instead of deadlocking. Release
//! builds compile them out.

use std::cell::Cell;

/// A lock's rank in the workspace lock order; declaration order is the
/// rank. The only nesting the program executes is `FeedState` →
/// `TelemetryStore`, on worker threads: neo-dataio's `SharedFeed::batch`
/// holds the feed while the prefetch reader records into an armed sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// `neo-dataio`'s shared-feed state.
    FeedState,
    /// The collectives ring of one process group.
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
}

/// The innermost (highest-ranked) class in the held set `held`.
fn innermost(held: u8) -> Option<LockClass> {
    CLASSES.into_iter().filter(|c| held & c.bit() != 0).max()
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

/// Checks that the calling thread holds no guard but the one of class
/// `waiting` before a condition wait.
pub(crate) fn check_wait(waiting: LockClass) {
    if cfg!(debug_assertions) {
        assert_eq!(
            innermost(HELD.with(Cell::get) & !waiting.bit()),
            None,
            "condition wait on {waiting:?} while holding another guard; a peer that \
             needs the lock to arrive would hang the group"
        );
    }
}
