//! The split-phase rendezvous every collective goes through: one ordered
//! ring of epoch-tagged entries per group.
//!
//! Ranks number their collectives with private epoch counters, in step
//! because the trainer is SPMD. [`Ring::arrive`] deposits into entry
//! `epoch` without waiting; [`Ring::complete`] blocks until all `world`
//! ranks have arrived, hands out every deposit, and the last reader frees
//! the entry — the arrive/wait split of a phased barrier (C++20
//! `std::barrier`). An entry waits for arrivals, never for other entries'
//! reads, so completions may come in any order: the rank with the fewest
//! arrivals can always proceed. The ring holds one entry per collective
//! not yet read by all — the overlapped schedule's three outstanding
//! posts plus the collective in progress — and has no size knob.

use std::any::Any;
use std::sync::Arc;

use neo_sync::{LockClass, OrderedCondvar, OrderedMutex};

use crate::group::{CollectiveError, Op};

/// One rank's contribution to a collective, shared by pointer with every
/// reader.
pub(crate) type Deposit = Arc<dyn Any + Send + Sync>;

/// One collective in flight.
struct Entry {
    /// The collective's epoch; `None` while the entry is free for reuse.
    epoch: Option<u64>,
    /// `(op, payload)` per rank, filled as ranks arrive.
    deposits: Vec<Option<(Op, Deposit)>>,
    arrived: usize,
    read: usize,
}

/// The rendezvous state one process group shares.
pub(crate) struct Ring {
    world: usize,
    entries: OrderedMutex<Vec<Entry>>,
    all_arrived: OrderedCondvar,
}

impl Ring {
    pub(crate) fn new(world: usize) -> Self {
        Ring {
            world,
            entries: OrderedMutex::new(LockClass::CollectiveSlots, Vec::new()),
            all_arrived: OrderedCondvar::new(),
        }
    }

    pub(crate) fn world(&self) -> usize {
        self.world
    }

    /// Deposits `payload` as `rank`'s contribution to collective `epoch`,
    /// named `op`, and counts the arrival; never waits. Panics when an
    /// earlier arrival named another op — after counting, so the earlier
    /// ranks wake and find the mismatch too.
    pub(crate) fn arrive(&self, epoch: u64, rank: usize, op: Op, payload: Deposit) {
        let mut entries = self.entries.lock();
        let i = match entries.iter().position(|e| e.epoch == Some(epoch)) {
            Some(i) => i,
            None => {
                let free = entries.iter().position(|e| e.epoch.is_none());
                let i = free.unwrap_or_else(|| {
                    entries.push(Entry {
                        epoch: None,
                        deposits: (0..self.world).map(|_| None).collect(),
                        arrived: 0,
                        read: 0,
                    });
                    entries.len() - 1
                });
                entries[i].epoch = Some(epoch);
                i
            }
        };
        let e = &mut entries[i];
        debug_assert!(e.deposits[rank].is_none(), "rank {rank} double deposit");
        e.deposits[rank] = Some((op, payload));
        e.arrived += 1;
        if e.arrived == self.world {
            self.all_arrived.notify_all();
        }
        check_ops(&e.deposits, rank, op);
    }

    /// Blocks until every rank has arrived at `epoch`, then returns all
    /// deposits in rank order and counts this rank's read; the last read
    /// frees the entry. `park` runs only when the caller must block, and
    /// what it returns is held until the peers have arrived. An entry
    /// that is gone is a [`CollectiveError::MissingDeposit`].
    pub(crate) fn complete<P>(
        &self,
        epoch: u64,
        rank: usize,
        op: Op,
        park: impl FnOnce() -> P,
    ) -> Result<Vec<Deposit>, CollectiveError> {
        let world = self.world;
        let find = |en: &[Entry]| en.iter().position(|e| e.epoch == Some(epoch));
        let pending = |en: &mut Vec<Entry>| find(en).is_some_and(|i| en[i].arrived < world);
        let mut entries = self.entries.lock();
        if pending(&mut entries) {
            let parked = park();
            entries = self.all_arrived.wait_while(entries, pending);
            drop(parked);
        }
        let i = find(&entries).ok_or(CollectiveError::MissingDeposit { op })?;
        let e = &mut entries[i];
        check_ops(&e.deposits, rank, op);
        let deposits = e
            .deposits
            .iter()
            .map(|d| d.as_ref().map(|(_, p)| Arc::clone(p)))
            .collect::<Option<Vec<_>>>()
            .ok_or(CollectiveError::MissingDeposit { op });
        e.read += 1;
        if e.read == world {
            e.epoch = None;
            e.arrived = 0;
            e.read = 0;
            e.deposits.iter_mut().for_each(|d| *d = None);
        }
        deposits
    }
}

/// Asserts every deposit present names `op`, the collective `rank` called.
fn check_ops(deposits: &[Option<(Op, Deposit)>], rank: usize, op: Op) {
    for (r, d) in deposits.iter().enumerate() {
        if let Some((other, _)) = d {
            assert_eq!(
                *other, op,
                "collective mismatch: rank {rank} called {op} while rank {r} called {other}"
            );
        }
    }
}
