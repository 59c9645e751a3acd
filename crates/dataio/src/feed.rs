//! Multi-consumer, by-index view over a [`PrefetchReader`].
//!
//! The hybrid-parallel trainer runs one worker thread per simulated
//! GPU, and every worker consumes the *same* global batch sequence
//! (each takes its own slice). A [`PrefetchReader`] is single-consumer
//! and strictly in-order, so [`SharedFeed`] sits between them: it pulls
//! batches off the reader sequentially, parks each one until all
//! `world` consumers have claimed it, and hands the last claim the
//! owned value. Workers may run up to an iteration apart (the
//! overlapped Fig. 9 schedule requests batch `k + 1` during iteration
//! `k`), so the park window stays a couple of batches deep.

use std::collections::BTreeMap;

use neo_sync::{LockClass, OrderedMutex};

use crate::batch::CombinedBatch;
use crate::reader::PrefetchReader;

/// Shares one [`PrefetchReader`] between `world` by-index consumers.
///
/// # Example
///
/// ```
/// use neo_dataio::{PrefetchReader, SharedFeed, SyntheticConfig, SyntheticDataset};
///
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(2, 100, 3, 4)).unwrap();
/// let reader = PrefetchReader::spawn(3, 2, move |k| ds.batch(16, k));
/// let feed = SharedFeed::new(reader, 2);
/// std::thread::scope(|s| {
///     for _ in 0..2 {
///         s.spawn(|| {
///             for k in 0..3 {
///                 assert_eq!(feed.batch(k).unwrap().batch_size(), 16);
///             }
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct SharedFeed {
    state: OrderedMutex<FeedState>,
    world: usize,
}

#[derive(Debug)]
struct FeedState {
    reader: PrefetchReader,
    /// Index the next `reader` pull will produce.
    next: u64,
    /// Batches pulled but not yet claimed by every consumer, with the
    /// number of outstanding claims.
    parked: BTreeMap<u64, (CombinedBatch, usize)>,
}

impl SharedFeed {
    /// Wraps `reader` for `world` consumers; each batch index can be
    /// claimed once per consumer.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(reader: PrefetchReader, world: usize) -> Self {
        assert!(world > 0, "feed needs at least one consumer");
        Self {
            state: OrderedMutex::new(
                LockClass::FeedState,
                FeedState {
                    reader,
                    next: 0,
                    parked: BTreeMap::new(),
                },
            ),
            world,
        }
    }

    /// One consumer's claim on batch `k`. Blocks while the reader
    /// catches up to `k`; returns `None` when the stream ends before
    /// `k`, or when every claim on `k` was already taken.
    pub fn batch(&self, k: u64) -> Option<CombinedBatch> {
        let mut st = self.state.lock();
        loop {
            if let Some((_, claims)) = st.parked.get_mut(&k) {
                *claims -= 1;
                return if *claims == 0 {
                    st.parked.remove(&k).map(|(b, _)| b)
                } else {
                    st.parked.get(&k).map(|(b, _)| b.clone())
                };
            }
            if st.next > k {
                return None; // fully claimed and evicted already
            }
            let batch = st.reader.next_batch()?;
            let idx = st.next;
            st.next += 1;
            st.parked.insert(idx, (batch, self.world));
        }
    }

    /// Batch indices currently parked (pulled but not fully claimed).
    pub fn parked(&self) -> usize {
        self.state.lock().parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticConfig, SyntheticDataset};

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(2, 64, 2, 3)).unwrap()
    }

    fn feed(num_batches: u64, world: usize) -> SharedFeed {
        let ds = dataset();
        SharedFeed::new(
            PrefetchReader::spawn(num_batches, 2, move |k| ds.batch(8, k)),
            world,
        )
    }

    #[test]
    fn every_consumer_sees_every_batch() {
        let ds = dataset();
        let want: Vec<_> = (0..4).map(|k| ds.batch(8, k)).collect();
        let f = feed(4, 3);
        let got: Vec<Vec<CombinedBatch>> = std::thread::scope(|s| {
            (0..3)
                .map(|_| s.spawn(|| (0..4).filter_map(|k| f.batch(k)).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("consumer"))
                .collect()
        });
        for g in got {
            assert_eq!(g, want);
        }
        assert_eq!(f.parked(), 0, "all batches fully claimed");
    }

    #[test]
    fn armed_reader_records_under_the_feed_lock() {
        // the one lock nesting the program executes: `batch` holds the
        // feed state while the reader records into an armed sink, which
        // takes the telemetry store; debug builds check it against the
        // LockClass rank on every claim
        let ds = dataset();
        let sink = neo_telemetry::TelemetrySink::armed();
        let f = SharedFeed::new(
            PrefetchReader::spawn_with_telemetry(4, 2, sink.clone(), move |k| ds.batch(8, k)),
            2,
        );
        let claimed: usize = std::thread::scope(|s| {
            (0..2)
                .map(|_| s.spawn(|| (0..4).filter_map(|k| f.batch(k)).count()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("consumer"))
                .sum()
        });
        assert_eq!(claimed, 8, "every batch claimed by both consumers");
        let snap = sink.snapshot().expect("armed sink snapshots");
        let depth_points = snap
            .gauges
            .iter()
            .find(|(k, _)| *k == neo_telemetry::Metric::DataioQueueDepth.name())
            .map(|(_, s)| s.len());
        assert_eq!(depth_points, Some(4), "one record per pull, under the lock");
    }

    #[test]
    fn consumers_one_iteration_apart_stay_served() {
        // the overlapped trainer asks for k and k+1 in the same
        // iteration; claims interleaved across indices must all land
        let ds = dataset();
        let want: Vec<_> = (0..5).map(|k| ds.batch(8, k)).collect();
        let f = feed(5, 2);
        let pattern: &[u64] = &[0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 2, 3, 1, 4];
        let mut seen = Vec::new();
        for &k in pattern {
            if let Some(b) = f.batch(k) {
                assert_eq!(b, want[k as usize], "batch {k}");
                seen.push(k);
            }
        }
        let mut claims = [0usize; 5];
        for k in seen {
            claims[k as usize] += 1;
        }
        assert_eq!(claims, [2; 5], "each index claimed exactly world times");
    }

    #[test]
    fn overclaiming_and_past_the_end_yield_none() {
        let f = feed(2, 1);
        assert!(f.batch(0).is_some());
        assert!(f.batch(0).is_none(), "single claim already taken");
        assert!(f.batch(1).is_some());
        assert!(f.batch(2).is_none(), "stream ended");
    }
}
