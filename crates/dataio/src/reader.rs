//! Background-prefetching batch reader.
//!
//! Stands in for the disaggregated data-ingestion service (Fig. 6): a
//! producer thread generates (or in production, deserializes and
//! pre-processes) batches ahead of the trainer and parks them in a bounded
//! queue, so host-side input work overlaps training — the double-buffering
//! / pipelining requirement of §3.0.2.

use crossbeam::channel::{bounded, Receiver};
use neo_telemetry::{Metric, TelemetrySink};

use crate::batch::CombinedBatch;

/// A bounded, threaded batch prefetcher.
///
/// # Example
///
/// ```
/// use neo_dataio::{PrefetchReader, SyntheticConfig, SyntheticDataset};
///
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(2, 100, 3, 4)).unwrap();
/// let mut reader = PrefetchReader::spawn(4, 2, move |k| ds.batch(16, k));
/// let mut seen = 0;
/// while let Some(batch) = reader.next_batch() {
///     assert_eq!(batch.batch_size(), 16);
///     seen += 1;
/// }
/// assert_eq!(seen, 4);
/// ```
#[derive(Debug)]
pub struct PrefetchReader {
    rx: Receiver<CombinedBatch>,
    handle: Option<std::thread::JoinHandle<()>>,
    telemetry: TelemetrySink,
    received: u64,
}

impl PrefetchReader {
    /// Spawns a producer thread that calls `make(k)` for
    /// `k in 0..num_batches`, keeping at most `depth` batches buffered
    /// (`depth = 2` gives the paper's double buffering).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn spawn(
        num_batches: u64,
        depth: usize,
        make: impl FnMut(u64) -> CombinedBatch + Send + 'static,
    ) -> Self {
        Self::spawn_with_telemetry(num_batches, depth, TelemetrySink::disabled(), make)
    }

    /// Like [`PrefetchReader::spawn`], additionally recording a
    /// `dataio.batch_build.ns` latency histogram on the producer side and
    /// a `dataio.queue_depth` gauge series sampled at every consumer
    /// receive. A disabled `sink` makes this identical to `spawn`.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn spawn_with_telemetry(
        num_batches: u64,
        depth: usize,
        sink: TelemetrySink,
        make: impl FnMut(u64) -> CombinedBatch + Send + 'static,
    ) -> Self {
        assert!(depth > 0, "prefetch depth must be positive");
        let (tx, rx) = bounded(depth);
        let mut make = make;
        let producer_sink = sink.clone();
        let handle = std::thread::spawn(move || {
            for k in 0..num_batches {
                let t0 = producer_sink.now_ns();
                let batch = make(k);
                if let (Some(t0), Some(t1)) = (t0, producer_sink.now_ns()) {
                    producer_sink
                        .histogram_observe(Metric::DataioBatchBuildNs, t1.saturating_sub(t0));
                }
                if tx.send(batch).is_err() {
                    return; // consumer hung up early
                }
            }
        });
        Self {
            rx,
            handle: Some(handle),
            telemetry: sink,
            received: 0,
        }
    }

    /// Blocks for the next batch; `None` once the stream is exhausted.
    pub fn next_batch(&mut self) -> Option<CombinedBatch> {
        if self.telemetry.enabled() {
            let depth = self.rx.len() as f64;
            self.telemetry
                .gauge_push(Metric::DataioQueueDepth, self.received, depth);
            // High-water mark: survives in a sampled monitor frame even if
            // the peak falls between two samples of the depth series.
            self.telemetry
                .gauge_set_max(Metric::DataioQueuePeak, self.received, depth);
            self.received += 1;
        }
        self.rx.recv().ok()
    }

    /// Number of batches currently buffered and ready.
    pub fn buffered(&self) -> usize {
        self.rx.len()
    }
}

impl Drop for PrefetchReader {
    fn drop(&mut self) {
        // Drop the live receiver first so a producer blocked on a full
        // queue fails its send and exits; then reap the thread.
        let (_tx, dummy_rx) = bounded::<CombinedBatch>(1);
        drop(std::mem::replace(&mut self.rx, dummy_rx));
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticConfig, SyntheticDataset};

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(2, 64, 2, 3)).unwrap()
    }

    #[test]
    fn yields_all_batches_in_order() {
        let ds = dataset();
        let want: Vec<_> = (0..5).map(|k| ds.batch(8, k)).collect();
        let mut r = PrefetchReader::spawn(5, 2, move |k| ds.batch(8, k));
        let mut got = Vec::new();
        while let Some(b) = r.next_batch() {
            got.push(b);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn prefetches_ahead_of_consumer() {
        let ds = dataset();
        let mut r = PrefetchReader::spawn(10, 3, move |k| ds.batch(4, k));
        // give the producer time to fill the buffer
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(r.buffered() >= 2, "buffered {}", r.buffered());
        let _ = r.next_batch();
    }

    #[test]
    fn early_drop_does_not_hang() {
        let ds = dataset();
        let mut r = PrefetchReader::spawn(1_000_000, 2, move |k| ds.batch(4, k % 3));
        let _ = r.next_batch();
        drop(r); // must unblock the producer and join promptly
    }

    #[test]
    fn zero_batches_finishes_immediately() {
        let ds = dataset();
        let mut r = PrefetchReader::spawn(0, 1, move |k| ds.batch(4, k));
        assert!(r.next_batch().is_none());
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        let ds = dataset();
        let _ = PrefetchReader::spawn(1, 0, move |k| ds.batch(4, k));
    }

    #[test]
    fn telemetry_records_build_latency_and_queue_depth() {
        let ds = dataset();
        let sink = neo_telemetry::TelemetrySink::armed();
        let mut r =
            PrefetchReader::spawn_with_telemetry(6, 2, sink.clone(), move |k| ds.batch(4, k));
        let mut seen = 0;
        while r.next_batch().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 6);
        let snap = sink.snapshot().expect("armed sink snapshots");
        let hist = snap
            .histograms
            .iter()
            .find(|(k, _)| *k == Metric::DataioBatchBuildNs.name())
            .map(|(_, h)| h.total());
        assert_eq!(hist, Some(6), "one build observation per batch");
        let depth_points = snap
            .gauges
            .iter()
            .find(|(k, _)| *k == Metric::DataioQueueDepth.name())
            .map(|(_, s)| s.len());
        // One sample per next_batch call, including the final None probe.
        assert_eq!(depth_points, Some(7));
        let depth_max = snap
            .gauges
            .iter()
            .find(|(k, _)| *k == Metric::DataioQueueDepth.name())
            .map(|(_, s)| s.iter().map(|&(_, v)| v).fold(0.0f64, f64::max));
        let peak = snap
            .gauges
            .iter()
            .find(|(k, _)| *k == Metric::DataioQueuePeak.name())
            .and_then(|(_, s)| s.last().map(|&(_, v)| v));
        assert_eq!(peak, depth_max, "peak gauge tracks the high-water mark");
    }

    #[test]
    fn disabled_telemetry_matches_plain_spawn() {
        let ds = dataset();
        let want: Vec<_> = (0..4).map(|k| ds.batch(8, k)).collect();
        let mut r = PrefetchReader::spawn_with_telemetry(
            4,
            2,
            neo_telemetry::TelemetrySink::disabled(),
            move |k| ds.batch(8, k),
        );
        let mut got = Vec::new();
        while let Some(b) = r.next_batch() {
            got.push(b);
        }
        assert_eq!(got, want);
    }
}
