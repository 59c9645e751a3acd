//! Metric storage: counters, gauge series, log2-bucket histograms.

use crate::export::Snapshot;
use crate::{Metric, SpanRecord};
use std::collections::BTreeMap;

/// Number of histogram buckets. Bucket 0 holds exact zeros; bucket `i >= 1`
/// holds values `v` with `floor(log2(v)) == i - 1`, i.e. `[2^(i-1), 2^i)`,
/// with the last bucket absorbing everything larger.
pub const NUM_BUCKETS: usize = 64;

/// Fixed log2-bucket histogram over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; NUM_BUCKETS],
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; NUM_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for `value` (see [`NUM_BUCKETS`] for the scheme).
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let log2 = 63 - value.leading_zeros() as usize;
            (log2 + 1).min(NUM_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (the last bucket absorbs
    /// everything up to `u64::MAX`).
    pub fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`, clamped) via within-bucket
    /// linear interpolation.
    ///
    /// The k-th smallest observation (`k = ceil(q * total)`, at least 1) is
    /// located by cumulative bucket counts; the estimate interpolates
    /// between the bucket's edges by the observation's position within the
    /// bucket. The estimate therefore always lies inside the edges of the
    /// bucket holding the true empirical quantile (log2 buckets bound the
    /// relative error by 2x). Returns 0.0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let k = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= k {
                let lo = Self::bucket_lo(i) as f64;
                let hi = Self::bucket_hi(i) as f64;
                let within = (k - seen) as f64 / c as f64;
                return lo + (hi - lo) * within;
            }
            seen += c;
        }
        Self::bucket_hi(NUM_BUCKETS - 1) as f64
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// Non-empty buckets as `(bucket_lo, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
            .collect()
    }

    /// Non-empty buckets as `(bucket_lo, bucket_hi, count)` triples,
    /// ascending. Both bounds are inclusive — consumers get the exact
    /// bucket edges without hard-coding the log2 scheme.
    pub fn nonzero_bucket_ranges(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
            .collect()
    }

    /// Fold `other` into `self` (bucket-wise; totals and sums add).
    /// Merging is exact because every histogram shares the fixed log2
    /// bucket layout.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Cheap point-in-time metrics sample: final counter values plus the
/// latest point of every gauge series. Built by `TelemetrySink::sample`
/// for live monitors — no span or histogram clones, so taking one every
/// few milliseconds does not stretch the store lock's hold time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSample {
    /// Monotonic counters, name-ascending.
    pub counters: Vec<(String, u64)>,
    /// Latest `(iteration, value)` point per gauge, name-ascending.
    pub gauges: Vec<(String, u64, f64)>,
}

/// Everything a sink has recorded. `BTreeMap` keys give the exporters a
/// deterministic order for free.
#[derive(Debug, Default)]
pub(crate) struct Store {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<(u64, f64)>>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
}

impl Store {
    pub(crate) fn counter_add(&mut self, metric: Metric, delta: u64) {
        let name = metric.name();
        if let Some(c) = self.counters.get_mut(&*name) {
            *c = c.saturating_add(delta);
        } else {
            self.counters.insert(name.into_owned(), delta);
        }
    }

    pub(crate) fn gauge_push(&mut self, metric: Metric, iter: u64, value: f64) {
        let name = metric.name();
        if let Some(series) = self.gauges.get_mut(&*name) {
            series.push((iter, value));
        } else {
            self.gauges.insert(name.into_owned(), vec![(iter, value)]);
        }
    }

    /// Running-max gauge: the series keeps exactly one point, replaced
    /// whenever a larger value is observed (see
    /// `TelemetrySink::gauge_set_max`). Do not mix with `gauge_push` on
    /// the same name — set_max would overwrite the pushed series' tail.
    pub(crate) fn gauge_set_max(&mut self, metric: Metric, iter: u64, value: f64) {
        let name = metric.name();
        if let Some(series) = self.gauges.get_mut(&*name) {
            match series.last_mut() {
                Some(last) if value > last.1 => *last = (iter, value),
                Some(_) => {}
                None => series.push((iter, value)),
            }
        } else {
            self.gauges.insert(name.into_owned(), vec![(iter, value)]);
        }
    }

    pub(crate) fn histogram_observe(&mut self, metric: Metric, value: u64) {
        let name = metric.name();
        if let Some(h) = self.histograms.get_mut(&*name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.into_owned(), h);
        }
    }

    pub(crate) fn push_span(&mut self, rec: SpanRecord) {
        self.spans.push(rec);
    }

    pub(crate) fn sample(&self) -> MetricsSample {
        MetricsSample {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self
                .gauges
                .iter()
                .filter_map(|(k, v)| v.last().map(|&(i, val)| (k.clone(), i, val)))
                .collect(),
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            spans: self.spans.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
        for i in 1..NUM_BUCKETS - 1 {
            let lo = Histogram::bucket_lo(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(lo * 2 - 1), i);
        }
    }

    #[test]
    fn histogram_mean_and_sum() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 5, 10] {
            h.observe(v);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 16);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(Histogram::default().mean(), 0.0);
    }

    #[test]
    fn bucket_hi_complements_bucket_lo() {
        assert_eq!(Histogram::bucket_hi(0), 0);
        assert_eq!(Histogram::bucket_hi(NUM_BUCKETS - 1), u64::MAX);
        for i in 1..NUM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_hi(i) + 1, Histogram::bucket_lo(i + 1));
        }
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        // 4 observations all in bucket [4, 7]
        for v in [4u64, 5, 6, 7] {
            h.observe(v);
        }
        // p50 -> 2nd of 4 in the bucket: 4 + 3 * 2/4 = 5.5
        assert!((h.quantile(0.5) - 5.5).abs() < 1e-9);
        // p100 -> bucket upper edge
        assert!((h.quantile(1.0) - 7.0).abs() < 1e-9);
        // p0 clamps to the first observation's position
        assert!(h.quantile(0.0) > 4.0 - 1e-9);
        // zeros live in the zero-width bucket 0
        let mut z = Histogram::default();
        z.observe(0);
        assert_eq!(z.quantile(0.99), 0.0);
    }

    #[test]
    fn merge_adds_bucketwise_and_bounds_are_explicit() {
        let mut a = Histogram::default();
        for v in [0u64, 1, 5, 5] {
            a.observe(v);
        }
        let mut b = Histogram::default();
        for v in [5u64, 100] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.sum(), 116);
        let ranges = a.nonzero_bucket_ranges();
        // buckets: 0 (zeros), [1,1], [4,7] x3, [64,127]
        assert_eq!(ranges, vec![(0, 0, 1), (1, 1, 1), (4, 7, 3), (64, 127, 1)]);
        // ranges agree with the lo-only view
        let los: Vec<(u64, u64)> = ranges.iter().map(|&(lo, _, c)| (lo, c)).collect();
        assert_eq!(los, a.nonzero_buckets());
    }

    #[test]
    fn gauge_set_max_keeps_only_the_peak() {
        let mut s = Store::default();
        let peak = Metric::DataioQueuePeak;
        s.gauge_set_max(peak, 0, 3.0);
        s.gauge_set_max(peak, 1, 9.0); // new peak replaces
        s.gauge_set_max(peak, 2, 5.0); // below peak: ignored
        let gauges = s.snapshot().gauges;
        assert_eq!(
            gauges,
            vec![("dataio.queue_peak".to_string(), vec![(1, 9.0)])]
        );
        // the peak survives into the cheap sample too
        assert_eq!(
            s.sample().gauges,
            vec![("dataio.queue_peak".to_string(), 1, 9.0)]
        );
    }

    #[test]
    fn sample_carries_counters_and_last_gauge_points() {
        let mut s = Store::default();
        s.counter_add(Metric::CommCalls("all_reduce"), 4);
        s.gauge_push(Metric::TrainLoss, 0, 1.0);
        s.gauge_push(Metric::TrainLoss, 1, 2.0);
        s.histogram_observe(Metric::CommNs("all_reduce"), 10);
        s.push_span(SpanRecord {
            rank: 0,
            lane: 0,
            iter: 0,
            phase: crate::Phase::Iteration,
            start_ns: 0,
            end_ns: 1,
        });
        let sample = s.sample();
        assert_eq!(
            sample.counters,
            vec![("comm.all_reduce.calls".to_string(), 4)]
        );
        assert_eq!(sample.gauges, vec![("train.loss".to_string(), 1, 2.0)]);
    }

    #[test]
    fn counters_saturate() {
        let mut s = Store::default();
        s.counter_add(Metric::EmbLookupRows, u64::MAX - 1);
        s.counter_add(Metric::EmbLookupRows, 5);
        let want = vec![("emb.lookup.rows".to_string(), u64::MAX)];
        assert_eq!(s.snapshot().counters, want);
    }
}
