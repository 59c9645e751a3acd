//! The 32-way set-associative software cache of §4.1.3.
//!
//! The original CUDA implementation caches embedding *rows* in HBM in front
//! of DDR/SSD-resident tables, with the associativity chosen to match the
//! 32-lane GPU warp so one warp probes one set. This port keeps the exact
//! organization — `num_sets` sets × `ways` ways, row-granular fills,
//! write-back with dirty bits — with the policy (LRU or LFU) pluggable per
//! the paper.

use std::fmt;

/// Replacement policy for [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Evict the least recently used way.
    Lru,
    /// Evict the least frequently used way (ties broken by recency).
    Lfu,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Lru => write!(f, "LRU"),
            Policy::Lfu => write!(f, "LFU"),
        }
    }
}

/// Hit/miss/traffic counters for a cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of probes that found their key resident.
    pub hits: u64,
    /// Number of probes that missed.
    pub misses: u64,
    /// Number of lines evicted to make room.
    pub evictions: u64,
    /// Number of evicted lines that were dirty and had to be written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0` when no accesses happened (the untouched
    /// cache must not report NaN from `0/0`).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Bridge these counters into a telemetry sink as absolute counters
    /// `<prefix>.cache_hit` / `cache_miss` / `cache_evict` /
    /// `cache_writeback`.
    ///
    /// Counters in the registry are monotonic, so call this once per stats
    /// snapshot (e.g. at the end of a run), not per access.
    pub fn export_to(&self, sink: &neo_telemetry::TelemetrySink, prefix: &'static str) {
        use neo_telemetry::Metric;
        sink.counter_add(Metric::CacheHit(prefix), self.hits);
        sink.counter_add(Metric::CacheMiss(prefix), self.misses);
        sink.counter_add(Metric::CacheEvict(prefix), self.evictions);
        sink.counter_add(Metric::CacheWriteback(prefix), self.writebacks);
    }
}

#[derive(Debug, Clone)]
struct Line {
    key: u64,
    data: Vec<f32>,
    dirty: bool,
    last_used: u64,
    freq: u64,
}

/// An eviction produced by [`SetAssocCache::insert`], to be written back to
/// the backing tier by the caller when [`Evicted::dirty`] is set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evicted {
    /// Key of the evicted row.
    pub key: u64,
    /// Row payload at eviction time.
    pub data: Vec<f32>,
    /// Whether the row was modified while cached.
    pub dirty: bool,
}

/// A set-associative, write-back software cache mapping `u64` row keys to
/// fixed-width `f32` rows.
///
/// # Example
///
/// ```
/// use neo_memory::{SetAssocCache, Policy};
/// let mut cache = SetAssocCache::new(64, 32, 16, Policy::Lru);
/// assert!(cache.get(7).is_none());
/// cache.insert(7, &vec![1.0; 16]);
/// assert_eq!(cache.get(7).unwrap()[0], 1.0);
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    row_width: usize,
    policy: Policy,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache with `num_sets` sets of `ways` ways, each line
    /// holding a row of `row_width` floats.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(num_sets: usize, ways: usize, row_width: usize, policy: Policy) -> Self {
        assert!(
            num_sets > 0 && ways > 0 && row_width > 0,
            "cache dimensions must be nonzero"
        );
        Self {
            sets: (0..num_sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            row_width,
            policy,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache sized to hold `capacity_rows` rows with the paper's
    /// 32-way associativity.
    pub fn with_capacity_rows(capacity_rows: usize, row_width: usize, policy: Policy) -> Self {
        let ways = 32;
        let num_sets = (capacity_rows / ways).max(1);
        Self::new(num_sets, ways, row_width, policy)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Width in floats of each cached row.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Total row capacity (`num_sets * ways`).
    pub fn capacity_rows(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of rows currently resident.
    pub fn resident_rows(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Replacement policy in use.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_index(&self, key: u64) -> usize {
        // Fibonacci hashing spreads sequential row ids across sets.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets.len()
    }

    /// Probes for `key`; on a hit returns the row and updates recency and
    /// frequency. Counts a hit or a miss.
    pub fn get(&mut self, key: u64) -> Option<&[f32]> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(key);
        let lines = &mut self.sets[set];
        if let Some(line) = lines.iter_mut().find(|l| l.key == key) {
            line.last_used = clock;
            line.freq += 1;
            self.stats.hits += 1;
            Some(&line.data)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Probes for `key` for writing; marks the line dirty on a hit.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut [f32]> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(key);
        let lines = &mut self.sets[set];
        if let Some(line) = lines.iter_mut().find(|l| l.key == key) {
            line.last_used = clock;
            line.freq += 1;
            line.dirty = true;
            self.stats.hits += 1;
            Some(&mut line.data)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Whether `key` is resident, without touching recency or stats.
    pub fn contains(&self, key: u64) -> bool {
        let set = self.set_index(key);
        self.sets[set].iter().any(|l| l.key == key)
    }

    /// Inserts a clean copy of `data` for `key` (a fill after a miss).
    /// Returns the victim if a line had to be evicted.
    ///
    /// If `key` is already resident its payload is overwritten in place and
    /// the line is left clean.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.row_width()`.
    pub fn insert(&mut self, key: u64, data: &[f32]) -> Option<Evicted> {
        self.insert_inner(key, data, false)
    }

    /// Inserts a *dirty* row (a fill that is immediately updated, the
    /// embedding-update path). Returns the victim if one was evicted.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.row_width()`.
    pub fn insert_dirty(&mut self, key: u64, data: &[f32]) -> Option<Evicted> {
        self.insert_inner(key, data, true)
    }

    fn insert_inner(&mut self, key: u64, data: &[f32], dirty: bool) -> Option<Evicted> {
        assert_eq!(data.len(), self.row_width, "row width mismatch on insert");
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let policy = self.policy;
        let set = self.set_index(key);
        let lines = &mut self.sets[set];

        if let Some(line) = lines.iter_mut().find(|l| l.key == key) {
            line.data.copy_from_slice(data);
            line.dirty = dirty;
            line.last_used = clock;
            return None;
        }

        let mut victim = None;
        if lines.len() == ways {
            // the set is full and `ways > 0`; the first least-used line goes
            let idx = match policy {
                Policy::Lru => lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_used)
                    .map_or(0, |(i, _)| i),
                Policy::Lfu => lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| (l.freq, l.last_used))
                    .map_or(0, |(i, _)| i),
            };
            let line = lines.swap_remove(idx);
            self.stats.evictions += 1;
            if line.dirty {
                self.stats.writebacks += 1;
            }
            victim = Some(Evicted {
                key: line.key,
                data: line.data,
                dirty: line.dirty,
            });
        }
        lines.push(Line {
            key,
            data: data.to_vec(),
            dirty,
            last_used: clock,
            freq: 1,
        });
        victim
    }

    /// Removes `key` from the cache, returning its payload and dirty flag.
    pub fn invalidate(&mut self, key: u64) -> Option<Evicted> {
        let set = self.set_index(key);
        let lines = &mut self.sets[set];
        let idx = lines.iter().position(|l| l.key == key)?;
        let line = lines.swap_remove(idx);
        Some(Evicted {
            key: line.key,
            data: line.data,
            dirty: line.dirty,
        })
    }

    /// Drains every dirty line (clearing its dirty bit) so the caller can
    /// flush them to the backing store — used at checkpoint boundaries.
    pub fn drain_dirty(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for lines in &mut self.sets {
            for line in lines.iter_mut().filter(|l| l.dirty) {
                line.dirty = false;
                out.push(Evicted {
                    key: line.key,
                    data: line.data.clone(),
                    dirty: true,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32, w: usize) -> Vec<f32> {
        vec![v; w]
    }

    #[test]
    fn read_your_writes() {
        let mut c = SetAssocCache::new(4, 2, 3, Policy::Lru);
        c.insert(1, &row(1.0, 3));
        c.get_mut(1).unwrap()[0] = 9.0;
        assert_eq!(c.get(1).unwrap(), &[9.0, 1.0, 1.0]);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        // single set, so every key collides
        let mut c = SetAssocCache::new(1, 2, 1, Policy::Lru);
        c.insert(1, &row(1.0, 1));
        c.insert(2, &row(2.0, 1));
        c.get(1); // 2 is now LRU
        let victim = c.insert(3, &row(3.0, 1)).expect("evicts");
        assert_eq!(victim.key, 2);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = SetAssocCache::new(1, 2, 1, Policy::Lfu);
        c.insert(1, &row(1.0, 1));
        c.insert(2, &row(2.0, 1));
        c.get(1);
        c.get(1); // freq(1)=3, freq(2)=1
        c.get(2); // freq(2)=2, more recent — LFU still evicts 2
        let victim = c.insert(3, &row(3.0, 1)).expect("evicts");
        assert_eq!(victim.key, 2);
    }

    #[test]
    fn dirty_writeback_accounting() {
        let mut c = SetAssocCache::new(1, 1, 1, Policy::Lru);
        c.insert(1, &row(1.0, 1));
        c.get_mut(1).unwrap()[0] = 5.0;
        let victim = c.insert(2, &row(2.0, 1)).unwrap();
        assert!(victim.dirty);
        assert_eq!(victim.data, vec![5.0]);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clean_eviction_skips_writeback() {
        let mut c = SetAssocCache::new(1, 1, 1, Policy::Lru);
        c.insert(1, &row(1.0, 1));
        let victim = c.insert(2, &row(2.0, 1)).unwrap();
        assert!(!victim.dirty);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = SetAssocCache::new(8, 4, 2, Policy::Lru);
        for k in 0..10_000u64 {
            c.insert(k, &row(k as f32, 2));
            assert!(c.resident_rows() <= c.capacity_rows());
        }
        assert_eq!(c.capacity_rows(), 32);
    }

    #[test]
    fn reinsert_overwrites_in_place() {
        let mut c = SetAssocCache::new(2, 2, 1, Policy::Lru);
        c.insert(5, &row(1.0, 1));
        assert!(c.insert(5, &row(2.0, 1)).is_none());
        assert_eq!(c.get(5).unwrap(), &[2.0]);
        assert_eq!(c.resident_rows(), 1);
    }

    #[test]
    fn insert_dirty_marks_dirty() {
        let mut c = SetAssocCache::new(1, 1, 1, Policy::Lru);
        c.insert_dirty(1, &row(3.0, 1));
        let d = c.drain_dirty();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key, 1);
        // after draining, line is clean
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssocCache::new(2, 2, 1, Policy::Lru);
        c.insert(9, &row(9.0, 1));
        let e = c.invalidate(9).unwrap();
        assert_eq!(e.key, 9);
        assert!(!c.contains(9));
        assert!(c.invalidate(9).is_none());
    }

    #[test]
    fn hit_rate_math() {
        let mut c = SetAssocCache::new(4, 2, 1, Policy::Lru);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(1, &row(1.0, 1));
        c.get(1);
        c.get(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_of_empty_stats_is_zero_not_nan() {
        let empty = CacheStats::default();
        let rate = empty.hit_rate();
        assert!(!rate.is_nan(), "0/0 must not leak NaN out of hit_rate");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn stats_bridge_into_telemetry_registry() {
        let stats = CacheStats {
            hits: 7,
            misses: 3,
            evictions: 2,
            writebacks: 1,
        };
        let sink = neo_telemetry::TelemetrySink::armed();
        stats.export_to(&sink, "emb.cache");
        let counters = sink.snapshot().map(|s| s.counters).unwrap_or_default();
        assert_eq!(
            counters,
            vec![
                ("emb.cache.cache_evict".to_string(), 2),
                ("emb.cache.cache_hit".to_string(), 7),
                ("emb.cache.cache_miss".to_string(), 3),
                ("emb.cache.cache_writeback".to_string(), 1),
            ]
        );
        // Disabled sinks swallow the export without recording.
        stats.export_to(&neo_telemetry::TelemetrySink::disabled(), "x");
    }

    #[test]
    fn with_capacity_rows_uses_32_ways() {
        let c = SetAssocCache::with_capacity_rows(1024, 4, Policy::Lfu);
        assert_eq!(c.ways(), 32);
        assert_eq!(c.num_sets(), 32);
        assert_eq!(c.capacity_rows(), 1024);
        assert_eq!(c.policy(), Policy::Lfu);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn insert_checks_row_width() {
        let mut c = SetAssocCache::new(1, 1, 2, Policy::Lru);
        c.insert(0, &[1.0]);
    }
}
