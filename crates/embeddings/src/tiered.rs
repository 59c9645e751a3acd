//! Cache-backed tiered embedding storage (§4.1.3).
//!
//! A [`TieredStore`] fronts a slow backing table (conceptually DDR- or
//! SSD-resident) with the 32-way set-associative software cache
//! (conceptually HBM-resident). Reads fill on miss; writes are
//! write-allocate / write-back, so hot rows absorb updates at cache speed
//! and only eviction pushes them down the hierarchy — exactly the behaviour
//! that lets model F1 (12T parameters) train out of 4 TB HBM + 24 TB DRAM.

use neo_memory::{CacheStats, Policy, SetAssocCache};

use crate::store::{RowStore, TierInfo};

/// A [`RowStore`] that caches a slower backing store.
///
/// # Example
///
/// ```
/// use neo_embeddings::store::{DenseStore, RowStore};
/// use neo_embeddings::TieredStore;
/// use neo_memory::Policy;
///
/// let backing = Box::new(DenseStore::zeros(10_000, 16));
/// let mut t = TieredStore::new(backing, 256, Policy::Lru);
/// t.write_row(42, &[1.0; 16]);
/// let mut buf = [0.0; 16];
/// t.read_row(42, &mut buf);        // cache hit
/// assert_eq!(buf[0], 1.0);
/// assert!(t.cache_stats().hits >= 1);
/// ```
pub struct TieredStore {
    cache: SetAssocCache,
    backing: Box<dyn RowStore>,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("num_rows", &self.backing.num_rows())
            .field("dim", &self.backing.dim())
            .field("cache_rows", &self.cache.capacity_rows())
            .field("policy", &self.cache.policy())
            .finish()
    }
}

impl TieredStore {
    /// Wraps `backing` with a cache holding `cache_capacity_rows` rows
    /// (rounded to whole 32-way sets) under the given replacement policy.
    pub fn new(backing: Box<dyn RowStore>, cache_capacity_rows: usize, policy: Policy) -> Self {
        let cache = SetAssocCache::with_capacity_rows(cache_capacity_rows, backing.dim(), policy);
        Self { cache, backing }
    }

    /// Cache hit/miss/writeback counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Export the current cache counters into `sink` as
    /// `<prefix>.cache_hit` / `cache_miss` / `cache_evict` /
    /// `cache_writeback`. Call once per stats snapshot (counters are
    /// monotonic in the registry).
    pub fn export_telemetry(&self, sink: &neo_telemetry::TelemetrySink, prefix: &'static str) {
        self.cache_stats().export_to(sink, prefix);
    }

    /// Resets the cache counters.
    pub fn reset_cache_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Bytes of fast-tier memory the cache occupies.
    pub fn cache_bytes(&self) -> u64 {
        (self.cache.capacity_rows() * self.cache.row_width() * 4) as u64
    }

    /// Row capacity of the cache.
    pub fn cache_capacity_rows(&self) -> usize {
        self.cache.capacity_rows()
    }

    fn write_back(&mut self, victim: neo_memory::cache::Evicted) {
        if victim.dirty {
            self.backing.write_row(victim.key, &victim.data);
        }
    }
}

impl RowStore for TieredStore {
    fn num_rows(&self) -> u64 {
        self.backing.num_rows()
    }

    fn dim(&self) -> usize {
        self.backing.dim()
    }

    fn read_row(&mut self, row: u64, out: &mut [f32]) {
        if let Some(data) = self.cache.get(row) {
            out.copy_from_slice(data);
            return;
        }
        self.backing.read_row(row, out);
        if let Some(victim) = self.cache.insert(row, out) {
            self.write_back(victim);
        }
    }

    fn write_row(&mut self, row: u64, data: &[f32]) {
        if let Some(slot) = self.cache.get_mut(row) {
            slot.copy_from_slice(data);
            return;
        }
        if let Some(victim) = self.cache.insert_dirty(row, data) {
            self.write_back(victim);
        }
    }

    fn param_bytes(&self) -> u64 {
        self.backing.param_bytes()
    }

    fn tier_info(&self) -> Option<TierInfo> {
        let stats = self.cache.stats();
        Some(TierInfo {
            capacity_rows: self.cache.capacity_rows() as u64,
            resident_rows: self.cache.resident_rows() as u64,
            cache_bytes: self.cache_bytes(),
            hits: stats.hits,
            misses: stats.misses,
        })
    }

    fn flush(&mut self) {
        for line in self.cache.drain_dirty() {
            self.backing.write_row(line.key, &line.data);
        }
        self.backing.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DenseStore;

    fn tiered(rows: u64, dim: usize, cache_rows: usize) -> TieredStore {
        TieredStore::new(
            Box::new(DenseStore::zeros(rows, dim)),
            cache_rows,
            Policy::Lru,
        )
    }

    #[test]
    fn read_fills_cache() {
        let mut t = tiered(100, 2, 64);
        let mut buf = [0.0; 2];
        t.read_row(5, &mut buf);
        assert_eq!(t.cache_stats().misses, 1);
        t.read_row(5, &mut buf);
        assert_eq!(t.cache_stats().hits, 1);
    }

    #[test]
    fn telemetry_export_mirrors_cache_stats() {
        let mut t = tiered(100, 2, 64);
        let mut buf = [0.0; 2];
        t.read_row(5, &mut buf); // miss
        t.read_row(5, &mut buf); // hit
        let sink = neo_telemetry::TelemetrySink::armed();
        t.export_telemetry(&sink, "emb.t0");
        let counters = sink.snapshot().map(|s| s.counters).unwrap_or_default();
        let get = |name: &str| counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("emb.t0.cache_hit"), Some(1));
        assert_eq!(get("emb.t0.cache_miss"), Some(1));
    }

    #[test]
    fn write_then_read_through_cache() {
        let mut t = tiered(100, 2, 64);
        t.write_row(7, &[3.0, 4.0]);
        let mut buf = [0.0; 2];
        t.read_row(7, &mut buf);
        assert_eq!(buf, [3.0, 4.0]);
    }

    #[test]
    fn dirty_eviction_reaches_backing() {
        // cache of one set x 32 ways = 32 rows; write 200 distinct rows so
        // early ones get evicted, then verify their data survived in the
        // backing store.
        let mut t = tiered(1000, 1, 32);
        for r in 0..200u64 {
            t.write_row(r, &[r as f32]);
        }
        let mut buf = [0.0];
        for r in 0..200u64 {
            t.read_row(r, &mut buf);
            assert_eq!(buf[0], r as f32, "row {r}");
        }
        assert!(t.cache_stats().writebacks > 0);
    }

    #[test]
    fn flush_persists_dirty_rows() {
        let backing = Box::new(DenseStore::zeros(10, 2));
        let mut t = TieredStore::new(backing, 32, Policy::Lru);
        t.write_row(3, &[9.0, 9.0]);
        t.flush();
        // after a flush, even a fresh tiered view over the same data would
        // see it; we verify via to_dense (which reads through the cache)
        let d = t.to_dense();
        assert_eq!(d.row(3), &[9.0, 9.0]);
    }

    #[test]
    fn matches_plain_dense_semantics() {
        // a tiered store must be observationally identical to a dense one
        let mut plain = DenseStore::zeros(64, 3);
        let mut cached = tiered(64, 3, 32); // smaller than the table
        for step in 0..500u64 {
            let row = (step * 7) % 64;
            let val = [step as f32, -(step as f32), 0.5];
            plain.write_row(row, &val);
            cached.write_row(row, &val);
        }
        assert_eq!(plain.to_dense(), cached.to_dense());
    }

    #[test]
    fn hit_rate_improves_with_skewed_access() {
        let mut t = tiered(10_000, 4, 128);
        let mut buf = [0.0; 4];
        // Zipf-ish: 90% of accesses to 32 hot rows
        for i in 0..5000u64 {
            let row = if i % 10 < 9 {
                i % 32
            } else {
                (i * 131) % 10_000
            };
            t.read_row(row, &mut buf);
        }
        assert!(
            t.cache_stats().hit_rate() > 0.8,
            "{}",
            t.cache_stats().hit_rate()
        );
    }

    #[test]
    fn tier_info_reports_cache_occupancy() {
        let flat = DenseStore::zeros(100, 2);
        assert_eq!(flat.tier_info(), None, "flat stores have no fast tier");

        let mut t = tiered(100, 2, 64);
        let mut buf = [0.0; 2];
        t.read_row(5, &mut buf); // miss
        t.read_row(5, &mut buf); // hit
        let info = t.tier_info().expect("tiered stores report a fast tier");
        assert_eq!(info.capacity_rows, t.cache_capacity_rows() as u64);
        assert_eq!(info.resident_rows, 1);
        assert_eq!(info.cache_bytes, t.cache_bytes());
        assert_eq!(info.hits, 1);
        assert_eq!(info.misses, 1);
        assert_eq!(info.hit_rate(), 0.5);
        assert_eq!(crate::store::TierInfo::default().hit_rate(), 0.0);
    }

    #[test]
    fn reports_sizes() {
        let t = tiered(100, 8, 64);
        assert_eq!(t.num_rows(), 100);
        assert_eq!(t.dim(), 8);
        assert_eq!(t.param_bytes(), 100 * 8 * 4);
        assert_eq!(t.cache_bytes(), (t.cache_capacity_rows() * 8 * 4) as u64);
        assert!(!format!("{t:?}").is_empty());
    }
}
