//! Page-granularity unified-memory (UVM) baseline.
//!
//! CUDA UVM migrates data between device and host at page granularity
//! (§4.1.3: "UVM replaces and evicts the unused parameters in large pages
//! instead of finer granularity like embedding rows"). To quantify the
//! advantage of the row-granular software cache, this module models UVM as
//! a fully-associative LRU cache of fixed-size *pages*, where touching any
//! row migrates the whole page across PCIe.

use std::collections::BTreeMap;

use crate::cache::CacheStats;

/// Fully-associative LRU page cache modelling CUDA unified memory.
///
/// Keys are row ids; rows map onto pages as `row / rows_per_page`. The
/// cache tracks which pages are device-resident and counts the bytes that
/// would cross PCIe for fills and writebacks.
///
/// # Example
///
/// ```
/// use neo_memory::UvmPageCache;
/// // 2 pages resident, 64 rows per page, 128 floats (512 B) per row
/// let mut uvm = UvmPageCache::new(2, 64, 512);
/// uvm.access_row(0, false);   // miss: migrates a whole 32 KiB page
/// uvm.access_row(1, false);   // same page: hit
/// assert_eq!(uvm.stats().hits, 1);
/// assert_eq!(uvm.bytes_in(), 64 * 512);
/// ```
#[derive(Debug, Clone)]
pub struct UvmPageCache {
    capacity_pages: usize,
    rows_per_page: u64,
    row_bytes: u64,
    /// page id -> (last_used, dirty)
    resident: BTreeMap<u64, (u64, bool)>,
    clock: u64,
    stats: CacheStats,
    bytes_in: u64,
    bytes_out: u64,
}

impl UvmPageCache {
    /// Creates a cache holding at most `capacity_pages` pages of
    /// `rows_per_page` rows, each row `row_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(capacity_pages: usize, rows_per_page: u64, row_bytes: u64) -> Self {
        assert!(
            capacity_pages > 0 && rows_per_page > 0 && row_bytes > 0,
            "uvm dimensions must be nonzero"
        );
        Self {
            capacity_pages,
            rows_per_page,
            row_bytes,
            resident: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Builds a UVM model whose *row* capacity matches a software cache,
    /// with the classic 2 MiB UVM page size assumed.
    pub fn with_capacity_rows(capacity_rows: usize, row_bytes: u64) -> Self {
        const PAGE_BYTES: u64 = 2 * 1024 * 1024;
        let rows_per_page = (PAGE_BYTES / row_bytes).max(1);
        let pages = (capacity_rows as u64 / rows_per_page).max(1) as usize;
        Self::new(pages, rows_per_page, row_bytes)
    }

    /// Touches `row`; `write` marks the page dirty. Migrates the page in on
    /// a miss, evicting the LRU page (with writeback if dirty) when full.
    pub fn access_row(&mut self, row: u64, write: bool) {
        self.clock += 1;
        let page = row / self.rows_per_page;
        let page_bytes = self.rows_per_page * self.row_bytes;
        if let Some(entry) = self.resident.get_mut(&page) {
            entry.0 = self.clock;
            entry.1 |= write;
            self.stats.hits += 1;
            return;
        }
        self.stats.misses += 1;
        if self.resident.len() == self.capacity_pages {
            #[expect(
                clippy::expect_used,
                reason = "resident.len() == capacity_pages > 0 here"
            )]
            let (&victim, &(_, dirty)) = self
                .resident
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .expect("nonempty uvm cache");
            self.resident.remove(&victim);
            self.stats.evictions += 1;
            if dirty {
                self.stats.writebacks += 1;
                self.bytes_out += page_bytes;
            }
        }
        self.bytes_in += page_bytes;
        self.resident.insert(page, (self.clock, write));
    }

    /// Accumulated hit/miss statistics (page granularity).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes migrated host → device.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Bytes written back device → host.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Total PCIe traffic in both directions.
    pub fn total_traffic(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Page capacity.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_locality_hits() {
        let mut uvm = UvmPageCache::new(1, 4, 10);
        uvm.access_row(0, false);
        uvm.access_row(3, false); // same page
        uvm.access_row(4, false); // next page, evicts page 0 (clean)
        assert_eq!(uvm.stats().hits, 1);
        assert_eq!(uvm.stats().misses, 2);
        assert_eq!(uvm.stats().evictions, 1);
        assert_eq!(uvm.bytes_in(), 2 * 40);
        assert_eq!(uvm.bytes_out(), 0);
    }

    #[test]
    fn dirty_pages_write_back() {
        let mut uvm = UvmPageCache::new(1, 2, 8);
        uvm.access_row(0, true);
        uvm.access_row(2, false); // evicts dirty page 0
        assert_eq!(uvm.stats().writebacks, 1);
        assert_eq!(uvm.bytes_out(), 16);
    }

    #[test]
    fn lru_eviction_order() {
        let mut uvm = UvmPageCache::new(2, 1, 1);
        uvm.access_row(0, false);
        uvm.access_row(1, false);
        uvm.access_row(0, false); // page 1 is now LRU
        uvm.access_row(2, false);
        assert_eq!(uvm.resident_pages(), 2);
        uvm.access_row(0, false);
        assert_eq!(uvm.stats().hits, 2, "page 0 survived, page 1 evicted");
    }

    #[test]
    fn capacity_rows_constructor() {
        let uvm = UvmPageCache::with_capacity_rows(1 << 20, 512);
        assert_eq!(uvm.capacity_pages(), (1u64 << 20) as usize / 4096);
    }

    #[test]
    fn row_granular_beats_pages_on_sparse_access() {
        // Sparse random-ish accesses: UVM drags in whole pages, the
        // software cache only the rows — the paper's core argument.
        let mut uvm = UvmPageCache::new(8, 512, 512);
        for i in 0..64u64 {
            uvm.access_row(i * 10_000, false);
        }
        let uvm_traffic = uvm.total_traffic();
        let row_traffic = 64 * 512; // row-granular fill only
        assert!(uvm_traffic > 100 * row_traffic);
    }
}
