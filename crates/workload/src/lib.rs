//! Workload observability: per-table access profiling, hot-row
//! sketching, shard-load attribution, and the schema-versioned
//! `workload.json` artifact.
//!
//! The paper's co-design story hinges on knowing the workload: embedding
//! access skew drives sharding quality (§5.1), cache sizing (§4.1.3),
//! and the comm schedule (§4.2). This crate is the *what was the
//! workload doing* plane that complements `neo-telemetry`'s *where did
//! the time go*:
//!
//! * [`ShardCollector`] — a per-shard recorder the trainer drives from
//!   the embedding lookup hot path. Counts lookups and bags, histograms
//!   pooling factors, tracks unique-vs-total row traffic with a
//!   preallocated bitset, and feeds a [`sketch::CountMinSketch`] +
//!   [`sketch::TopK`] heavy-hitter set. Everything is preallocated at
//!   construction: recording does **no clock reads, no allocation, no
//!   locking** — the same zero-perturbation bar as the telemetry sink —
//!   and when `SyncConfig::workload` is off the trainer holds no
//!   collectors at all, so the disabled cost is one bounds check.
//! * [`ShardSample`] — the harvest of one collector plus memory
//!   accounting (`param_bytes`, optional fast-tier occupancy) taken from
//!   the embedding store after training.
//! * [`report::WorkloadReport`] — samples from all ranks merged into the
//!   `workload.json` artifact: per-table totals, Zipf fit, hot rows,
//!   per-shard load attribution, and rank-level imbalance.
//!
//! Unlike `telemetry`/`prof`/`monitor`, this crate is **not** on the
//! lint determinism-exempt list: it must stay free of wall-clock reads
//! and randomized hashing so it can sit inside the deterministic
//! training path.
//!
//! # Example
//!
//! ```
//! use neo_workload::{ShardCollector, ShardKind};
//!
//! let mut c = ShardCollector::new(0, 0, 0, ShardKind::Table, 16, 0, 100, true);
//! // batch of 2 bags: {3, 5} and {7}
//! c.record(&[2, 1], &[3, 5, 7]);
//! let sample = c.finish(100 * 16 * 4, None);
//! assert_eq!(sample.lookups, 3);
//! assert_eq!(sample.bags, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod report;
pub mod sketch;

pub use report::{TableMeta, TableWorkload, WorkloadReport};
pub use sketch::{CountMinSketch, TopK, DEFAULT_TOP_K};

use neo_telemetry::Histogram;

/// How the shard a collector observes was produced by the sharding plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// A whole table placed on one rank (table-wise).
    Table,
    /// A contiguous row range of a table (row-wise).
    Row,
    /// A column slice of a table (column-wise; the index stream is
    /// replicated across the slices).
    Col,
    /// A full data-parallel replica of a small table.
    Dp,
}

impl ShardKind {
    /// Stable artifact spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardKind::Table => "table",
            ShardKind::Row => "row",
            ShardKind::Col => "col",
            ShardKind::Dp => "dp",
        }
    }

    /// Parses the artifact spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "table" => Some(ShardKind::Table),
            "row" => Some(ShardKind::Row),
            "col" => Some(ShardKind::Col),
            "dp" => Some(ShardKind::Dp),
            _ => None,
        }
    }
}

/// Fast-tier occupancy of a cache-backed store, mirrored from the
/// embedding store's tier counters at harvest time (this crate sits
/// below `neo-embeddings` in the dependency graph, so it carries its own
/// copy of the fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierSample {
    /// Rows the fast tier can hold.
    pub capacity_rows: u64,
    /// Rows resident in the fast tier after training.
    pub resident_rows: u64,
    /// Bytes of fast-tier memory the cache occupies.
    pub cache_bytes: u64,
    /// Cache hits over the run.
    pub hits: u64,
    /// Cache misses over the run.
    pub misses: u64,
}

/// The row-identity payload of a *counting* collector: pooling factors,
/// the unique-row bitset, the frequency sketch, and the heavy-hitter
/// keys. Replica shards (column slices past the first) omit it so
/// replicated index streams are not double-counted at merge time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimarySample {
    /// Histogram of bag lengths (pooling factors).
    pub pooling: Histogram,
    /// Bitset over the full table's rows; bit r set iff global row r was
    /// looked up by this shard.
    pub bits: Vec<u64>,
    /// Frequency sketch over global row ids.
    pub sketch: CountMinSketch,
    /// Heavy-hitter keys retained by this shard (estimates are
    /// recomputed against the merged sketch at report time).
    pub topk_keys: Vec<u64>,
}

/// One shard's harvested workload statistics plus memory accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSample {
    /// Owning rank.
    pub rank: usize,
    /// Table id in the model config.
    pub table: usize,
    /// Shard ordinal within the table's placement.
    pub shard: usize,
    /// Placement scheme that produced this shard.
    pub kind: ShardKind,
    /// Total row lookups this shard served.
    pub lookups: u64,
    /// Total bags (pooled outputs) this shard produced.
    pub bags: u64,
    /// f32 bytes this shard's lookups moved (`lookups × width × 4`).
    pub bytes: u64,
    /// Parameter bytes resident on this shard's store.
    pub param_bytes: u64,
    /// Fast-tier occupancy when the store is cache-backed.
    pub tier: Option<TierSample>,
    /// Row-identity payload; `Some` iff this shard counts primary
    /// traffic (not a replica of another shard's index stream).
    pub primary: Option<PrimarySample>,
}

/// Per-shard access recorder driven from the trainer's lookup hot path.
///
/// `record` takes the exact `(lengths, indices)` slices the pooled
/// forward consumes. Row-wise shards pass their *local* bucketized
/// indices; the collector globalizes them with `base_row` so sketches
/// and bitsets from different shards of one table merge correctly.
#[derive(Debug, Clone)]
pub struct ShardCollector {
    rank: usize,
    table: usize,
    shard: usize,
    kind: ShardKind,
    /// Embedding columns this shard computes (for byte attribution).
    width: usize,
    /// Global row id of this shard's local row 0.
    base_row: u64,
    /// Whether this shard carries the primary index stream. Column
    /// slices past the first see a byte-identical replica, so only slice
    /// 0 counts rows; the rest keep load counters only.
    counting: bool,
    lookups: u64,
    bags: u64,
    pooling: Histogram,
    bits: Vec<u64>,
    sketch: CountMinSketch,
    topk: TopK,
}

impl ShardCollector {
    /// A collector for one shard of `table` (which has `table_rows` rows
    /// globally). All state is allocated here; `record` allocates
    /// nothing.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument sets one independent field of the shard's identity or sizing"
    )]
    pub fn new(
        rank: usize,
        table: usize,
        shard: usize,
        kind: ShardKind,
        width: usize,
        base_row: u64,
        table_rows: u64,
        counting: bool,
    ) -> Self {
        let words = if counting {
            (table_rows as usize).div_ceil(64)
        } else {
            0
        };
        Self {
            rank,
            table,
            shard,
            kind,
            width,
            base_row,
            counting,
            lookups: 0,
            bags: 0,
            pooling: Histogram::default(),
            bits: vec![0u64; words],
            sketch: if counting {
                CountMinSketch::default()
            } else {
                CountMinSketch::new(1, 2) // replicas never touch it
            },
            topk: TopK::new(DEFAULT_TOP_K),
        }
    }

    /// Records one pooled-forward call: `lengths` bag sizes and the
    /// concatenated `indices` they pool. No clocks, no allocation.
    #[inline]
    pub fn record(&mut self, lengths: &[u32], indices: &[u64]) {
        self.bags += lengths.len() as u64;
        self.lookups += indices.len() as u64;
        for &l in lengths {
            self.pooling.observe(l as u64);
        }
        if !self.counting {
            return;
        }
        for &i in indices {
            let g = self.base_row + i;
            debug_assert!(
                (g as usize) < self.bits.len() * 64,
                "row out of table range"
            );
            self.bits[(g >> 6) as usize] |= 1u64 << (g & 63);
            let est = self.sketch.add(g, 1);
            self.topk.offer(g, est);
        }
    }

    /// Lookups recorded so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Distinct global rows touched (0 for replica shards).
    pub fn unique_rows(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Consumes the collector into a [`ShardSample`], attaching the
    /// store-side memory accounting gathered after training.
    pub fn finish(self, param_bytes: u64, tier: Option<TierSample>) -> ShardSample {
        ShardSample {
            rank: self.rank,
            table: self.table,
            shard: self.shard,
            kind: self.kind,
            lookups: self.lookups,
            bags: self.bags,
            bytes: self.lookups * self.width as u64 * 4,
            param_bytes,
            tier,
            primary: if self.counting {
                Some(PrimarySample {
                    pooling: self.pooling,
                    bits: self.bits,
                    sketch: self.sketch,
                    topk_keys: self.topk.keys(),
                })
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_counts_and_globalizes_rows() {
        let mut c = ShardCollector::new(1, 2, 3, ShardKind::Row, 8, 100, 200, true);
        c.record(&[2, 0, 1], &[0, 5, 5]); // local rows -> global 100, 105
        c.record(&[1], &[99]); // global 199
        assert_eq!(c.lookups(), 4);
        assert_eq!(c.unique_rows(), 3, "row 105 deduplicated");
        let s = c.finish(200 * 8 * 4, None);
        assert_eq!(s.rank, 1);
        assert_eq!(s.table, 2);
        assert_eq!(s.shard, 3);
        assert_eq!(s.kind, ShardKind::Row);
        assert_eq!(s.lookups, 4);
        assert_eq!(s.bags, 4);
        assert_eq!(s.bytes, 4 * 8 * 4);
        let p = s.primary.expect("counting shard has a primary payload");
        assert_eq!(p.pooling.total(), 4, "one observation per bag, incl. empty");
        assert_eq!(p.pooling.sum(), 4, "pooling mass equals lookups");
        assert_eq!(p.sketch.total(), 4);
        assert!(p.sketch.estimate(105) >= 2);
        let mut keys = p.topk_keys.clone();
        keys.sort_unstable();
        assert_eq!(keys, vec![100, 105, 199], "hot rows are global ids");
    }

    #[test]
    fn replica_shards_keep_load_counters_only() {
        let mut c = ShardCollector::new(0, 0, 1, ShardKind::Col, 4, 0, 1000, false);
        c.record(&[3], &[1, 2, 3]);
        assert_eq!(c.lookups(), 3);
        assert_eq!(c.unique_rows(), 0, "replicas do not count rows");
        let s = c.finish(0, None);
        assert!(s.primary.is_none());
        assert_eq!(s.bytes, 3 * 4 * 4);
    }

    #[test]
    fn shard_kind_round_trips() {
        for k in [
            ShardKind::Table,
            ShardKind::Row,
            ShardKind::Col,
            ShardKind::Dp,
        ] {
            assert_eq!(ShardKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ShardKind::parse("bogus"), None);
    }
}
