//! Workload observability: per-table access profiling with one exact
//! hit count per row, shard-load attribution, and the schema-versioned
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
//!   pooling factors, and keeps one `u32` hit count per row of its own
//!   shard. Everything is preallocated at construction: recording does
//!   **no clock reads, no allocation, no locking** — the same
//!   zero-perturbation bar as the telemetry sink — and when
//!   `SyncConfig::workload` is off the trainer holds no collectors at
//!   all, so the disabled cost is one branch.
//! * [`ShardSample`] — the harvest of one collector plus the parameter
//!   bytes of the embedding store it observed.
//! * [`report::WorkloadReport`] — samples from all ranks merged into the
//!   `workload.json` artifact: per-table totals, exact hot rows, Zipf
//!   fit, per-shard load attribution, and rank-level imbalance.
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
//! let mut c = ShardCollector::new(0, 0, 0, ShardKind::Table, 16, 0, 100);
//! // batch of 2 bags: {3, 5} and {7, 3}
//! c.record(&[2, 2], &[3, 5, 7, 3]);
//! let sample = c.finish(100 * 16 * 4);
//! assert_eq!(sample.lookups, 4);
//! assert_eq!(sample.bags, 2);
//! assert_eq!(sample.primary.map(|p| p.counts[3]), Some(2));
//! ```

#![deny(missing_docs)]

pub mod report;

pub use report::{TableMeta, TableWorkload, WorkloadReport, TOP_ROWS};

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

/// The row-identity payload of a *counting* collector: pooling factors
/// and the per-row hit counts. Replica shards (column slices past the
/// first) omit it so replicated index streams are not double-counted at
/// merge time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimarySample {
    /// Histogram of bag lengths (pooling factors).
    pub pooling: Histogram,
    /// Global row id of the shard's local row 0.
    pub base_row: u64,
    /// Hits per local row of the shard, saturating at `u32::MAX`.
    pub counts: Vec<u32>,
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
    /// Row-identity payload; `Some` iff this shard counts primary
    /// traffic (not a replica of another shard's index stream).
    pub primary: Option<PrimarySample>,
}

/// Per-shard access recorder driven from the trainer's lookup hot path.
///
/// `record` takes the exact `(lengths, indices)` slices the pooled
/// forward consumes: a row block's *local* bucketized indices, which
/// index its own count vector directly. The report adds each shard's
/// counts at its `base_row`.
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
    lookups: u64,
    bags: u64,
    pooling: Histogram,
    /// One hit count per local row; `None` on a replica shard.
    counts: Option<Vec<u32>>,
}

impl ShardCollector {
    /// A collector for one shard of `table` holding `rows` rows from
    /// global row `base_row` on. All state is allocated here; `record`
    /// allocates nothing.
    ///
    /// Column slices all see the same replicated index stream, so only
    /// slice 0 counts rows; the others keep load counters only.
    pub fn new(
        rank: usize,
        table: usize,
        shard: usize,
        kind: ShardKind,
        width: usize,
        base_row: u64,
        rows: u64,
    ) -> Self {
        let counting = kind != ShardKind::Col || shard == 0;
        Self {
            rank,
            table,
            shard,
            kind,
            width,
            base_row,
            lookups: 0,
            bags: 0,
            pooling: Histogram::default(),
            counts: counting.then(|| vec![0; rows as usize]),
        }
    }

    /// Records one pooled-forward call: `lengths` bag sizes and the
    /// concatenated local row `indices` they pool. No clocks, no
    /// allocation.
    #[inline]
    pub fn record(&mut self, lengths: &[u32], indices: &[u64]) {
        self.bags += lengths.len() as u64;
        self.lookups += indices.len() as u64;
        for &l in lengths {
            self.pooling.observe(u64::from(l));
        }
        if let Some(counts) = &mut self.counts {
            for &i in indices {
                let c = &mut counts[i as usize];
                *c = c.saturating_add(1);
            }
        }
    }

    /// Consumes the collector into a [`ShardSample`], attaching the
    /// store's parameter bytes gathered after training.
    pub fn finish(self, param_bytes: u64) -> ShardSample {
        ShardSample {
            rank: self.rank,
            table: self.table,
            shard: self.shard,
            kind: self.kind,
            lookups: self.lookups,
            bags: self.bags,
            bytes: self.lookups * self.width as u64 * 4,
            param_bytes,
            primary: self.counts.map(|counts| PrimarySample {
                pooling: self.pooling,
                base_row: self.base_row,
                counts,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_counts_local_rows() {
        let mut c = ShardCollector::new(1, 2, 3, ShardKind::Row, 8, 100, 100);
        c.record(&[2, 0, 1], &[0, 5, 5]);
        c.record(&[1], &[99]);
        let s = c.finish(100 * 8 * 4);
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
        assert_eq!(p.base_row, 100);
        assert_eq!(p.counts.len(), 100, "sized to the shard, not the table");
        assert_eq!((p.counts[0], p.counts[5], p.counts[99]), (1, 2, 1));
        assert_eq!(p.counts.iter().map(|&c| u64::from(c)).sum::<u64>(), 4);
    }

    #[test]
    fn column_slices_past_the_first_keep_load_counters_only() {
        let mut c = ShardCollector::new(0, 0, 1, ShardKind::Col, 4, 0, 1000);
        c.record(&[3], &[1, 2, 3]);
        let s = c.finish(0);
        assert_eq!(s.lookups, 3);
        assert!(s.primary.is_none(), "replicas do not count rows");
        assert_eq!(s.bytes, 3 * 4 * 4);
        let first = ShardCollector::new(0, 0, 0, ShardKind::Col, 4, 0, 1000);
        assert!(first.finish(0).primary.is_some(), "slice 0 counts");
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
