//! The `workload.json` artifact: merged per-table access statistics,
//! shard-load attribution, Zipf fit, and rank imbalance.
//!
//! Schema `neo-workload/2`, built as a [`Json`] tree and printed by its
//! one writer:
//!
//! ```json
//! {
//!   "schema": "neo-workload/2",
//!   "world": 4, "iters": 120, "global_batch": 256, "comm_bytes": 1234,
//!   "tables": [{
//!     "table": 0, "rows": 20000, "dim": 16,
//!     "lookups": 9600, "bags": 3840, "unique_rows": 512,
//!     "pooling": {"total": 3840, "sum": 9600, "mean": 2.5,
//!                 "p50": 2.0, "p95": 4.0, "buckets": [[lo, hi, count]]},
//!     "top_rows": [[row, hits]],
//!     "zipf_exponent": 1.03,
//!     "param_bytes": 1280000
//!   }],
//!   "shards": [{"rank": 0, "table": 0, "shard": 0, "kind": "table",
//!               "lookups": 9600, "bags": 3840, "bytes": 614400,
//!               "param_bytes": 1280000}],
//!   "imbalance": {"lookup_max_over_mean": 1.0, "bytes_max_over_mean": 1.0,
//!                 "per_rank_lookups": [..], "per_rank_bytes": [..]}
//! }
//! ```
//!
//! `top_rows` are exact: the [`TOP_ROWS`] rows with the most hits, hits
//! descending, row ascending on ties. `imbalance` is derived from
//! `shards` and recomputed on parse; the embedded copy exists so humans
//! and dashboards can read it without re-deriving.

use neo_telemetry::json::{self, Json};
use neo_telemetry::Histogram;

use crate::{ShardKind, ShardSample};

/// The root `schema` tag this build writes and reads.
const SCHEMA: &str = "neo-workload/2";

/// How many of a table's hottest rows the artifact lists.
pub const TOP_ROWS: usize = 32;

/// Model-side metadata for one table, supplied by the trainer at merge
/// time (samples carry only what the hot path observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Number of rows (hash size).
    pub rows: u64,
    /// Embedding dimension.
    pub dim: usize,
}

/// Pooling-factor summary serialized into the artifact. Carries explicit
/// bucket bounds so consumers never hard-code the histogram's log2
/// scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolingSummary {
    /// Number of bags observed.
    pub total: u64,
    /// Sum of bag lengths (== lookups).
    pub sum: u64,
    /// Mean bag length.
    pub mean: f64,
    /// Median bag length (interpolated).
    pub p50: f64,
    /// 95th-percentile bag length (interpolated).
    pub p95: f64,
    /// Non-empty `(bucket_lo, bucket_hi, count)` triples.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl PoolingSummary {
    fn from_histogram(h: &Histogram) -> Self {
        Self {
            total: h.total(),
            sum: u64::try_from(h.sum()).unwrap_or(u64::MAX),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
            buckets: h.nonzero_bucket_ranges(),
        }
    }
}

/// Merged workload statistics for one table across all its shards and
/// ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWorkload {
    /// Table id in the model config.
    pub table: usize,
    /// Number of rows (hash size).
    pub rows: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Total primary row lookups (replica streams counted once).
    pub lookups: u64,
    /// Total primary bags.
    pub bags: u64,
    /// Distinct rows touched (non-zero merged counts).
    pub unique_rows: u64,
    /// Pooling-factor distribution.
    pub pooling: PoolingSummary,
    /// The [`TOP_ROWS`] hottest rows: `(global row id, hits)`, hits
    /// descending, row ascending on ties.
    pub top_rows: Vec<(u64, u64)>,
    /// Zipf exponent fitted to the hot rows' hits (`None` when the
    /// distribution is too flat or too small to fit).
    pub zipf_exponent: Option<f64>,
    /// Parameter bytes resident across all shards/replicas of this
    /// table (DP replicas each count — this is fleet-resident memory).
    pub param_bytes: u64,
}

/// Load attribution for one placed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// Owning rank.
    pub rank: usize,
    /// Table id.
    pub table: usize,
    /// Shard ordinal within the table.
    pub shard: usize,
    /// Placement scheme.
    pub kind: ShardKind,
    /// Row lookups this shard served.
    pub lookups: u64,
    /// Bags this shard produced.
    pub bags: u64,
    /// f32 bytes moved by this shard's lookups.
    pub bytes: u64,
    /// Parameter bytes resident on this shard.
    pub param_bytes: u64,
}

/// Rank-level load imbalance, derived from the shard list.
#[derive(Debug, Clone, PartialEq)]
pub struct Imbalance {
    /// max/mean of per-rank lookup counts (1.0 when perfectly even or
    /// when there is no load).
    pub lookup_max_over_mean: f64,
    /// max/mean of per-rank lookup bytes.
    pub bytes_max_over_mean: f64,
    /// Lookups served per rank.
    pub per_rank_lookups: Vec<u64>,
    /// Lookup bytes moved per rank.
    pub per_rank_bytes: Vec<u64>,
}

/// The `workload.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Number of ranks.
    pub world: usize,
    /// Training iterations the statistics cover.
    pub iters: u64,
    /// Global batch size.
    pub global_batch: usize,
    /// Total collective payload bytes sent across all ranks
    /// (`CommStats::bytes_sent` summed), for conservation checks.
    pub comm_bytes: u64,
    /// Per-table merged statistics, table id ascending.
    pub tables: Vec<TableWorkload>,
    /// Per-shard load attribution.
    pub shards: Vec<ShardLoad>,
}

/// Fits a Zipf exponent to `(row, hits)` pairs sorted by descending
/// hits: least-squares slope of `log(hits)` against `log(rank)`.
/// Returns `None` with fewer than 3 points, zero hits, or a
/// non-decaying (≤ 0) slope.
pub fn zipf_fit(top: &[(u64, u64)]) -> Option<f64> {
    if top.len() < 3 || top.iter().any(|&(_, e)| e == 0) {
        return None;
    }
    let n = top.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for (i, &(_, e)) in top.iter().enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = (e as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom <= 0.0 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let s = -slope;
    if s > 0.0 && s.is_finite() {
        Some(s)
    } else {
        None
    }
}

/// The `k` rows with the most hits in one pass over `counts` (indexed
/// by global row): hits descending, row ascending on ties.
fn hottest(counts: &[u32], k: usize) -> Vec<(u64, u64)> {
    let mut top: Vec<(u64, u64)> = Vec::with_capacity(k + 1);
    // a row enters only above `floor`: 0 until `top` is full, then its
    // last entry's hits. Rows arrive ascending, so a tie never displaces
    // an earlier row. One predictable branch per row: testing zero and
    // fullness apart cost 10x as much on Zipf counts.
    let mut floor = 0;
    for (row, &hits) in (0u64..).zip(counts) {
        let hits = u64::from(hits);
        if hits <= floor {
            continue;
        }
        let at = top.partition_point(|&(_, h)| h >= hits);
        top.insert(at, (row, hits));
        top.truncate(k);
        if top.len() == k {
            floor = top.last().map_or(0, |&(_, h)| h);
        }
    }
    top
}

fn max_over_mean(per_rank: &[u64]) -> f64 {
    let total: u64 = per_rank.iter().sum();
    if total == 0 || per_rank.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / per_rank.len() as f64;
    let max = *per_rank.iter().max().unwrap_or(&0);
    max as f64 / mean
}

impl WorkloadReport {
    /// Merges harvested shard samples from all ranks into the artifact.
    ///
    /// `tables_meta[t]` supplies rows/dim for table `t`; `samples` may
    /// arrive in any order. Each counting shard's hits are added at its
    /// `base_row`, so row blocks tile the table and data-parallel
    /// replicas sum.
    pub fn from_samples(
        world: usize,
        iters: u64,
        global_batch: usize,
        comm_bytes: u64,
        tables_meta: &[TableMeta],
        samples: Vec<ShardSample>,
    ) -> Self {
        let mut tables = Vec::with_capacity(tables_meta.len());
        for (t, meta) in tables_meta.iter().enumerate() {
            let mut lookups = 0u64;
            let mut bags = 0u64;
            let mut pooling = Histogram::default();
            let mut counts = vec![0u32; meta.rows as usize];
            let mut param_bytes = 0u64;
            for s in samples.iter().filter(|s| s.table == t) {
                param_bytes += s.param_bytes;
                let Some(p) = &s.primary else {
                    continue;
                };
                lookups += s.lookups;
                bags += s.bags;
                pooling.merge(&p.pooling);
                let at = counts.iter_mut().skip(p.base_row as usize);
                for (c, &hits) in at.zip(&p.counts) {
                    *c = c.saturating_add(hits);
                }
            }
            let top_rows = hottest(&counts, TOP_ROWS);
            tables.push(TableWorkload {
                table: t,
                rows: meta.rows,
                dim: meta.dim,
                lookups,
                bags,
                unique_rows: counts.iter().filter(|&&c| c > 0).count() as u64,
                pooling: PoolingSummary::from_histogram(&pooling),
                zipf_exponent: zipf_fit(&top_rows),
                top_rows,
                param_bytes,
            });
        }
        let mut shards: Vec<ShardLoad> = samples
            .iter()
            .map(|s| ShardLoad {
                rank: s.rank,
                table: s.table,
                shard: s.shard,
                kind: s.kind,
                lookups: s.lookups,
                bags: s.bags,
                bytes: s.bytes,
                param_bytes: s.param_bytes,
            })
            .collect();
        shards.sort_by_key(|s| (s.rank, s.table, s.shard));
        Self {
            world,
            iters,
            global_batch,
            comm_bytes,
            tables,
            shards,
        }
    }

    /// Rank-level imbalance derived from the shard list.
    pub fn imbalance(&self) -> Imbalance {
        let mut per_rank_lookups = vec![0u64; self.world];
        let mut per_rank_bytes = vec![0u64; self.world];
        for s in &self.shards {
            if s.rank < self.world {
                per_rank_lookups[s.rank] += s.lookups;
                per_rank_bytes[s.rank] += s.bytes;
            }
        }
        Imbalance {
            lookup_max_over_mean: max_over_mean(&per_rank_lookups),
            bytes_max_over_mean: max_over_mean(&per_rank_bytes),
            per_rank_lookups,
            per_rank_bytes,
        }
    }

    /// Serializes the artifact (always ends with a newline).
    pub fn to_json(&self) -> String {
        let tables = self.tables.iter().map(|t| {
            let p = &t.pooling;
            let buckets = p.buckets.iter().map(|&(lo, hi, c)| vec![lo, hi, c].into());
            let pooling = Json::object([
                ("total", p.total.into()),
                ("sum", p.sum.into()),
                ("mean", p.mean.into()),
                ("p50", p.p50.into()),
                ("p95", p.p95.into()),
                ("buckets", Json::Array(buckets.collect())),
            ]);
            let top_rows = t.top_rows.iter().map(|&(row, hits)| vec![row, hits].into());
            Json::object([
                ("table", t.table.into()),
                ("rows", t.rows.into()),
                ("dim", t.dim.into()),
                ("lookups", t.lookups.into()),
                ("bags", t.bags.into()),
                ("unique_rows", t.unique_rows.into()),
                ("pooling", pooling),
                ("top_rows", Json::Array(top_rows.collect())),
                ("zipf_exponent", t.zipf_exponent.into()),
                ("param_bytes", t.param_bytes.into()),
            ])
        });
        let shards = self.shards.iter().map(|s| {
            Json::object([
                ("rank", s.rank.into()),
                ("table", s.table.into()),
                ("shard", s.shard.into()),
                ("kind", s.kind.as_str().into()),
                ("lookups", s.lookups.into()),
                ("bags", s.bags.into()),
                ("bytes", s.bytes.into()),
                ("param_bytes", s.param_bytes.into()),
            ])
        });
        let imb = self.imbalance();
        let imbalance = Json::object([
            ("lookup_max_over_mean", imb.lookup_max_over_mean.into()),
            ("bytes_max_over_mean", imb.bytes_max_over_mean.into()),
            ("per_rank_lookups", imb.per_rank_lookups.into()),
            ("per_rank_bytes", imb.per_rank_bytes.into()),
        ]);
        let doc = Json::object([
            ("schema", SCHEMA.into()),
            ("world", self.world.into()),
            ("iters", self.iters.into()),
            ("global_batch", self.global_batch.into()),
            ("comm_bytes", self.comm_bytes.into()),
            ("tables", Json::Array(tables.collect())),
            ("shards", Json::Array(shards.collect())),
            ("imbalance", imbalance),
        ]);
        format!("{doc:#}\n")
    }

    /// Parses an artifact written by [`WorkloadReport::to_json`].
    /// `imbalance` is recomputed from `shards`, not trusted from the
    /// file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| format!("workload.json: {e}"))?;
        let schema = root.get("schema").and_then(Json::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("workload.json schema {schema:?} is not {SCHEMA}"));
        }
        let mut tables = Vec::new();
        for (i, t) in get_array(&root, "tables")?.iter().enumerate() {
            tables.push(parse_table(t).map_err(|e| format!("tables[{i}]: {e}"))?);
        }
        let mut shards = Vec::new();
        for (i, s) in get_array(&root, "shards")?.iter().enumerate() {
            shards.push(parse_shard(s).map_err(|e| format!("shards[{i}]: {e}"))?);
        }
        Ok(Self {
            world: get_u64(&root, "world")? as usize,
            iters: get_u64(&root, "iters")?,
            global_batch: get_u64(&root, "global_batch")? as usize,
            comm_bytes: get_u64(&root, "comm_bytes")?,
            tables,
            shards,
        })
    }
}

fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    let n = get_f64(v, key)?;
    if n < 0.0 {
        return Err(format!("`{key}` is negative"));
    }
    Ok(n as u64)
}

fn get_array<'a>(v: &'a Json, key: &str) -> Result<&'a Vec<Json>, String> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Err(format!("missing `{key}`")),
        Some(Json::Null) => Ok(None),
        Some(Json::Number(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("`{key}` is neither number nor null")),
    }
}

/// `key`'s array of `N`-element integer arrays.
fn get_u64_rows<const N: usize>(v: &Json, key: &str) -> Result<Vec<[u64; N]>, String> {
    let row = |item: &Json| {
        let nums = item.as_array().map(|a| a.iter().filter_map(Json::as_f64));
        let nums: Vec<u64> = nums.into_iter().flatten().map(|n| n as u64).collect();
        <[u64; N]>::try_from(nums)
            .map_err(|_| format!("`{key}` entries must be {N}-element arrays"))
    };
    get_array(v, key)?.iter().map(row).collect()
}

fn parse_table(t: &Json) -> Result<TableWorkload, String> {
    let pooling_json = t.get("pooling").ok_or("missing `pooling`")?;
    let buckets = get_u64_rows(pooling_json, "buckets")?;
    let pooling = PoolingSummary {
        total: get_u64(pooling_json, "total")?,
        sum: get_u64(pooling_json, "sum")?,
        mean: get_f64(pooling_json, "mean")?,
        p50: get_f64(pooling_json, "p50")?,
        p95: get_f64(pooling_json, "p95")?,
        buckets: buckets.into_iter().map(|[lo, hi, c]| (lo, hi, c)).collect(),
    };
    let top_rows = get_u64_rows(t, "top_rows")?.into_iter();
    let top_rows = top_rows.map(|[row, hits]| (row, hits)).collect();
    Ok(TableWorkload {
        table: get_u64(t, "table")? as usize,
        rows: get_u64(t, "rows")?,
        dim: get_u64(t, "dim")? as usize,
        lookups: get_u64(t, "lookups")?,
        bags: get_u64(t, "bags")?,
        unique_rows: get_u64(t, "unique_rows")?,
        pooling,
        top_rows,
        zipf_exponent: opt_f64(t, "zipf_exponent")?,
        param_bytes: get_u64(t, "param_bytes")?,
    })
}

fn parse_shard(s: &Json) -> Result<ShardLoad, String> {
    let kind_str = s
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string `kind`")?;
    let kind =
        ShardKind::parse(kind_str).ok_or_else(|| format!("unknown shard kind `{kind_str}`"))?;
    Ok(ShardLoad {
        rank: get_u64(s, "rank")? as usize,
        table: get_u64(s, "table")? as usize,
        shard: get_u64(s, "shard")? as usize,
        kind,
        lookups: get_u64(s, "lookups")?,
        bags: get_u64(s, "bags")?,
        bytes: get_u64(s, "bytes")?,
        param_bytes: get_u64(s, "param_bytes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardCollector;

    fn sample_report() -> WorkloadReport {
        // table 0 split row-wise across 2 ranks; table 1 data-parallel
        // with overlapping rows on both replicas
        let mut r0 = ShardCollector::new(0, 0, 0, ShardKind::Row, 8, 0, 50);
        r0.record(&[2, 1], &[0, 1, 0]);
        let mut r1 = ShardCollector::new(1, 0, 1, ShardKind::Row, 8, 50, 50);
        r1.record(&[1], &[10]); // global row 60
        let mut d0 = ShardCollector::new(0, 1, 0, ShardKind::Dp, 4, 0, 64);
        d0.record(&[2], &[7, 9]);
        let mut d1 = ShardCollector::new(1, 1, 1, ShardKind::Dp, 4, 0, 64);
        d1.record(&[2], &[7, 11]); // row 7 overlaps replica 0
        let samples = vec![
            r0.finish(50 * 8 * 4),
            r1.finish(50 * 8 * 4),
            d0.finish(64 * 4 * 4),
            d1.finish(64 * 4 * 4),
        ];
        WorkloadReport::from_samples(
            2,
            10,
            32,
            1234,
            &[
                TableMeta { rows: 100, dim: 8 },
                TableMeta { rows: 64, dim: 4 },
            ],
            samples,
        )
    }

    #[test]
    fn merge_unions_unique_rows_and_conserves_lookups() {
        let r = sample_report();
        assert_eq!(r.tables.len(), 2);
        let t0 = &r.tables[0];
        assert_eq!(t0.lookups, 4);
        assert_eq!(t0.bags, 3);
        assert_eq!(t0.unique_rows, 3, "rows 0, 1, 60");
        assert_eq!(
            t0.top_rows,
            vec![(0, 2), (1, 1), (60, 1)],
            "row blocks merge at their base row"
        );
        assert_eq!(t0.pooling.sum, t0.lookups, "pooling mass == lookups");
        assert_eq!(t0.pooling.total, t0.bags);
        assert_eq!(t0.param_bytes, 2 * 50 * 8 * 4);
        let t1 = &r.tables[1];
        assert_eq!(t1.lookups, 4);
        assert_eq!(t1.unique_rows, 3, "row 7 overlaps: union, not sum");
        assert_eq!(
            t1.top_rows,
            vec![(7, 2), (9, 1), (11, 1)],
            "replica hits sum"
        );
        assert_eq!(r.shards.len(), 4);
        assert_eq!(r.shards[0].rank, 0, "shards sorted by (rank, table, shard)");
    }

    #[test]
    fn hottest_keeps_the_exact_head_in_order() {
        let counts = [0, 3, 1, 3, 0, 5, 1, 2];
        assert_eq!(hottest(&counts, 3), vec![(5, 5), (1, 3), (3, 3)]);
        assert_eq!(
            hottest(&counts, 10),
            vec![(5, 5), (1, 3), (3, 3), (7, 2), (2, 1), (6, 1)],
            "zero counts are not rows"
        );
        assert_eq!(hottest(&counts, 0), vec![]);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let r = sample_report();
        let imb = r.imbalance();
        assert_eq!(imb.per_rank_lookups, vec![5, 3]);
        assert!((imb.lookup_max_over_mean - 5.0 / 4.0).abs() < 1e-12);
        // bytes: rank0 = 3*32 + 2*16 = 128, rank1 = 1*32 + 2*16 = 64
        assert_eq!(imb.per_rank_bytes, vec![128, 64]);
        assert!((imb.bytes_max_over_mean - 128.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips() {
        let r = sample_report();
        let text = r.to_json();
        let back = WorkloadReport::parse(&text).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.imbalance(), r.imbalance());
    }

    #[test]
    fn parse_rejects_bad_schema_and_kinds() {
        let r = sample_report();
        let bad_schema = r
            .to_json()
            .replace("\"neo-workload/2\"", "\"neo-workload/99\"");
        assert!(WorkloadReport::parse(&bad_schema)
            .expect_err("the schema tag must be checked")
            .contains("neo-workload/99"));
        let bad_kind = r
            .to_json()
            .replace("\"kind\": \"row\"", "\"kind\": \"diagonal\"");
        assert!(WorkloadReport::parse(&bad_kind)
            .expect_err("kinds are a closed set")
            .contains("diagonal"));
        assert!(WorkloadReport::parse("not json").is_err());
    }

    #[test]
    fn zipf_fit_recovers_exponent() {
        // ideal Zipf(1.2) counts over 20 ranks
        let top: Vec<(u64, u64)> = (1..=20u64)
            .map(|r| (r, (1e6 * (r as f64).powf(-1.2)) as u64))
            .collect();
        let s = zipf_fit(&top).expect("clean power law fits");
        assert!((s - 1.2).abs() < 0.05, "{s}");
        // flat distribution: slope ~0 -> no fit
        let flat: Vec<(u64, u64)> = (1..=20u64).map(|r| (r, 1000)).collect();
        assert_eq!(zipf_fit(&flat), None);
        assert_eq!(zipf_fit(&top[..2]), None, "too few points");
    }
}
