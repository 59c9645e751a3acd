//! The four sharding primitives of §4.2 and the plan type that records a
//! full placement.

use serde::{Deserialize, Serialize};

use crate::cost::ShardDivision;
use crate::spec::TableSpec;

/// Error for invalid plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    msg: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sharding plan error: {}", self.msg)
    }
}

impl std::error::Error for PlanError {}

fn err(msg: impl Into<String>) -> PlanError {
    PlanError { msg: msg.into() }
}

impl PlanError {
    /// The "zero workers" error, raised by the planner before placement.
    #[must_use]
    pub fn zero_workers() -> Self {
        err("zero workers")
    }
}

/// How one table is sharded and where its pieces live.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// Whole table on one worker (§4.2.1): optimal communication, coarsest
    /// balance granularity.
    TableWise {
        /// The worker holding the table.
        worker: usize,
    },
    /// Rows split into contiguous blocks across workers (§4.2.2): needs
    /// bucketized inputs and a ReduceScatter in the forward pass.
    RowWise {
        /// One entry per shard, in row-block order.
        workers: Vec<usize>,
    },
    /// Embedding dimension split across workers (§4.2.3): duplicated
    /// indices, same AlltoAll flow as table-wise.
    ColumnWise {
        /// One entry per column shard.
        workers: Vec<usize>,
        /// Width of each column shard (sums to the table dim).
        split_dims: Vec<usize>,
    },
    /// Replicated on every worker as a dense parameter (§4.2.4): no
    /// forward AlltoAll, AllReduce in the backward pass.
    DataParallel,
}

impl Scheme {
    /// Short scheme name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::TableWise { .. } => "table-wise",
            Scheme::RowWise { .. } => "row-wise",
            Scheme::ColumnWise { .. } => "column-wise",
            Scheme::DataParallel => "data-parallel",
        }
    }
}

/// Splits a dimension `d` into `parts` near-equal widths (remainder spread
/// over the leading shards).
///
/// # Panics
///
/// Panics if `parts == 0` or `parts > d`.
#[must_use]
pub fn split_dim(d: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0 && parts <= d, "cannot split dim {d} into {parts}");
    let base = d / parts;
    let extra = d % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// One table's placement inside a plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TablePlacement {
    /// Table id.
    pub table: usize,
    /// Chosen scheme with worker assignment.
    pub scheme: Scheme,
}

/// A complete sharding plan for a model on a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardingPlan {
    /// Number of workers.
    pub world: usize,
    /// One placement per table, in table order.
    pub placements: Vec<TablePlacement>,
}

/// One rectangle of a table resident on a worker: rows
/// `[row_off, row_off + rows)` × columns `[col_off, col_off + width)`. The
/// four schemes are four ways to cut this one shape; they differ only in
/// which collective moves a shard's inputs and outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Table id.
    pub table: usize,
    /// Position among the table's shards (the replica's worker for a
    /// data-parallel table).
    pub ordinal: usize,
    /// The worker holding the shard.
    pub worker: usize,
    /// First table row held.
    pub row_off: u64,
    /// Number of rows held (0 for an empty trailing row block).
    pub rows: u64,
    /// First embedding column held.
    pub col_off: usize,
    /// Number of embedding columns held.
    pub width: usize,
    /// How the shard divides its table; `None` for a data-parallel
    /// replica, which divides nothing.
    pub division: Option<ShardDivision>,
    /// Number of shards the table has (`world` replicas when
    /// data-parallel).
    pub parts: usize,
}

impl ShardingPlan {
    /// Validates a plan against the table list: every table placed exactly
    /// once, workers in range, row/column shard lists well-formed.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] describing the first violation.
    pub fn validate(&self, tables: &[TableSpec]) -> Result<(), PlanError> {
        if self.world == 0 {
            return Err(err("zero workers"));
        }
        if self.placements.len() != tables.len() {
            return Err(err(format!(
                "{} placements for {} tables",
                self.placements.len(),
                tables.len()
            )));
        }
        for (i, (p, t)) in self.placements.iter().zip(tables).enumerate() {
            if p.table != t.id || p.table != i {
                return Err(err(format!("placement {i} refers to table {}", p.table)));
            }
            match &p.scheme {
                Scheme::TableWise { worker } => {
                    if *worker >= self.world {
                        return Err(err(format!("table {i}: worker {worker} out of range")));
                    }
                }
                Scheme::RowWise { workers } => {
                    if workers.is_empty() {
                        return Err(err(format!("table {i}: row-wise with zero shards")));
                    }
                    if workers.len() as u64 > t.num_rows {
                        return Err(err(format!("table {i}: more row shards than rows")));
                    }
                    if workers.iter().any(|&w| w >= self.world) {
                        return Err(err(format!("table {i}: row shard worker out of range")));
                    }
                    // two row blocks on one rank should be one larger block;
                    // the trainer serves a single block per table and rank
                    let mut listed = workers.iter().enumerate();
                    if let Some((_, w)) = listed.find(|&(k, w)| workers[..k].contains(w)) {
                        return Err(err(format!("table {i}: row-wise worker {w} listed twice")));
                    }
                }
                Scheme::ColumnWise {
                    workers,
                    split_dims,
                } => {
                    if workers.len() != split_dims.len() || workers.is_empty() {
                        return Err(err(format!("table {i}: column shard shape mismatch")));
                    }
                    if split_dims.iter().sum::<usize>() != t.dim {
                        return Err(err(format!(
                            "table {i}: split dims sum {} != dim {}",
                            split_dims.iter().sum::<usize>(),
                            t.dim
                        )));
                    }
                    if split_dims.contains(&0) {
                        return Err(err(format!("table {i}: zero-width column shard")));
                    }
                    if workers.iter().any(|&w| w >= self.world) {
                        return Err(err(format!("table {i}: column shard worker out of range")));
                    }
                }
                Scheme::DataParallel => {}
            }
        }
        Ok(())
    }

    /// Every shard of the plan in `(table, ordinal)` order — the one
    /// statement of shard geometry: a table-wise table is one whole shard,
    /// a row-wise table is cut into `ceil(H / shards)`-row blocks (global
    /// row `i` lives in block `i / block` as local row `i % block`), a
    /// column-wise table into its `split_dims` slices, and a data-parallel
    /// table yields one full replica per worker. (`neo-dataio`'s
    /// `row_block_size` restates the block rule for `bucketize_rows`, one
    /// crate below; `tests/invariants_prop.rs` holds the two together.)
    ///
    /// # Panics
    ///
    /// Panics on a row-wise placement with no workers, which
    /// [`ShardingPlan::validate`] rejects (validate first).
    pub fn shards(&self, tables: &[TableSpec]) -> Vec<Shard> {
        let mut out = Vec::new();
        for (p, t) in self.placements.iter().zip(tables) {
            // a full replica on worker 0; each scheme overrides its cut
            let full = Shard {
                table: p.table,
                ordinal: 0,
                worker: 0,
                row_off: 0,
                rows: t.num_rows,
                col_off: 0,
                width: t.dim,
                division: None,
                parts: self.world,
            };
            match &p.scheme {
                Scheme::TableWise { worker } => out.push(Shard {
                    worker: *worker,
                    division: Some(ShardDivision::Whole),
                    parts: 1,
                    ..full
                }),
                Scheme::RowWise { workers } => {
                    let block = t.num_rows.div_ceil(workers.len() as u64);
                    for (k, &w) in workers.iter().enumerate() {
                        let lo = (block * k as u64).min(t.num_rows);
                        out.push(Shard {
                            ordinal: k,
                            worker: w,
                            row_off: lo,
                            rows: (lo + block).min(t.num_rows) - lo,
                            division: Some(ShardDivision::Row),
                            parts: workers.len(),
                            ..full
                        });
                    }
                }
                Scheme::ColumnWise {
                    workers,
                    split_dims,
                } => {
                    let mut off = 0;
                    for (k, (&w, &d)) in workers.iter().zip(split_dims).enumerate() {
                        out.push(Shard {
                            ordinal: k,
                            worker: w,
                            col_off: off,
                            width: d,
                            division: Some(ShardDivision::Column),
                            parts: workers.len(),
                            ..full
                        });
                        off += d;
                    }
                }
                Scheme::DataParallel => out.extend((0..self.world).map(|w| Shard {
                    ordinal: w,
                    worker: w,
                    ..full
                })),
            }
        }
        out
    }

    /// Parameter bytes resident on each worker (data-parallel tables count
    /// on every worker).
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match `tables` (validate first).
    pub fn memory_per_worker(&self, tables: &[TableSpec], bytes_per_elem: u64) -> Vec<u64> {
        let mut mem = vec![0u64; self.world];
        for s in self.shards(tables) {
            mem[s.worker] += s.rows * s.width as u64 * bytes_per_elem;
        }
        mem
    }

    /// Count of placements using each scheme, `(table, row, column, dp)`.
    pub fn scheme_histogram(&self) -> (usize, usize, usize, usize) {
        let mut h = (0, 0, 0, 0);
        for p in &self.placements {
            match p.scheme {
                Scheme::TableWise { .. } => h.0 += 1,
                Scheme::RowWise { .. } => h.1 += 1,
                Scheme::ColumnWise { .. } => h.2 += 1,
                Scheme::DataParallel => h.3 += 1,
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> Vec<TableSpec> {
        vec![
            TableSpec::new(0, 1000, 32, 5.0),
            TableSpec::new(1, 10, 16, 1.0),
            TableSpec::new(2, 100_000, 64, 20.0),
        ]
    }

    fn plan() -> ShardingPlan {
        ShardingPlan {
            world: 4,
            placements: vec![
                TablePlacement {
                    table: 0,
                    scheme: Scheme::TableWise { worker: 1 },
                },
                TablePlacement {
                    table: 1,
                    scheme: Scheme::DataParallel,
                },
                TablePlacement {
                    table: 2,
                    scheme: Scheme::RowWise {
                        workers: vec![0, 1, 2, 3],
                    },
                },
            ],
        }
    }

    #[test]
    fn valid_plan_passes() {
        plan().validate(&tables()).unwrap();
    }

    #[test]
    fn detects_out_of_range_worker() {
        let mut p = plan();
        p.placements[0].scheme = Scheme::TableWise { worker: 9 };
        assert!(p.validate(&tables()).is_err());
    }

    #[test]
    fn detects_bad_column_split() {
        let mut p = plan();
        p.placements[0].scheme = Scheme::ColumnWise {
            workers: vec![0, 1],
            split_dims: vec![16, 8],
        };
        assert!(p.validate(&tables()).is_err(), "splits must sum to 32");
        p.placements[0].scheme = Scheme::ColumnWise {
            workers: vec![0, 1],
            split_dims: vec![16, 16],
        };
        p.validate(&tables()).unwrap();
    }

    #[test]
    fn detects_more_row_shards_than_rows() {
        let mut p = plan();
        p.placements[1].scheme = Scheme::RowWise {
            workers: vec![0, 1, 2, 3],
        };
        p.validate(&tables()).unwrap(); // 10 rows, 4 shards ok
        p.placements[1].scheme = Scheme::RowWise {
            workers: (0..4).cycle().take(11).collect(),
        };
        assert!(p.validate(&tables()).is_err());
    }

    #[test]
    fn row_wise_rejects_a_repeated_worker_column_wise_allows_it() {
        let mut p = plan();
        p.placements[2].scheme = Scheme::RowWise {
            workers: vec![0, 1, 0],
        };
        let e = p.validate(&tables()).unwrap_err();
        assert!(e.to_string().contains("worker 0 listed twice"), "{e}");
        // greedy packing may put two column slices on one worker
        p.placements[2].scheme = Scheme::ColumnWise {
            workers: vec![0, 1, 0],
            split_dims: vec![32, 16, 16],
        };
        p.validate(&tables()).unwrap();
    }

    #[test]
    fn shards_enumerate_every_scheme_in_table_ordinal_order() {
        let mut p = plan();
        p.placements[0].scheme = Scheme::ColumnWise {
            workers: vec![3, 3],
            split_dims: vec![24, 8],
        };
        let rect = |s: &Shard| {
            (
                s.table, s.ordinal, s.worker, s.row_off, s.rows, s.col_off, s.width,
            )
        };
        let got: Vec<_> = p.shards(&tables()).iter().map(rect).collect();
        let mut want = vec![(0, 0, 3, 0, 1000, 0, 24), (0, 1, 3, 0, 1000, 24, 8)];
        want.extend((0..4).map(|w| (1, w, w, 0, 10, 0, 16)));
        want.extend((0..4).map(|k| (2, k, k, 25_000 * k as u64, 25_000, 0, 64)));
        assert_eq!(got, want);
        let cut = |s: &Shard| (s.division, s.parts);
        let kinds: Vec<_> = p.shards(&tables()).iter().map(cut).collect();
        assert_eq!(kinds[0], (Some(ShardDivision::Column), 2));
        assert_eq!(kinds[2], (None, 4));
        assert_eq!(kinds[6], (Some(ShardDivision::Row), 4));
        p.placements[0].scheme = Scheme::TableWise { worker: 1 };
        let whole = cut(&p.shards(&tables())[0]);
        assert_eq!(whole, (Some(ShardDivision::Whole), 1));
    }

    #[test]
    fn memory_accounting() {
        let mem = plan().memory_per_worker(&tables(), 4);
        // table 0 (1000x32x4 = 128_000) on worker 1
        // table 1 (10x16x4 = 640) on all
        // table 2: 100_000 rows / 4 = 25_000 rows x 64 x 4 = 6_400_000 each
        assert_eq!(mem[0], 640 + 6_400_000);
        assert_eq!(mem[1], 128_000 + 640 + 6_400_000);
        assert_eq!(mem[2], mem[0]);
        assert_eq!(mem.len(), 4);
    }

    #[test]
    fn rowwise_memory_handles_uneven_blocks() {
        let t = vec![TableSpec::new(0, 10, 8, 1.0)];
        let p = ShardingPlan {
            world: 3,
            placements: vec![TablePlacement {
                table: 0,
                scheme: Scheme::RowWise {
                    workers: vec![0, 1, 2],
                },
            }],
        };
        let mem = p.memory_per_worker(&t, 4);
        // blocks of 4, 4, 2 rows
        assert_eq!(mem, vec![4 * 8 * 4, 4 * 8 * 4, 2 * 8 * 4]);
        assert_eq!(mem.iter().sum::<u64>(), 10 * 8 * 4);
    }

    #[test]
    fn split_dim_balanced() {
        assert_eq!(split_dim(10, 3), vec![4, 3, 3]);
        assert_eq!(split_dim(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(split_dim(5, 5), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_dim_rejects_too_many_parts() {
        let _ = split_dim(3, 4);
    }

    #[test]
    fn histogram_counts() {
        assert_eq!(plan().scheme_histogram(), (1, 1, 0, 1));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::DataParallel.name(), "data-parallel");
        assert_eq!(Scheme::TableWise { worker: 0 }.name(), "table-wise");
    }
}
