//! Acceptance tests for the `neo-workload` access-profile artifact: the
//! hot rows are the exact counts of the training indices and track the
//! synthetic generator's Zipf head, the observed per-rank lookup
//! imbalance agrees with the sharding planner's prediction, the artifact
//! round-trips losslessly, and every rank's embedding stores hold exactly
//! the bytes the plan assigns it.

use std::cmp::Reverse;

use neo_dlrm::collectives::QuantMode;
use neo_dlrm::dataio::{CombinedBatch, SyntheticConfig, SyntheticDataset};
use neo_dlrm::dlrm::{DlrmConfig, EmbTableCfg};
use neo_dlrm::sharding::scheme::split_dim;
use neo_dlrm::sharding::{
    CostModel, Planner, PlannerConfig, Scheme, ShardingPlan, TablePlacement, TableSpec,
};
use neo_dlrm::trainer::{SparseOpt, SyncConfig, SyncTrainer};
use neo_dlrm::workload::{WorkloadReport, TOP_ROWS};

const TABLES: usize = 4;
const ROWS: u64 = 2_000;
const BATCH: usize = 64;
const ITERS: u64 = 30;

/// The training batches: Zipf-skewed indices (s = 1.3, hottest row =
/// index 0).
fn zipf_batches() -> Vec<CombinedBatch> {
    let mut gen = SyntheticConfig::uniform(TABLES, ROWS, 4, 4);
    gen.zipf_exponent = 1.3;
    let ds = SyntheticDataset::new(gen).unwrap();
    (0..ITERS).map(|k| ds.batch(BATCH, k)).collect()
}

/// Trains on [`zipf_batches`] with the profiler on; returns the artifact
/// plus the planner's predicted lookup imbalance for the same plan.
fn trained_report(world: usize) -> (WorkloadReport, f64) {
    let model = DlrmConfig::tiny(TABLES, ROWS, 8);
    let specs: Vec<TableSpec> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let planner = Planner::new(CostModel::v100_prototype(BATCH), PlannerConfig::default());
    let plan = planner.plan(&specs, world).unwrap();
    let predicted = planner.predicted_lookup_imbalance(&plan, &specs);

    let batches = zipf_batches();
    let mut cfg = SyncConfig::exact(world, model, plan, BATCH);
    cfg.workload = true;
    let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None).unwrap();
    (out.workload.expect("profiler was on"), predicted)
}

#[test]
fn top_k_tracks_the_generators_hot_rows() {
    let (report, _) = trained_report(4);
    assert_eq!(report.tables.len(), TABLES);
    for t in &report.tables {
        let top = &t.top_rows;
        assert!(!top.is_empty(), "table {}: no top rows", t.table);
        // the generator's heat decays from index 0, so the hottest row
        // must be row 0 and the whole top-8 must sit in the hot head
        // (first 64 of 2000 rows)
        assert_eq!(top[0].0, 0, "table {}: hottest row: {top:?}", t.table);
        for &(row, _) in top.iter().take(8) {
            assert!(
                row < 64,
                "table {}: top-8 row {row} is cold: {top:?}",
                t.table
            );
        }
        // sorted by hits, non-increasing
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "{top:?}");
        // the fit sees only the 32 hottest rows of a finite sample of the
        // generator's s = 1.3, so its slope is noisy; bound it loosely
        let s = t.zipf_exponent.expect("a decaying head fits");
        assert!(s > 0.6 && s < 2.0, "table {}: fitted s = {s}", t.table);
    }
}

#[test]
fn observed_shard_imbalance_matches_the_planner_prediction() {
    for world in [2, 4] {
        let (report, predicted) = trained_report(world);
        let imb = report.imbalance();
        assert_eq!(imb.per_rank_lookups.len(), world);
        let observed = imb.lookup_max_over_mean;
        // identical tables predict an even split; the observed skew only
        // carries pooling-length sampling noise
        assert!(
            (observed - predicted).abs() / predicted < 0.15,
            "world {world}: observed {observed:.4} vs predicted {predicted:.4}"
        );
    }
}

#[test]
fn artifact_round_trips_and_conserves_counts() {
    let (report, _) = trained_report(2);
    let parsed = WorkloadReport::parse(&report.to_json()).expect("artifact parses");
    assert_eq!(parsed, report, "lossless round-trip");
    let expected_bags = ITERS * BATCH as u64;
    for t in &report.tables {
        assert_eq!(t.pooling.sum, t.lookups, "pooling mass == lookups");
        assert_eq!(t.bags, expected_bags, "one bag per sample per table");
        assert!(t.unique_rows >= 1 && t.unique_rows <= t.lookups.min(t.rows));
    }
    assert!(report.comm_bytes > 0);
}

/// Every table's hits counted by brute force over the training batches:
/// `top_rows` must be the [`TOP_ROWS`] hottest `(row, hits)`, hits
/// descending and row ascending on ties, and `unique_rows` the number of
/// rows hit at all.
#[test]
fn top_rows_are_the_exact_counts() {
    let (report, _) = trained_report(4);
    let batches = zipf_batches();
    for t in &report.tables {
        let mut hits = vec![0u64; ROWS as usize];
        for b in &batches {
            for &i in b.table_inputs(t.table).1 {
                hits[i as usize] += 1;
            }
        }
        assert_eq!(t.lookups, hits.iter().sum::<u64>(), "table {}", t.table);
        let mut want: Vec<(u64, u64)> = (0u64..).zip(hits).filter(|&(_, h)| h > 0).collect();
        assert_eq!(t.unique_rows, want.len() as u64, "table {}", t.table);
        want.sort_by_key(|&(row, h)| (Reverse(h), row));
        want.truncate(TOP_ROWS);
        assert_eq!(t.top_rows, want, "table {}", t.table);
    }
}

/// The hand-built mixed plan of the benchmark's `sparse_w2`: table `i` by
/// `i % 4` — table-wise, row-wise over every rank, column-wise over every
/// rank, table-wise on the next rank.
fn mixed_plan(specs: &[TableSpec], world: usize) -> ShardingPlan {
    let all: Vec<usize> = (0..world).collect();
    let placements = specs
        .iter()
        .map(|t| {
            let scheme = match t.id % 4 {
                0 => Scheme::TableWise {
                    worker: (t.id / 4) % world,
                },
                1 => Scheme::RowWise {
                    workers: all.clone(),
                },
                2 => Scheme::ColumnWise {
                    workers: all.clone(),
                    split_dims: split_dim(t.dim, world),
                },
                _ => Scheme::TableWise {
                    worker: (t.id / 4 + 1) % world,
                },
            };
            TablePlacement {
                table: t.id,
                scheme,
            }
        })
        .collect();
    ShardingPlan { world, placements }
}

/// The exact half of the memory ledger: per rank, the stores' parameter
/// bytes are the planner's `memory_per_worker` — FP32 at 4 bytes per
/// element, FP16 at 2 — so initialization allocates the planned
/// rectangles and nothing else. The one difference is named: an empty
/// trailing row block still gets a one-row store, which the plan counts
/// as zero rows.
#[test]
fn store_bytes_are_the_planned_rectangles() {
    // sparse_w2's model and plan at test scale, then a 3-rank cut of
    // 4-row tables whose row-wise blocks are 2, 2 and 0 rows
    for (world, rows) in [(2, 1_000), (3, 4)] {
        let model = DlrmConfig {
            dense_dim: 4,
            bottom_mlp: vec![16, 32],
            tables: (0..8)
                .map(|_| EmbTableCfg {
                    num_rows: rows,
                    dim: 32,
                    avg_pooling: 32,
                })
                .collect(),
            top_mlp: vec![32, 1],
        };
        let specs: Vec<TableSpec> = model
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, f64::from(t.avg_pooling)))
            .collect();
        let plan = mixed_plan(&specs, world);
        plan.validate(&specs).unwrap();
        let empty_blocks: Vec<_> = plan
            .shards(&specs)
            .into_iter()
            .filter(|s| s.rows == 0)
            .collect();
        assert_eq!(empty_blocks.is_empty(), world == 2);
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(8, rows, 32, 4)).unwrap();
        let batch = 16 * world;
        let batches: Vec<_> = (0..2).map(|k| ds.batch(batch, k)).collect();
        for (fp16, bytes_per_elem) in [(false, 4), (true, 2)] {
            let mut want = plan.memory_per_worker(&specs, bytes_per_elem);
            for s in &empty_blocks {
                want[s.worker] += s.width as u64 * bytes_per_elem;
            }
            let mut cfg = SyncConfig::exact(world, model.clone(), plan.clone(), batch);
            cfg.quant_fwd = QuantMode::Fp16;
            cfg.quant_bwd = QuantMode::Bf16;
            cfg.optimizer = SparseOpt::RowWiseAdagrad;
            cfg.fp16_embeddings = fp16;
            cfg.workload = true;
            let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None).unwrap();
            let report = out.workload.expect("profiler was on");
            let mut got = vec![0u64; world];
            for s in &report.shards {
                got[s.rank] += s.param_bytes;
            }
            assert_eq!(got, want, "world {world}, fp16 {fp16}");
        }
    }
}
