//! Allocation budget: heap allocations per steady-state training step,
//! counted by the `neo-alloc-count` global allocator, against a committed
//! table that may only fall.
//!
//! Each row trains a fresh model for `WARMUP + COUNTED` steps and for
//! `WARMUP` steps on the same pre-built batch ring, and divides the
//! difference in allocation calls by `COUNTED`. Setup, thread start-up
//! and teardown are the same in both runs and cancel, so no trainer hook
//! is needed. A row fails when it measures above its budget, and as stale
//! when its budget is more than `STALE` above what it measures: a fix
//! lowers the table in the same change, so the table can only fall.
//!
//! The rows cover every value of each `SyncTrainer` axis at least once
//! (plan scheme, world, schedule, wire precision, store, sparse
//! optimizer), plus the single-device `DlrmModel` step. DESIGN §7.1 lists
//! the rows and which kernels each one runs.
//!
//! This lives in its own test binary holding one test: the counts are
//! process-wide, so a sibling test allocating concurrently would show up
//! in them.

use neo_alloc_count::counts;
use neo_dlrm::collectives::QuantMode;
use neo_dlrm::dataio::{CombinedBatch, SyntheticConfig, SyntheticDataset};
use neo_dlrm::dlrm::{bce_with_logits, DlrmConfig, DlrmModel};
use neo_dlrm::embeddings::{SparseAdam, SparseOptimizer};
use neo_dlrm::sharding::{Scheme, ShardingPlan, TablePlacement};
use neo_dlrm::trainer::{SparseOpt, SyncConfig, SyncTrainer};

const TABLES: usize = 4;
const ROWS: u64 = 96;
const DIM: usize = 8;
const BATCH: usize = 32;
/// Steps before the counted window: the first steps size the buffers
/// later steps reuse.
const WARMUP: u64 = 2;
/// Steps in the counted window.
const COUNTED: u64 = 8;
/// Distinct batches the runs cycle through; it divides `COUNTED`, so
/// every window sees each batch equally often.
const RING: u64 = 4;
/// Runs of each length per row; the fewest allocations count.
const REPEATS: usize = 3;
/// A budget more than this many allocations per step above its
/// measurement is stale.
const STALE: f64 = 2.0;

/// The committed budget, in allocations per step, of each row, named
/// `plan world schedule wire store sparse-optimizer`: 1 above
/// the middle of what the row measured when it was set, so the row's
/// run-to-run spread stays inside the `STALE`-wide band below it.
const BUDGETS: &[(&str, f64)] = &[
    ("table w1 serial fp32 dense sgd", 98.0),
    ("row w2 overlap fp16/bf16 dense adagrad", 395.0),
    ("column w4 serial fp32 fp16-store rowwise", 797.0),
    ("data-parallel w2 serial fp32 dense sgd", 402.5),
    ("mixed w4 overlap fp16/bf16 fp16-store rowwise", 879.5),
    ("dlrm-model w1 adam", 95.0),
];

fn model() -> DlrmConfig {
    DlrmConfig::tiny(TABLES, ROWS, DIM)
}

/// A `SyncTrainer` config at `world` with table `t` placed by `scheme(t)`.
fn sync_config(world: usize, scheme: impl Fn(usize) -> Scheme) -> SyncConfig {
    let placements = (0..TABLES)
        .map(|table| TablePlacement {
            table,
            scheme: scheme(table),
        })
        .collect();
    let plan = ShardingPlan { world, placements };
    SyncConfig::exact(world, model(), plan, BATCH)
}

fn quantized(mut cfg: SyncConfig) -> SyncConfig {
    cfg.quant_fwd = QuantMode::Fp16;
    cfg.quant_bwd = QuantMode::Bf16;
    cfg
}

/// The `SyncTrainer` rows, in `BUDGETS` order.
fn sync_rows() -> Vec<SyncConfig> {
    let all = |w: usize| (0..w).collect::<Vec<_>>();
    let table = sync_config(1, |_| Scheme::TableWise { worker: 0 });
    let mut row = quantized(sync_config(2, |_| Scheme::RowWise { workers: all(2) }));
    row.overlap = true;
    row.optimizer = SparseOpt::Adagrad;
    let mut column = sync_config(4, |_| Scheme::ColumnWise {
        workers: all(4),
        split_dims: vec![2; 4],
    });
    column.fp16_embeddings = true;
    column.optimizer = SparseOpt::RowWiseAdagrad;
    let data = sync_config(2, |_| Scheme::DataParallel);
    let mut mixed = quantized(sync_config(4, |t| match t {
        0 => Scheme::TableWise { worker: 2 },
        1 => Scheme::RowWise { workers: all(4) },
        2 => Scheme::ColumnWise {
            workers: vec![0, 3],
            split_dims: vec![4, 4],
        },
        _ => Scheme::DataParallel,
    }));
    mixed.overlap = true;
    mixed.fp16_embeddings = true;
    mixed.optimizer = SparseOpt::RowWiseAdagrad;
    vec![table, row, column, data, mixed]
}

/// Trains a fresh `SyncTrainer` for `steps` steps over the ring.
fn train_sync(cfg: &SyncConfig, ring: &[CombinedBatch], steps: u64) {
    SyncTrainer::new(cfg.clone())
        .train_stream(steps, |k| ring[(k % RING) as usize].clone(), &[], 0, None)
        .unwrap();
}

/// Trains a fresh single-device model for `steps` steps over the ring:
/// forward, loss, backward, the dense and sparse optimizers, and an
/// inference forward, as the reference-equivalence tests step it.
fn train_model(ring: &[CombinedBatch], steps: u64) {
    let lr = 0.05;
    let mut m = DlrmModel::new(&model(), 42).unwrap();
    let mut opts: Vec<SparseAdam> = (0..TABLES)
        .map(|_| SparseAdam::new(lr, 1e-8, ROWS, DIM))
        .collect();
    for k in 0..steps {
        let b = &ring[(k % RING) as usize];
        let logits = m.forward(b).unwrap();
        let (_, grad) = bce_with_logits(&logits, &b.labels).unwrap();
        let sparse = m.backward(&grad).unwrap();
        m.dense_sgd_step(lr);
        for (opt, (table, sg)) in opts.iter_mut().zip(m.tables.iter_mut().zip(&sparse)) {
            opt.step(table.as_mut(), sg);
        }
        m.forward_inference(b).unwrap();
    }
}

/// Allocation calls and bytes per counted step of `train`. Thread timing
/// only ever adds allocations (a ring entry for a rank that runs ahead, a
/// buffer copied because a peer still reads it), so each run length
/// counts the fewest of `REPEATS` runs.
fn per_step(train: impl Fn(u64)) -> (f64, f64) {
    let run = |steps| {
        (0..REPEATS)
            .map(|_| {
                let before = counts();
                train(steps);
                let after = counts();
                (after.calls - before.calls, after.bytes - before.bytes)
            })
            .min()
            .unwrap()
    };
    let (short_calls, short_bytes) = run(WARMUP);
    let (long_calls, long_bytes) = run(WARMUP + COUNTED);
    let per = |long: u64, short: u64| (long as f64 - short as f64) / COUNTED as f64;
    (per(long_calls, short_calls), per(long_bytes, short_bytes))
}

#[test]
fn steady_state_steps_stay_within_the_allocation_budget() {
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(TABLES, ROWS, 3, 4)).unwrap();
    let ring: Vec<CombinedBatch> = (0..RING).map(|k| ds.batch(BATCH, k)).collect();
    let mut measured: Vec<(f64, f64)> = sync_rows()
        .iter()
        .map(|cfg| per_step(|steps| train_sync(cfg, &ring, steps)))
        .collect();
    measured.push(per_step(|steps| train_model(&ring, steps)));
    assert_eq!(measured.len(), BUDGETS.len());

    let mut failures = Vec::new();
    for (&(name, budget), &(allocs, bytes)) in BUDGETS.iter().zip(&measured) {
        println!("{name:<46} {allocs:>7.1} allocs/step (budget {budget:>5.1}) {bytes:>9.0} B/step");
        if allocs > budget {
            failures.push(format!(
                "{name}: {allocs} allocations per step, over its budget of {budget}"
            ));
        } else if budget - allocs > STALE {
            failures.push(format!(
                "{name}: budget {budget} is stale, the row measures {allocs}; lower it"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
