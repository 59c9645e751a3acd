//! The §4.1.2 reproducibility guarantees: deterministic exact sparse
//! updates plus rank-ordered reductions make training bit-wise reproducible
//! run-to-run, and checkpoints restore exactly.

use neo_dlrm::collectives::QuantMode;
use neo_dlrm::dataio::{SyntheticConfig, SyntheticDataset};
use neo_dlrm::dlrm::{bce_with_logits, DlrmConfig};
use neo_dlrm::embeddings::{SparseAdagrad, SparseOptimizer};
use neo_dlrm::sharding::{CostModel, Planner, PlannerConfig, TableSpec};
use neo_dlrm::tensor::Tensor2;
use neo_dlrm::trainer::checkpoint;
use neo_dlrm::trainer::init::reference_model;
use neo_dlrm::trainer::{DenseOpt, SyncConfig, SyncTrainer};

fn model_cfg() -> DlrmConfig {
    DlrmConfig::tiny(3, 128, 8)
}

fn dataset() -> SyntheticDataset {
    SyntheticDataset::new(SyntheticConfig::uniform(3, 128, 3, 4)).unwrap()
}

fn planned(world: usize, batch: usize) -> SyncConfig {
    let cfg = model_cfg();
    let specs: Vec<TableSpec> = cfg
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let plan = Planner::new(CostModel::v100_prototype(batch), PlannerConfig::default())
        .plan(&specs, world)
        .unwrap();
    SyncConfig::exact(world, cfg, plan, batch)
}

fn run_distributed(world: usize, seed: u64) -> Tensor2 {
    let ds = dataset();
    let batches: Vec<_> = (0..8).map(|k| ds.batch(32, k)).collect();
    let probe = ds.batch(32, 555);
    let mut cfg = planned(world, 32);
    cfg.seed = seed;
    SyncTrainer::new(cfg)
        .train(&batches, &[], 0, Some(&probe))
        .unwrap()
        .probe_logits
        .unwrap()
}

#[test]
fn distributed_training_bitwise_reproducible() {
    assert_eq!(run_distributed(4, 42), run_distributed(4, 42));
    assert_eq!(run_distributed(2, 42), run_distributed(2, 42));
}

#[test]
fn armed_telemetry_does_not_perturb_training() {
    // observability must be free: arming the metrics registry adds clock
    // reads and span records but must never touch the numerics — the
    // probe logits stay bitwise identical to an unarmed run.
    let ds = dataset();
    let batches: Vec<_> = (0..8).map(|k| ds.batch(32, k)).collect();
    let probe = ds.batch(32, 555);
    let run = |armed: bool| {
        let mut cfg = planned(4, 32);
        cfg.seed = 42;
        if armed {
            cfg.telemetry = neo_dlrm::telemetry::TelemetrySink::armed();
        }
        let out = SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();
        assert_eq!(out.telemetry_summary.is_some(), armed);
        out.probe_logits.unwrap()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn live_monitor_does_not_perturb_training() {
    // the sampler thread reads heartbeats and metrics concurrently with
    // training but must never touch the numerics: a monitor-enabled run
    // is bitwise identical — losses, probe logits, every gathered
    // embedding row — to a monitor-off run.
    use neo_dlrm::monitor::MonitorConfig;

    let ds = dataset();
    let batches: Vec<_> = (0..6).map(|k| ds.batch(32, k)).collect();
    let probe = ds.batch(32, 555);
    let run = |monitored: bool| {
        let mut cfg = planned(4, 32);
        cfg.seed = 42;
        cfg.gather_final_model = true;
        if monitored {
            cfg.monitor = Some(MonitorConfig {
                interval_ms: 1, // sample as aggressively as possible
                ..MonitorConfig::in_memory()
            });
        }
        let out = SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();
        assert!(out.health_events.is_empty(), "{:?}", out.health_events);
        out
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.losses, on.losses, "losses diverge under monitoring");
    assert_eq!(
        off.probe_logits, on.probe_logits,
        "probe logits diverge under monitoring"
    );
    let mut a = off.final_model.expect("gathered monitor-off model");
    let mut b = on.final_model.expect("gathered monitor-on model");
    for (t, (ta, tb)) in a.tables.iter_mut().zip(b.tables.iter_mut()).enumerate() {
        let d = ta.dim();
        let (mut ra, mut rb) = (vec![0.0f32; d], vec![0.0f32; d]);
        for row in 0..ta.num_rows() {
            ta.read_row(row, &mut ra);
            tb.read_row(row, &mut rb);
            assert_eq!(ra, rb, "embedding row diverges: table {t} row {row}");
        }
    }
}

#[test]
fn workload_profiler_does_not_perturb_training() {
    // the access profiler counts every lookup on the hot path but must
    // never touch the numerics or the schedule: a workload-enabled run is
    // bitwise identical — losses, probe logits, every gathered embedding
    // row — to a workload-off run, and only the on-run yields a report.
    let ds = dataset();
    let batches: Vec<_> = (0..6).map(|k| ds.batch(32, k)).collect();
    let probe = ds.batch(32, 555);
    let run = |workload: bool| {
        let mut cfg = planned(4, 32);
        cfg.seed = 42;
        cfg.gather_final_model = true;
        cfg.workload = workload;
        SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert!(off.workload.is_none(), "off-run must not pay for a report");
    let report = on.workload.as_ref().expect("on-run yields the artifact");
    assert!(report.tables.iter().all(|t| t.lookups > 0));
    assert_eq!(off.losses, on.losses, "losses diverge under profiling");
    assert_eq!(
        off.probe_logits, on.probe_logits,
        "probe logits diverge under profiling"
    );
    let mut a = off.final_model.expect("gathered workload-off model");
    let mut b = on.final_model.expect("gathered workload-on model");
    for (t, (ta, tb)) in a.tables.iter_mut().zip(b.tables.iter_mut()).enumerate() {
        let d = ta.dim();
        let (mut ra, mut rb) = (vec![0.0f32; d], vec![0.0f32; d]);
        for row in 0..ta.num_rows() {
            ta.read_row(row, &mut ra);
            tb.read_row(row, &mut rb);
            assert_eq!(ra, rb, "embedding row diverges: table {t} row {row}");
        }
    }
}

#[test]
fn overlap_schedule_bitwise_matches_serial() {
    // The Fig. 9 overlapped schedule only reorders data-independent work
    // (posted collectives still reduce in rank order on the comm lane),
    // so for every world size, quantization mode and dense optimizer the
    // loss trajectory, the probe logits, the gathered MLP parameters and
    // every trained embedding row must be bitwise identical to the serial
    // schedule.
    let ds = dataset();
    let batches: Vec<_> = (0..6).map(|k| ds.batch(32, k)).collect();
    let probe = ds.batch(32, 555);
    let fp32 = (QuantMode::Fp32, QuantMode::Fp32);
    let half = (QuantMode::Fp16, QuantMode::Bf16);
    let mut cases = Vec::new();
    for world in [2, 4] {
        cases.extend([(world, fp32, DenseOpt::Sgd), (world, half, DenseOpt::Sgd)]);
    }
    for opt in [DenseOpt::Adagrad, DenseOpt::Adam, DenseOpt::Lamb] {
        cases.push((2, half, opt));
    }
    for (world, (qf, qb), opt) in cases {
        let run = |overlap: bool| {
            let mut cfg = planned(world, 32);
            cfg.seed = 42;
            cfg.quant_fwd = qf;
            cfg.quant_bwd = qb;
            cfg.dense_optimizer = opt;
            cfg.overlap = overlap;
            cfg.gather_final_model = true;
            SyncTrainer::new(cfg)
                .train(&batches, &[], 0, Some(&probe))
                .unwrap()
        };
        let serial = run(false);
        let overlapped = run(true);
        let tag = format!("world {world}, quant {qf:?}/{qb:?}, {opt:?}");
        assert_eq!(serial.losses, overlapped.losses, "losses diverge: {tag}");
        assert_eq!(
            serial.probe_logits, overlapped.probe_logits,
            "probe logits diverge: {tag}"
        );
        let mut a = serial.final_model.expect("gathered serial model");
        let mut b = overlapped.final_model.expect("gathered overlapped model");
        assert_eq!(a.bottom.params(), b.bottom.params(), "bottom MLP: {tag}");
        assert_eq!(a.top.params(), b.top.params(), "top MLP: {tag}");
        for (t, (ta, tb)) in a.tables.iter_mut().zip(b.tables.iter_mut()).enumerate() {
            let d = ta.dim();
            let (mut ra, mut rb) = (vec![0.0f32; d], vec![0.0f32; d]);
            for row in 0..ta.num_rows() {
                ta.read_row(row, &mut ra);
                tb.read_row(row, &mut rb);
                assert_eq!(ra, rb, "embedding row diverges: table {t} row {row}, {tag}");
            }
        }
    }
}

#[test]
fn different_seeds_differ() {
    assert_ne!(run_distributed(4, 42), run_distributed(4, 43));
}

#[test]
fn worker_counts_agree_within_float_tolerance() {
    // not bit-wise (reduction trees differ), but numerically equivalent
    let w1 = run_distributed(1, 42);
    let w4 = run_distributed(4, 42);
    assert!(w1.max_abs_diff(&w4).unwrap() < 2e-3);
}

#[test]
fn exact_sparse_optimizer_reproducible_under_shuffled_arrival() {
    // the sorted-merge of §4.1.2: the same multiset of (row, grad) pairs,
    // presented in different orders, must produce identical tables when the
    // duplicate rows carry identical gradients (GPU-atomics would not)
    use neo_dlrm::embeddings::{bag::SparseGrad, DenseStore, RowStore};

    let pairs: Vec<(u64, f32)> = vec![(5, 0.1), (2, 0.2), (5, 0.1), (9, 0.05), (2, 0.2), (5, 0.1)];
    let run = |order: &[usize]| {
        let mut store = DenseStore::zeros(16, 2);
        let mut opt = SparseAdagrad::new(0.1, 1e-8, 16, 2);
        let indices: Vec<u64> = order.iter().map(|&k| pairs[k].0).collect();
        let grads = Tensor2::from_fn(order.len(), 2, |i, _| pairs[order[i]].1);
        opt.step(&mut store, &SparseGrad::dense(indices, grads));
        store.to_dense()
    };
    let forward = run(&[0, 1, 2, 3, 4, 5]);
    let shuffled = run(&[5, 3, 1, 4, 0, 2]);
    assert_eq!(
        forward, shuffled,
        "merge-sorted updates are order-independent"
    );
}

#[test]
fn checkpoint_roundtrip_through_training() {
    let ds = dataset();
    let mut m = reference_model(&model_cfg(), 9).unwrap();
    let mut opts: Vec<SparseAdagrad> = (0..3)
        .map(|_| SparseAdagrad::new(0.05, 1e-8, 128, 8))
        .collect();
    for k in 0..5 {
        let b = ds.batch(16, k);
        let logits = m.forward(&b).unwrap();
        let (_, g) = bce_with_logits(&logits, &b.labels).unwrap();
        let sparse = m.backward(&g).unwrap();
        m.dense_sgd_step(0.05);
        for (opt, (table, sg)) in opts.iter_mut().zip(m.tables.iter_mut().zip(&sparse)) {
            opt.step(table.as_mut(), sg);
        }
    }
    let probe = ds.batch(16, 777);
    let want = m.forward_inference(&probe).unwrap();
    let bytes = checkpoint::save(&mut m);

    let mut restored = reference_model(&model_cfg(), 1234).unwrap();
    checkpoint::load(&mut restored, &bytes).unwrap();
    assert_eq!(restored.forward_inference(&probe).unwrap(), want);
}

#[test]
fn synthetic_batches_identical_across_processes() {
    // the data side of determinism: batch k is a pure function of config
    let a = dataset().batch(64, 3);
    let b = dataset().batch(64, 3);
    assert_eq!(a, b);
    assert_eq!(a.indices(), b.indices());
}
