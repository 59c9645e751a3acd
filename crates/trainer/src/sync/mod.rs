//! The synchronous hybrid-parallel trainer (§3, Fig. 4).
//!
//! Each simulated GPU is a worker thread holding:
//!
//! * a full replica of the bottom/top MLPs (data parallelism),
//! * one list of the embedding shards resident on its rank — the entries
//!   of [`ShardingPlan::shards`](neo_sharding::ShardingPlan::shards) whose
//!   worker it is, whatever scheme cut them (replicas of data-parallel
//!   tables included). Every shard is looked up by one operation and
//!   updated by one other — the fused sort-and-accumulate update over the
//!   inputs it holds; the schemes differ only in the collective that
//!   moves a shard's outputs and gradients (steps 2, 4 and 6 below),
//! * a [`Communicator`](neo_collectives::Communicator) into the group.
//!
//! # One schedule, movable waits (§4.3, Fig. 9)
//!
//! The paper's pipelining is one dependency graph whose AlltoAll /
//! AllReduce *waits* are placed differently, so the iteration is written
//! once, in the overlapped order:
//!
//! 1. wait this batch's index AlltoAll (table-wise inputs go to the
//!    owner, column-wise inputs are replicated to each column shard,
//!    row-wise inputs are bucketized — one exchange of `IndexMsg`s, the
//!    lengths+indices format of §4.4);
//! 2. owners run the fused pooled lookup over the *global* batch for
//!    their local shards and **start** the (quantizable) pooled AlltoAll;
//! 3. bottom MLP on the local sub-batch; **wait** the pooled AlltoAll;
//! 4. row-wise partials via ReduceScatter (Fig. 8), data-parallel lookups;
//! 5. **start** the next batch's index AlltoAll (when the driver
//!    prefetched one), then dot interaction + top MLP + BCE loss;
//! 6. backward mirrors forward: grad AlltoAll (quantizable) back to
//!    owners, AllGather for row-wise and data-parallel tables; owners
//!    and every replica apply *exact* sparse updates over the global
//!    batch;
//! 7. MLP gradients AllReduce, then the dense optimizer on every replica.
//!
//! Each started collective is a private `Pending`: either already
//! finished or posted and still in flight, redeemed with `.wait()`. The
//! serial schedule is the same code with every start completing at once.
//! [`SyncConfig::overlap`] is read in exactly three places:
//!
//! * **whether a started collective is posted** — iff `overlap` and the
//!   forward is a training one (eval and probe forwards complete theirs
//!   at once, silent in telemetry);
//! * **gradient bucketing** — overlap posts one AllReduce bucket per MLP
//!   the moment its backward finishes (`allreduce_top`, `allreduce_bot`),
//!   so both ride behind the sparse paths; serial reduces one
//!   `[bottom|top]` bucket afterwards (`allreduce`);
//! * **the driver's `make(i + 1)` prefetch**, which is what gives step 5
//!   a next batch to start.
//!
//! A posted collective and a blocking one are the same post and wait on
//! the communicator's ring, on this thread; overlap only moves the wait.
//! Serial keeps its single AllReduce because a second rendezvous per step
//! is pure cost when nothing sits between post and wait.
//!
//! Every reordered pairing is between operations with no data dependency
//! and reductions keep their rank-order, element-wise accumulation, so
//! the two schedules are **bitwise identical** — only the wall-clock
//! placement of communication changes.
//!
//! Both sides of every exchange derive the wire manifest from the shared
//! plan's shard list, so no shape metadata is exchanged at runtime.

mod backward;
mod config;
mod driver;
mod forward;
mod gather;
mod shard;

pub use config::{DenseOpt, SparseOpt, SyncConfig, SyncError, TrainOutput};
pub use driver::SyncTrainer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::reference_model;
    use neo_collectives::{CommDelay, QuantMode};
    use neo_dataio::{CombinedBatch, SyntheticConfig, SyntheticDataset};
    use neo_dlrm_model::{bce_with_logits, DlrmConfig};
    use neo_embeddings::{SparseOptimizer, SparseSgd};
    use neo_monitor::MonitorConfig;
    use neo_sharding::{Scheme, ShardingPlan, TablePlacement};
    use neo_telemetry::{Metric, Phase};
    use neo_tensor::Tensor2;
    use neo_workload::{ShardKind, WorkloadReport};

    /// A hand-built plan exercising all four schemes on a 4-table model.
    fn mixed_plan(world: usize) -> ShardingPlan {
        ShardingPlan {
            world,
            placements: vec![
                TablePlacement {
                    table: 0,
                    scheme: Scheme::TableWise { worker: 1 % world },
                },
                TablePlacement {
                    table: 1,
                    scheme: Scheme::RowWise {
                        workers: (0..world).collect(),
                    },
                },
                TablePlacement {
                    table: 2,
                    scheme: Scheme::ColumnWise {
                        workers: vec![0, 2 % world],
                        split_dims: vec![4, 4],
                    },
                },
                TablePlacement {
                    table: 3,
                    scheme: Scheme::DataParallel,
                },
            ],
        }
    }

    fn model_cfg() -> DlrmConfig {
        DlrmConfig::tiny(4, 64, 8)
    }

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(4, 64, 3, 4)).unwrap()
    }

    fn batches(n: u64, b: usize) -> Vec<CombinedBatch> {
        let ds = dataset();
        (0..n).map(|k| ds.batch(b, k)).collect()
    }

    #[test]
    fn telemetry_disabled_yields_no_summary() {
        let cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        let out = SyncTrainer::new(cfg)
            .train(&batches(2, 16), &[], 0, None)
            .unwrap();
        assert!(out.telemetry_summary.is_none());
        // Display still produces a sane one-liner without telemetry.
        let line = out.to_string();
        assert!(line.starts_with("2 iters, final loss"), "{line}");
    }

    #[test]
    fn monitor_clean_run_arms_telemetry_and_raises_nothing() {
        let mut cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        cfg.monitor = Some(MonitorConfig {
            interval_ms: 1,
            ..MonitorConfig::in_memory()
        });
        let trainer = SyncTrainer::new(cfg);
        // new() armed the disabled sink so the monitor can see heartbeats
        assert!(trainer.config().telemetry.enabled());
        let out = trainer.train(&batches(3, 16), &[], 0, None).unwrap();
        assert!(out.health_events.is_empty(), "{:?}", out.health_events);
        assert!(out.telemetry_summary.is_some());
        assert!(!out.to_string().contains("health alert"));
    }

    #[test]
    fn workload_report_covers_every_scheme_and_conserves_counts() {
        let mut cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        cfg.workload = true;
        let iters = 3u64;
        let out = SyncTrainer::new(cfg)
            .train(&batches(iters, 16), &[], 0, None)
            .unwrap();
        let r = out.workload.expect("workload was requested");
        assert!(r.to_json().contains("\"schema\": \"neo-workload/2\""));
        assert_eq!(r.world, 2);
        assert_eq!(r.iters, iters);
        assert_eq!(r.global_batch, 16);
        assert_eq!(r.tables.len(), 4);
        assert!(r.comm_bytes > 0, "comm counters feed the artifact");
        for kind in [
            ShardKind::Table,
            ShardKind::Row,
            ShardKind::Col,
            ShardKind::Dp,
        ] {
            assert!(
                r.shards.iter().any(|s| s.kind == kind),
                "mixed plan must surface a {kind:?} shard"
            );
        }
        for t in &r.tables {
            assert!(t.lookups > 0, "table {} saw no traffic", t.table);
            assert_eq!(t.pooling.sum, t.lookups, "pooling mass == lookups");
            assert_eq!(t.pooling.total, t.bags);
            assert!(t.unique_rows >= 1 && t.unique_rows <= t.lookups.min(t.rows));
            let hits: u64 = t.top_rows.iter().map(|&(_, h)| h).sum();
            assert!(hits <= t.lookups);
            assert!(!t.top_rows.is_empty());
            assert!(t.param_bytes > 0);
        }
        // column slices see the identical replicated stream; the table
        // counts it once
        let col: Vec<_> = r
            .shards
            .iter()
            .filter(|s| s.kind == ShardKind::Col)
            .collect();
        assert_eq!(col.len(), 2);
        assert_eq!(col[0].lookups, col[1].lookups);
        assert_eq!(r.tables[2].lookups, col[0].lookups);
        // row shards partition the stream; data-parallel replicas each
        // serve their local sub-batch
        let row_sum: u64 = r
            .shards
            .iter()
            .filter(|s| s.kind == ShardKind::Row)
            .map(|s| s.lookups)
            .sum();
        assert_eq!(r.tables[1].lookups, row_sum);
        let dp_sum: u64 = r
            .shards
            .iter()
            .filter(|s| s.kind == ShardKind::Dp)
            .map(|s| s.lookups)
            .sum();
        assert_eq!(r.tables[3].lookups, dp_sum);
        // the artifact round-trips
        let parsed = WorkloadReport::parse(&r.to_json()).expect("artifact parses");
        assert_eq!(parsed, r);
        assert_eq!(r.imbalance().per_rank_lookups.len(), 2);

        // and off by default: no report, training output identical
        let off = SyncTrainer::new(SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16))
            .train(&batches(iters, 16), &[], 0, None)
            .unwrap();
        assert!(off.workload.is_none());
        assert_eq!(
            off.losses, out.losses,
            "collectors must not perturb training"
        );
    }

    #[test]
    fn telemetry_records_expected_phases_and_gauges() {
        let mut cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        let sink = neo_telemetry::TelemetrySink::armed();
        cfg.telemetry = sink.clone();
        let iters = 3u64;
        let out = SyncTrainer::new(cfg)
            .train(&batches(iters, 16), &[], 0, None)
            .unwrap();

        let snap = sink.snapshot().expect("armed sink snapshots");
        let names = snap.phases();
        // The mixed plan exercises every trainer phase.
        for want in [
            Phase::Iteration,
            Phase::FwdBottomMlp,
            Phase::InputA2a,
            Phase::EmbLookup,
            Phase::AlltoallFwd,
            Phase::ReduceScatter,
            Phase::Interaction,
            Phase::TopMlp,
            Phase::Backward,
            Phase::AlltoallBwd,
            Phase::Allgather,
            Phase::SparseOptim,
            Phase::Allreduce,
            Phase::DenseOptim,
        ] {
            assert!(names.contains(&want), "missing phase {want} in {names:?}");
        }
        // Every rank records every iteration exactly once.
        let iteration_spans = snap
            .spans
            .iter()
            .filter(|s| s.phase == Phase::Iteration)
            .count();
        assert_eq!(iteration_spans, 2 * iters as usize);
        // Rank-0 gauges: one point per iteration, loss values matching.
        let loss_series = snap
            .gauges
            .iter()
            .find(|(k, _)| *k == Metric::TrainLoss.name())
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        assert_eq!(loss_series.len(), iters as usize);
        for (k, (it, v)) in loss_series.iter().enumerate() {
            assert_eq!(*it, k as u64);
            assert!((v - f64::from(out.losses[k])).abs() < 1e-6);
        }
        // Comm counters flowed through the communicator bridge.
        assert!(
            snap.counters.iter().any(|(k, _)| k.starts_with("comm.")),
            "no comm counters in {:?}",
            snap.counters
        );
        assert!(
            snap.counters
                .iter()
                .any(|(k, v)| *k == Metric::EmbLookupRows.name() && *v > 0),
            "no embedding lookup rows recorded"
        );
        assert!(
            snap.counters
                .iter()
                .any(|(k, v)| *k == Metric::EmbOptimRows.name() && *v > 0),
            "no embedding optim rows recorded"
        );
        // Summary surfaces on TrainOutput and in its Display.
        let summary = out.telemetry_summary.as_ref().expect("summary present");
        assert_eq!(summary.world, 2);
        assert_eq!(summary.iterations, iters);
        assert!(summary.phase_ms("iteration").unwrap_or(0.0) > 0.0);
        assert!(out.to_string().contains("telemetry:"), "{out}");
        // The full snapshot rides on TrainOutput for offline analysis.
        let carried = out.telemetry.as_ref().expect("snapshot present");
        assert_eq!(carried.spans.len(), snap.spans.len());
    }

    #[test]
    fn replicas_count_optimizer_rows_after_the_merge() {
        // every replica updates over the step's *global* batch, so each
        // rank adds its distinct rows — a row touched on both ranks used
        // to count twice
        let plan = ShardingPlan {
            world: 2,
            placements: vec![TablePlacement {
                table: 0,
                scheme: Scheme::DataParallel,
            }],
        };
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(1, 24, 3, 4)).unwrap();
        let train: Vec<CombinedBatch> = (0..4).map(|k| ds.batch(16, k)).collect();
        let unique =
            |ids: &[u64]| ids.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
        let (mut distinct, mut per_rank_distinct, mut occurrences) = (0u64, 0u64, 0u64);
        for b in &train {
            distinct += unique(b.indices());
            occurrences += b.indices().len() as u64;
            for half in b.split(2).unwrap() {
                per_rank_distinct += unique(half.indices());
            }
        }
        assert!(
            distinct < per_rank_distinct && per_rank_distinct < occurrences,
            "the batches must repeat rows within and across ranks \
             ({distinct} / {per_rank_distinct} / {occurrences})"
        );

        let mut cfg = SyncConfig::exact(2, DlrmConfig::tiny(1, 24, 8), plan, 16);
        let sink = neo_telemetry::TelemetrySink::armed();
        cfg.telemetry = sink.clone();
        SyncTrainer::new(cfg).train(&train, &[], 0, None).unwrap();
        let snap = sink.snapshot().expect("armed sink snapshots");
        let rows = snap
            .counters
            .iter()
            .find(|(k, _)| *k == Metric::EmbOptimRows.name())
            .map(|(_, v)| *v);
        assert_eq!(rows, Some(2 * distinct));
    }

    #[test]
    fn replicas_train_to_the_bits_of_a_table_wise_owner() {
        // a replica updates through the same fused sweep over the same
        // global batch as a table-wise owner, so placing a table
        // data-parallel changes no bit, at any world, for every sparse
        // optimizer and store
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 96, 3, 4)).unwrap();
        let train: Vec<CombinedBatch> = (0..6).map(|k| ds.batch(48, k)).collect();
        let probe = ds.batch(48, 999);
        let logits = |world: usize, opt: SparseOpt, fp16: bool, replicate: bool| {
            let placements = (0..4)
                .map(|table| TablePlacement {
                    table,
                    scheme: if replicate && table % 2 == 1 {
                        Scheme::DataParallel
                    } else {
                        Scheme::TableWise {
                            worker: table % world,
                        }
                    },
                })
                .collect();
            let plan = ShardingPlan { world, placements };
            let mut sc = SyncConfig::exact(world, DlrmConfig::tiny(4, 96, 8), plan, 48);
            sc.optimizer = opt;
            sc.fp16_embeddings = fp16;
            SyncTrainer::new(sc)
                .train(&train, &[], 0, Some(&probe))
                .unwrap()
                .probe_logits
                .unwrap()
        };
        for world in [2, 3, 4] {
            for opt in [
                SparseOpt::Sgd,
                SparseOpt::Adagrad,
                SparseOpt::RowWiseAdagrad,
            ] {
                for fp16 in [false, true] {
                    assert!(
                        logits(world, opt, fp16, true) == logits(world, opt, fp16, false),
                        "world {world}, {opt:?}, fp16 store {fp16}: replicas diverge"
                    );
                }
            }
        }
    }

    /// Single-device reference training with the same math.
    fn train_reference(
        cfg: &DlrmConfig,
        seed: u64,
        lr: f32,
        train: &[CombinedBatch],
        probe: &CombinedBatch,
    ) -> Tensor2 {
        let mut m = reference_model(cfg, seed).unwrap();
        let mut opts: Vec<SparseSgd> = cfg.tables.iter().map(|_| SparseSgd::new(lr)).collect();
        for b in train {
            let logits = m.forward(b).unwrap();
            let (_, grad) = bce_with_logits(&logits, &b.labels).unwrap();
            let sparse = m.backward(&grad).unwrap();
            m.dense_sgd_step(lr);
            for (opt, (table, sg)) in opts.iter_mut().zip(m.tables.iter_mut().zip(&sparse)) {
                opt.step(table.as_mut(), sg);
            }
        }
        m.forward_inference(probe).unwrap()
    }

    #[test]
    fn distributed_matches_single_device_reference() {
        let cfg = model_cfg();
        let train = batches(8, 32);
        let probe = dataset().batch(32, 999);
        let reference = train_reference(&cfg, 42, 0.05, &train, &probe);

        let sc = SyncConfig::exact(4, cfg, mixed_plan(4), 32);
        let out = SyncTrainer::new(sc)
            .train(&train, &[], 0, Some(&probe))
            .unwrap();
        let got = out.probe_logits.unwrap();
        assert_eq!(got.shape(), reference.shape());
        let diff = got.max_abs_diff(&reference).unwrap();
        assert!(diff < 2e-3, "distributed vs reference logits diff {diff}");
    }

    #[test]
    fn bitwise_deterministic_across_runs() {
        let run = || {
            let sc = SyncConfig::exact(4, model_cfg(), mixed_plan(4), 32);
            SyncTrainer::new(sc)
                .train(&batches(5, 32), &[], 0, Some(&dataset().batch(32, 77)))
                .unwrap()
                .probe_logits
                .unwrap()
        };
        assert_eq!(run(), run(), "same seed + same data = bitwise identical");
    }

    #[test]
    fn worker_counts_agree() {
        let probe = dataset().batch(32, 500);
        let train = batches(6, 32);
        let logits_at = |world: usize| {
            let sc = SyncConfig::exact(world, model_cfg(), mixed_plan(world), 32);
            SyncTrainer::new(sc)
                .train(&train, &[], 0, Some(&probe))
                .unwrap()
                .probe_logits
                .unwrap()
        };
        let w1 = logits_at(1);
        let w2 = logits_at(2);
        let w4 = logits_at(4);
        assert!(w1.max_abs_diff(&w2).unwrap() < 2e-3);
        assert!(w1.max_abs_diff(&w4).unwrap() < 2e-3);
    }

    #[test]
    fn training_reduces_loss() {
        let sc = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 64);
        let out = SyncTrainer::new(sc)
            .train(&batches(40, 64), &[], 0, None)
            .unwrap();
        let head: f32 = out.losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = out.losses[35..].iter().sum::<f32>() / 5.0;
        assert!(tail < head - 0.01, "loss {head:.4} -> {tail:.4}");
    }

    #[test]
    fn ne_curve_recorded_and_improving() {
        let ds = dataset();
        let eval: Vec<_> = (1000..1004).map(|k| ds.batch(32, k)).collect();
        let sc = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 32);
        let out = SyncTrainer::new(sc)
            .train(&batches(30, 32), &eval, 10, None)
            .unwrap();
        assert_eq!(out.ne_curve.len(), 3);
        let first = out.ne_curve[0].1;
        let last = out.ne_curve[2].1;
        assert!(last < first + 0.02, "NE {first:.4} -> {last:.4}");
    }

    #[test]
    fn quantized_comms_save_bytes_and_stay_close() {
        let cfg = model_cfg();
        let train = batches(6, 32);
        let probe = dataset().batch(32, 321);

        let exact = SyncConfig::exact(4, cfg.clone(), mixed_plan(4), 32);
        let fp32 = SyncTrainer::new(exact.clone())
            .train(&train, &[], 0, Some(&probe))
            .unwrap();

        let mut quant = exact;
        quant.quant_fwd = QuantMode::Fp16;
        quant.quant_bwd = QuantMode::Bf16;
        let q = SyncTrainer::new(quant)
            .train(&train, &[], 0, Some(&probe))
            .unwrap();

        let diff = fp32
            .probe_logits
            .as_ref()
            .unwrap()
            .max_abs_diff(q.probe_logits.as_ref().unwrap())
            .unwrap();
        assert!(diff < 0.05, "quantized training close to fp32: {diff}");
        let b32: u64 = fp32.comm.iter().map(|s| s.bytes_sent).sum();
        let b16: u64 = q.comm.iter().map(|s| s.bytes_sent).sum();
        assert!(b16 < b32, "quantization reduces wire bytes: {b16} vs {b32}");
    }

    #[test]
    fn fp16_embeddings_still_learn() {
        let mut sc = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 64);
        sc.fp16_embeddings = true;
        let out = SyncTrainer::new(sc)
            .train(&batches(40, 64), &[], 0, None)
            .unwrap();
        let head: f32 = out.losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = out.losses[35..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "fp16 tables: loss {head:.4} -> {tail:.4}");
    }

    #[test]
    fn rowwise_adagrad_optimizer_runs() {
        let mut sc = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 32);
        sc.optimizer = SparseOpt::RowWiseAdagrad;
        sc.lr = 0.1;
        let out = SyncTrainer::new(sc)
            .train(&batches(20, 32), &[], 0, None)
            .unwrap();
        assert!(out.losses.last().unwrap() < out.losses.first().unwrap());
    }

    #[test]
    fn config_errors_detected() {
        // batch not divisible by world
        let sc = SyncConfig::exact(3, model_cfg(), mixed_plan(3), 32);
        assert!(SyncTrainer::new(sc)
            .train(&batches(1, 32), &[], 0, None)
            .is_err());
        // wrong batch size
        let sc = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 32);
        assert!(SyncTrainer::new(sc)
            .train(&batches(1, 64), &[], 0, None)
            .is_err());
        // zero world
        let sc = SyncConfig::exact(0, model_cfg(), mixed_plan(1), 32);
        assert!(SyncTrainer::new(sc).train(&[], &[], 0, None).is_err());
    }

    #[test]
    fn plans_the_shard_list_cannot_serve_are_errors() {
        let fails = |world: usize, plan: ShardingPlan| {
            let sc = SyncConfig::exact(world, model_cfg(), plan, 16);
            match SyncTrainer::new(sc).train(&batches(1, 16), &[], 0, None) {
                Ok(_) => panic!("trained on an invalid plan"),
                Err(e) => e.to_string(),
            }
        };
        // a rank serves one row block per table: a worker listed twice
        // used to train to wrong logits with only its first block served
        let mut twice = mixed_plan(2);
        twice.placements[1].scheme = Scheme::RowWise {
            workers: vec![0, 0],
        };
        assert!(fails(2, twice).contains("listed twice"));
        // replicas are enumerated per plan worker, so the worlds must agree
        assert!(fails(4, mixed_plan(2)).contains("plan is for 2 workers"));
    }

    #[test]
    fn overlapped_schedule_bitwise_matches_serial() {
        let run = |overlap: bool| {
            let mut sc = SyncConfig::exact(4, model_cfg(), mixed_plan(4), 32);
            sc.overlap = overlap;
            sc.gather_final_model = true;
            SyncTrainer::new(sc)
                .train(&batches(5, 32), &[], 0, Some(&dataset().batch(32, 77)))
                .unwrap()
        };
        let serial = run(false);
        let over = run(true);
        assert_eq!(serial.losses, over.losses, "loss trajectories diverge");
        assert_eq!(serial.probe_logits, over.probe_logits);
        let probe = dataset().batch(32, 77);
        let a = serial
            .final_model
            .unwrap()
            .forward_inference(&probe)
            .unwrap();
        let b = over.final_model.unwrap().forward_inference(&probe).unwrap();
        assert_eq!(a, b, "gathered models diverge");
    }

    #[test]
    fn overlapped_schedule_with_delay_still_bitwise_matches() {
        // injected wire latency moves wall-clock placement only
        let run = |overlap: bool| {
            let mut sc = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
            sc.overlap = overlap;
            sc.comm_delay = overlap.then(|| CommDelay::new(64e9, 5e-6));
            SyncTrainer::new(sc)
                .train(&batches(3, 16), &[], 0, Some(&dataset().batch(16, 55)))
                .unwrap()
        };
        let serial = run(false);
        let over = run(true);
        assert_eq!(serial.losses, over.losses);
        assert_eq!(serial.probe_logits, over.probe_logits);
    }

    #[test]
    fn overlapped_telemetry_tracks_posted_collectives_in_flight() {
        let mut cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        cfg.overlap = true;
        let sink = neo_telemetry::TelemetrySink::armed();
        cfg.telemetry = sink.clone();
        let out = SyncTrainer::new(cfg)
            .train(&batches(3, 16), &[], 0, None)
            .unwrap();
        assert_eq!(out.losses.len(), 3);
        let snap = sink.snapshot().expect("armed sink snapshots");
        let names = snap.phases();
        for want in [
            Phase::AllreduceTop,
            Phase::AllreduceBot,
            Phase::InputA2a,
            Phase::AlltoallFwd,
        ] {
            assert!(names.contains(&want), "missing phase {want} in {names:?}");
        }
        // the loss rides in the top bucket: no blocking combined AllReduce
        assert!(
            !names.contains(&Phase::Allreduce),
            "overlap ran a blocking AllReduce: {names:?}"
        );
        // posted collectives record their in-flight spans, post to wait,
        // on the comm lane
        for posted in [Phase::AllreduceTop, Phase::AllreduceBot, Phase::InputA2a] {
            assert!(
                snap.spans
                    .iter()
                    .filter(|s| s.phase == posted)
                    .all(|s| s.lane == neo_collectives::COMM_LANE),
                "{posted} spans not on the comm lane"
            );
        }
        // waits are LIFO, so one rank's in-flight spans nest or are
        // disjoint, never cross
        let in_flight: Vec<_> = snap.spans.iter().filter(|s| s.lane > 0).collect();
        for a in &in_flight {
            for b in in_flight.iter().filter(|b| b.rank == a.rank) {
                let crosses =
                    a.start_ns < b.start_ns && b.start_ns < a.end_ns && a.end_ns < b.end_ns;
                assert!(!crosses, "in-flight spans cross: {a:?} / {b:?}");
            }
        }
        // every wait on a posted op records posted-to-wait latency
        assert!(
            snap.histograms
                .iter()
                .any(|(k, h)| *k == Metric::CommWaitNs("all_reduce").name() && h.total() > 0),
            "no comm.all_reduce.wait_ns observations in {:?}",
            snap.histograms.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }

    #[test]
    fn comm_stats_populated_per_rank() {
        let sc = SyncConfig::exact(4, model_cfg(), mixed_plan(4), 32);
        let out = SyncTrainer::new(sc)
            .train(&batches(2, 32), &[], 0, None)
            .unwrap();
        assert_eq!(out.comm.len(), 4);
        assert!(out.comm.iter().all(|s| s.ops > 0 && s.bytes_sent > 0));
    }
}
