//! Per-rank state: the wire manifest, the embedding shards, and how a
//! worker is built from the plan.

use std::sync::Arc;

use neo_collectives::Communicator;
use neo_dlrm_model::DlrmConfig;
use neo_embeddings::store::{DenseStore, HalfStore, RowStore};
use neo_embeddings::{RowWiseAdagrad, SparseAdagrad, SparseOptimizer, SparseSgd};
use neo_sharding::{Scheme, ShardingPlan};
use neo_telemetry::RankRecorder;
use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::Tensor2;
use neo_workload::{ShardCollector, ShardKind, ShardSample, TierSample};
use rand::SeedableRng;

use super::config::{DenseOpt, SparseOpt, SyncConfig};
use super::forward::PendingInput;
use crate::init::det_row_slice;

/// One wire chunk in the pooled/grad AlltoAll manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ChunkDesc {
    pub(super) table: usize,
    pub(super) shard: usize,
    pub(super) col_off: usize,
    pub(super) width: usize,
}

/// The chunks owner `rank` serves, in deterministic (table, shard) order.
fn owner_manifest(plan: &ShardingPlan, model: &DlrmConfig, rank: usize) -> Vec<ChunkDesc> {
    let mut out = Vec::new();
    for p in &plan.placements {
        match &p.scheme {
            Scheme::TableWise { worker } if *worker == rank => {
                out.push(ChunkDesc {
                    table: p.table,
                    shard: 0,
                    col_off: 0,
                    width: model.tables[p.table].dim,
                });
            }
            Scheme::ColumnWise {
                workers,
                split_dims,
            } => {
                let mut off = 0;
                for (k, (&w, &d)) in workers.iter().zip(split_dims).enumerate() {
                    if w == rank {
                        out.push(ChunkDesc {
                            table: p.table,
                            shard: k,
                            col_off: off,
                            width: d,
                        });
                    }
                    off += d;
                }
            }
            _ => {}
        }
    }
    out
}

/// A local model-parallel shard with its optimizer.
pub(super) struct ShardState {
    pub(super) desc: ChunkDesc,
    pub(super) store: Box<dyn RowStore>,
    pub(super) opt: Box<dyn SparseOptimizer>,
    /// The global-batch inputs this shard served in the current iteration.
    pub(super) lengths: Vec<u32>,
    pub(super) indices: Vec<u64>,
}

/// A row-wise shard (handled separately: ReduceScatter, bucketized inputs).
pub(super) struct RowShardState {
    pub(super) table: usize,
    /// Ordinal of this row block among the table's row-wise workers.
    pub(super) shard: usize,
    pub(super) row_off: u64,
    pub(super) store: Box<dyn RowStore>,
    pub(super) opt: Box<dyn SparseOptimizer>,
    pub(super) lengths: Vec<u32>,
    pub(super) indices: Vec<u64>,
}

/// A data-parallel replica.
pub(super) struct DpState {
    pub(super) table: usize,
    pub(super) store: Box<dyn RowStore>,
    pub(super) opt: Box<dyn SparseOptimizer>,
}

pub(super) struct Worker {
    pub(super) rank: usize,
    pub(super) world: usize,
    pub(super) cfg: Arc<SyncConfig>,
    pub(super) comm: Communicator,
    pub(super) bottom: Mlp,
    pub(super) top: Mlp,
    pub(super) shards: Vec<ShardState>,
    pub(super) row_shards: Vec<RowShardState>,
    pub(super) dp: Vec<DpState>,
    /// Workload collectors, index-parallel to `shards` / `row_shards` /
    /// `dp`. Empty when [`SyncConfig::workload`] is off, so the hot-path
    /// guard (`get_mut(i)`) degenerates to a bounds check — no clocks,
    /// no allocation, no locking either way.
    pub(super) wl_shards: Vec<ShardCollector>,
    pub(super) wl_rows: Vec<ShardCollector>,
    pub(super) wl_dp: Vec<ShardCollector>,
    /// Row-wise table ids in deterministic order (every rank iterates the
    /// same list so the ReduceScatter/AllGather sequences line up).
    pub(super) row_tables: Vec<usize>,
    /// Data-parallel table ids in deterministic order.
    pub(super) dp_tables: Vec<usize>,
    /// `manifests[r]`: the wire chunks owner `r` serves. Both sides of the
    /// pooled and gradient AlltoAlls derive their layout from these.
    pub(super) manifests: Vec<Vec<ChunkDesc>>,
    /// The training iteration in progress (labels comm-lane spans).
    pub(super) iter: u64,
    pub(super) scratch_grads: Vec<f32>,
    /// Features cached between `forward(train=true)` and `backward_update`.
    pub(super) cached_features: Option<Vec<Tensor2>>,
    /// The next batch's started index AlltoAll, when the driver prefetched
    /// one (the double-buffer slot).
    pub(super) pending_input: Option<PendingInput>,
    pub(super) bottom_opt: Box<dyn neo_tensor::optim::DenseOptimizer>,
    pub(super) top_opt: Box<dyn neo_tensor::optim::DenseOptimizer>,
    /// Per-rank span recorder. Only records between `begin_iteration` /
    /// `end_iteration`, so evaluation and probe forwards stay silent.
    pub(super) rec: RankRecorder,
}

fn make_dense_opt(
    cfg: &SyncConfig,
    num_params: usize,
) -> Box<dyn neo_tensor::optim::DenseOptimizer> {
    use neo_tensor::optim::{DenseAdagrad, DenseAdam, DenseLamb, DenseSgd};
    match cfg.dense_optimizer {
        DenseOpt::Sgd => Box::new(DenseSgd::new(cfg.lr)),
        DenseOpt::Adagrad => Box::new(DenseAdagrad::new(cfg.lr, 1e-8, num_params)),
        DenseOpt::Adam => Box::new(DenseAdam::new(cfg.lr, 1e-8, num_params)),
        DenseOpt::Lamb => Box::new(DenseLamb::new(cfg.lr, 1e-8, 0.0, num_params)),
    }
}

fn make_store(cfg: &SyncConfig, rows: u64, width: usize) -> Box<dyn RowStore> {
    if cfg.fp16_embeddings {
        Box::new(HalfStore::zeros(rows, width))
    } else {
        Box::new(DenseStore::zeros(rows, width))
    }
}

fn make_opt(cfg: &SyncConfig, rows: u64, width: usize) -> Box<dyn SparseOptimizer> {
    match cfg.optimizer {
        SparseOpt::Sgd => Box::new(SparseSgd::new(cfg.lr)),
        SparseOpt::Adagrad => Box::new(SparseAdagrad::new(cfg.lr, 1e-8, rows, width)),
        SparseOpt::RowWiseAdagrad => Box::new(RowWiseAdagrad::new(cfg.lr, 1e-8, rows)),
    }
}

/// The store of a shard holding rows `[row_off, row_off + rows)` × columns
/// `[col_off, col_off + width)` of table `t`, filled with their
/// position-deterministic initial values, and the shard's optimizer.
fn init_shard(
    cfg: &SyncConfig,
    t: usize,
    row_off: u64,
    rows: u64,
    col_off: usize,
    width: usize,
) -> (Box<dyn RowStore>, Box<dyn SparseOptimizer>) {
    let num_rows = cfg.model.tables[t].num_rows;
    // an empty trailing row block still gets a one-row store
    let mut store = make_store(cfg, rows.max(1), width);
    for r in 0..rows {
        let row = det_row_slice(cfg.seed, t, row_off + r, col_off, width, num_rows);
        store.write_row(r, &row);
    }
    (store, make_opt(cfg, rows.max(1), width))
}

impl Worker {
    pub(super) fn new(cfg: Arc<SyncConfig>, mut comm: Communicator) -> Self {
        comm.set_telemetry(cfg.telemetry.clone());
        comm.set_comm_delay(cfg.comm_delay);
        let rank = comm.rank();
        let world = comm.world();
        let rec = cfg.telemetry.rank(rank as u32);
        let model = &cfg.model;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let bottom = Mlp::new(
            &MlpConfig::new(model.dense_dim, &model.bottom_mlp, Activation::Relu),
            &mut rng,
        );
        let top = Mlp::new(
            &MlpConfig::new(model.top_input_dim(), &model.top_mlp, Activation::Relu)
                .with_final_activation(Activation::Identity),
            &mut rng,
        );

        let manifests: Vec<Vec<ChunkDesc>> = (0..world)
            .map(|owner| owner_manifest(&cfg.plan, model, owner))
            .collect();
        // a collector for one shard of table `t`, when profiling is on
        let collector = |t: usize, shard, kind, width, base_row, counting| {
            let rows = model.tables[t].num_rows;
            cfg.workload
                .then(|| ShardCollector::new(rank, t, shard, kind, width, base_row, rows, counting))
        };

        // table-/column-wise shards are built from this rank's manifest, so
        // `shards` is in wire order by construction
        let mut shards = Vec::new();
        let mut wl_shards = Vec::new();
        for &desc in &manifests[rank] {
            let tc = &model.tables[desc.table];
            let (store, opt) =
                init_shard(&cfg, desc.table, 0, tc.num_rows, desc.col_off, desc.width);
            shards.push(ShardState {
                desc,
                store,
                opt,
                lengths: Vec::new(),
                indices: Vec::new(),
            });
            let kind = match cfg.plan.placements[desc.table].scheme {
                Scheme::ColumnWise { .. } => ShardKind::Col,
                _ => ShardKind::Table,
            };
            // column slices all see the same replicated index stream; only
            // slice 0 counts rows so the table-level merge sees it once
            wl_shards.extend(collector(
                desc.table,
                desc.shard,
                kind,
                desc.width,
                0,
                desc.shard == 0,
            ));
        }

        let mut row_shards = Vec::new();
        let mut dp = Vec::new();
        let mut row_tables = Vec::new();
        let mut dp_tables = Vec::new();
        let mut wl_rows = Vec::new();
        let mut wl_dp = Vec::new();
        for p in &cfg.plan.placements {
            let t = p.table;
            let tc = &model.tables[t];
            match &p.scheme {
                Scheme::TableWise { .. } | Scheme::ColumnWise { .. } => {}
                Scheme::RowWise { workers } => {
                    row_tables.push(t);
                    let block = tc.num_rows.div_ceil(workers.len() as u64);
                    for (k, &w) in workers.iter().enumerate() {
                        if w != rank {
                            continue;
                        }
                        let lo = block * k as u64;
                        let hi = (lo + block).min(tc.num_rows);
                        let (store, opt) =
                            init_shard(&cfg, t, lo, hi.saturating_sub(lo), 0, tc.dim);
                        row_shards.push(RowShardState {
                            table: t,
                            shard: k,
                            row_off: lo,
                            store,
                            opt,
                            lengths: Vec::new(),
                            indices: Vec::new(),
                        });
                        wl_rows.extend(collector(t, k, ShardKind::Row, tc.dim, lo, true));
                    }
                }
                Scheme::DataParallel => {
                    dp_tables.push(t);
                    let (store, opt) = init_shard(&cfg, t, 0, tc.num_rows, 0, tc.dim);
                    dp.push(DpState {
                        table: t,
                        store,
                        opt,
                    });
                    // every rank holds a full replica and serves its
                    // local sub-batch; the shard ordinal is the rank
                    wl_dp.extend(collector(t, rank, ShardKind::Dp, tc.dim, 0, true));
                }
            }
        }

        let bottom_opt = make_dense_opt(&cfg, bottom.num_params());
        let top_opt = make_dense_opt(&cfg, top.num_params());
        Self {
            rank,
            world,
            cfg,
            comm,
            bottom,
            top,
            shards,
            row_shards,
            dp,
            row_tables,
            dp_tables,
            wl_shards,
            wl_rows,
            wl_dp,
            manifests,
            iter: 0,
            scratch_grads: Vec::new(),
            cached_features: None,
            pending_input: None,
            bottom_opt,
            top_opt,
            rec,
        }
    }

    /// Consumes the workload collectors into harvested samples, attaching
    /// each shard store's memory accounting. Empty when
    /// [`SyncConfig::workload`] is off.
    pub(super) fn harvest_workload(&mut self) -> Vec<ShardSample> {
        fn tier(store: &dyn RowStore) -> Option<TierSample> {
            store.tier_info().map(|t| TierSample {
                capacity_rows: t.capacity_rows,
                resident_rows: t.resident_rows,
                cache_bytes: t.cache_bytes,
                hits: t.hits,
                misses: t.misses,
            })
        }
        // collectors are index-parallel to their stores kind by kind, so
        // the chained sequences pair up
        let collectors = std::mem::take(&mut self.wl_shards)
            .into_iter()
            .chain(std::mem::take(&mut self.wl_rows))
            .chain(std::mem::take(&mut self.wl_dp));
        let stores = (self.shards.iter().map(|s| &s.store))
            .chain(self.row_shards.iter().map(|s| &s.store))
            .chain(self.dp.iter().map(|s| &s.store));
        collectors
            .zip(stores)
            .map(|(c, store)| c.finish(store.param_bytes(), tier(store.as_ref())))
            .collect()
    }

    pub(super) fn set_lr(&mut self, lr: f32) {
        self.bottom_opt.set_lr(lr);
        self.top_opt.set_lr(lr);
        for sh in &mut self.shards {
            sh.opt.set_lr(lr);
        }
        for rs in &mut self.row_shards {
            rs.opt.set_lr(lr);
        }
        for dp in &mut self.dp {
            dp.opt.set_lr(lr);
        }
    }
}
