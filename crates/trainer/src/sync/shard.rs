//! Per-rank state: the shards a worker holds — one type whatever scheme
//! cut them — and how a worker is built from the plan's shard list.

use std::sync::Arc;

use neo_collectives::Communicator;
use neo_embeddings::bag::pooled_forward;
use neo_embeddings::store::{DenseStore, HalfStore, RowStore};
use neo_embeddings::{
    fused_update, RowWiseAdagrad, SparseAdagrad, SparseOptimizer, SparseSgd, SweepScratch,
};
use neo_sharding::cost::ShardDivision;
use neo_sharding::Shard;
use neo_telemetry::{Metric, RankRecorder, SpanGuard};
use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::Tensor2;
use neo_workload::{ShardCollector, ShardKind, ShardSample};
use rand::SeedableRng;

use super::config::{err, DenseOpt, SparseOpt, SyncConfig, SyncError};
use super::forward::PendingInput;
use crate::init::det_fill;

/// Whether a shard's pooled outputs and gradients travel in the pooled /
/// gradient AlltoAlls (table- and column-wise shards). Row blocks use
/// ReduceScatter / AllGather; replicas pool locally and AllGather their
/// gradients like a row block.
pub(super) fn rides_a2a(s: &Shard) -> bool {
    matches!(
        s.division,
        Some(ShardDivision::Whole | ShardDivision::Column)
    )
}

/// A shard resident on this rank: its rectangle of the table, the
/// parameters and optimizer state for it, and the inputs it serves.
pub(super) struct LocalShard {
    pub(super) geo: Shard,
    pub(super) store: Box<dyn RowStore>,
    pub(super) opt: Box<dyn SparseOptimizer>,
    /// The inputs served in the current iteration: the global batch's
    /// (bucketized to local rows for a row block) as received from the
    /// index AlltoAll. A replica holds the local sub-batch's for its
    /// lookup, then the global batch's for its update.
    pub(super) lengths: Vec<u32>,
    pub(super) indices: Vec<u64>,
    /// `None` when [`SyncConfig::workload`] is off, so the lookup pays one
    /// branch — no clocks, no allocation, no locking either way.
    collector: Option<ShardCollector>,
}

impl LocalShard {
    /// The store of rectangle `geo`, filled with its position-deterministic
    /// initial values, with a fresh optimizer (and collector, when
    /// profiling).
    fn new(cfg: &SyncConfig, geo: Shard) -> Self {
        let table_rows = cfg.model.tables[geo.table].num_rows;
        // an empty trailing row block still gets a one-row store, of zeros
        let (rows, width) = (geo.rows.max(1), geo.width);
        let fill = |r: u64, block: &mut [f32]| {
            if geo.rows == 0 {
                block.fill(0.0);
            } else {
                det_fill(
                    cfg.seed,
                    geo.table,
                    table_rows,
                    geo.row_off + r,
                    geo.col_off,
                    width,
                    block,
                );
            }
        };
        let store: Box<dyn RowStore> = if cfg.fp16_embeddings {
            Box::new(HalfStore::from_rows(rows, width, fill))
        } else {
            Box::new(DenseStore::from_rows(rows, width, fill))
        };
        let opt: Box<dyn SparseOptimizer> = match cfg.optimizer {
            SparseOpt::Sgd => Box::new(SparseSgd::new(cfg.lr)),
            SparseOpt::Adagrad => Box::new(SparseAdagrad::new(cfg.lr, 1e-8, rows, width)),
            SparseOpt::RowWiseAdagrad => Box::new(RowWiseAdagrad::new(cfg.lr, 1e-8, rows)),
        };
        let kind = match geo.division {
            Some(ShardDivision::Whole) => ShardKind::Table,
            Some(ShardDivision::Row) => ShardKind::Row,
            Some(ShardDivision::Column) => ShardKind::Col,
            None => ShardKind::Dp,
        };
        let collector = cfg.workload.then(|| {
            ShardCollector::new(
                geo.worker,
                geo.table,
                geo.ordinal,
                kind,
                width,
                geo.row_off,
                geo.rows,
            )
        });
        Self {
            geo,
            store,
            opt,
            lengths: Vec::new(),
            indices: Vec::new(),
            collector,
        }
    }

    /// Files `(lengths, indices)` after the inputs already held.
    pub(super) fn push_inputs(&mut self, lengths: &[u32], indices: &[u64]) {
        self.lengths.extend_from_slice(lengths);
        self.indices.extend_from_slice(indices);
    }

    /// The fused pooled lookup over the inputs held. `sp` is the caller's
    /// open `EMB_LOOKUP` span: rows are counted only while it records, so
    /// eval and probe forwards stay silent.
    pub(super) fn lookup(
        &mut self,
        rec: &RankRecorder,
        sp: &SpanGuard,
    ) -> Result<Tensor2, SyncError> {
        let pooled = pooled_forward(self.store.as_mut(), &self.lengths, &self.indices)
            .map_err(|e| err(e.to_string()))?;
        if let Some(c) = &mut self.collector {
            // a row block's local indices index its own counts
            c.record(&self.lengths, &self.indices);
        }
        if sp.is_recording() {
            rec.sink()
                .counter_add(Metric::EmbLookupRows, self.indices.len() as u64);
        }
        Ok(pooled)
    }

    /// The fused backward + exact update (§4.1.1, §4.1.2) over the inputs
    /// held — every scheme's one way into the store, counted in unique
    /// rows. `grad_of_bag(b)` is the gradient of pooled
    /// output `b` of the `bags` that `lookup` produced, read where the
    /// exchange left it; rows go from it straight to the updated store row.
    pub(super) fn update<'g>(
        &mut self,
        bags: usize,
        grad_of_bag: impl Fn(usize) -> Option<&'g [f32]>,
        sweep: &mut SweepScratch,
        rec: &RankRecorder,
    ) -> Result<(), SyncError> {
        if self.lengths.len() != bags {
            return Err(err(format!(
                "{bags} bag gradients for {} bags held by table {}",
                self.lengths.len(),
                self.geo.table
            )));
        }
        let rows = fused_update(
            self.opt.as_mut(),
            self.store.as_mut(),
            &self.lengths,
            &self.indices,
            grad_of_bag,
            sweep,
        )
        .map_err(|e| err(e.to_string()))?;
        rec.sink().counter_add(Metric::EmbOptimRows, rows as u64);
        Ok(())
    }
}

pub(super) struct Worker {
    pub(super) rank: usize,
    pub(super) world: usize,
    pub(super) cfg: Arc<SyncConfig>,
    pub(super) comm: Communicator,
    pub(super) bottom: Mlp,
    pub(super) top: Mlp,
    /// Every shard resident on this rank, in the plan's `(table, ordinal)`
    /// order; its table-/column-wise subsequence is `manifests[rank]`, so
    /// it is in wire order by construction.
    pub(super) shards: Vec<LocalShard>,
    /// Row-wise table ids in deterministic order (every rank iterates the
    /// same list so the ReduceScatter sequences line up, also for a table
    /// it holds no block of).
    pub(super) row_tables: Vec<usize>,
    /// `manifests[r]`: the table-/column-wise shards owner `r` serves. Both
    /// sides of the pooled and gradient AlltoAlls derive their layout from
    /// these.
    pub(super) manifests: Vec<Vec<Shard>>,
    /// The training iteration in progress (labels posted collectives'
    /// in-flight spans).
    pub(super) iter: u64,
    pub(super) scratch_grads: Vec<f32>,
    /// The sort and accumulator buffers every shard's sparse update
    /// reuses, sized on first use.
    pub(super) sweep: SweepScratch,
    /// Features cached between `forward(train=true)` and `backward_update`.
    pub(super) cached_features: Option<Vec<Tensor2>>,
    /// The next batch's started index AlltoAll, when the driver prefetched
    /// one (the double-buffer slot).
    pub(super) pending_input: Option<PendingInput>,
    pub(super) bottom_opt: Box<dyn neo_tensor::optim::DenseOptimizer>,
    pub(super) top_opt: Box<dyn neo_tensor::optim::DenseOptimizer>,
    /// Per-rank span recorder. Only records while an iteration is open, so
    /// evaluation and probe forwards stay silent.
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

impl Worker {
    /// Builds rank `comm.rank()`'s worker; `plan_shards` is the plan's
    /// [`shards`](neo_sharding::ShardingPlan::shards) list, enumerated once
    /// by the driver.
    pub(super) fn new(cfg: Arc<SyncConfig>, mut comm: Communicator, plan_shards: &[Shard]) -> Self {
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

        let held_by = |owner: usize| plan_shards.iter().filter(move |s| s.worker == owner);
        let shards = held_by(rank).map(|&s| LocalShard::new(&cfg, s)).collect();
        let manifests = (0..world)
            .map(|owner| held_by(owner).filter(|s| rides_a2a(s)).copied().collect())
            .collect();
        let row_tables = plan_shards
            .iter()
            .filter(|s| s.division == Some(ShardDivision::Row) && s.ordinal == 0)
            .map(|s| s.table)
            .collect();

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
            row_tables,
            manifests,
            iter: 0,
            scratch_grads: Vec::new(),
            sweep: SweepScratch::default(),
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
        let harvest = |sh: &mut LocalShard| {
            let collector = sh.collector.take()?;
            Some(collector.finish(sh.store.param_bytes()))
        };
        self.shards.iter_mut().filter_map(harvest).collect()
    }
}
