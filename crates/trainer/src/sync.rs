//! The synchronous hybrid-parallel trainer (§3, Fig. 4).
//!
//! Each simulated GPU is a worker thread holding:
//!
//! * a full replica of the bottom/top MLPs (data parallelism),
//! * its shards of the embedding tables per the
//!   [`ShardingPlan`](neo_sharding::ShardingPlan) (model parallelism),
//! * replicas of the data-parallel tables,
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
//!    owners, AllGather for row-wise tables, sparse-grad exchange for
//!    data-parallel tables; owners apply *exact* sparse updates;
//! 7. MLP gradients AllReduce, then the dense optimizer on every replica.
//!
//! Each started collective is a private `Pending`: either already
//! finished on this thread or in flight on the communicator's comm lane,
//! redeemed with `.wait()`. The serial schedule is the same code with
//! every start completing inline. [`SyncConfig::overlap`] is read in
//! exactly three places:
//!
//! * **where a started collective runs** — on the lane iff `overlap` and
//!   the forward is a training one (eval and probe forwards stay on the
//!   caller thread, silent in telemetry);
//! * **gradient bucketing** — overlap posts one AllReduce bucket per MLP
//!   the moment its backward finishes (`allreduce_top`, `allreduce_bot`),
//!   so both ride behind the sparse paths; serial reduces one
//!   `[bottom|top]` bucket afterwards (`allreduce`);
//! * **the driver's `make(i + 1)` prefetch**, which is what gives step 5
//!   a next batch to start.
//!
//! The serial starts do not hop through the lane thread, and serial keeps
//! its single AllReduce: on the 2-rank quickstart a lane round trip costs
//! ~88 µs against ~50 µs for the rendezvous itself, so routing the five
//! serial collectives through it would add ~0.19 ms to a 0.96 ms step,
//! and a second rendezvous another ~5%.
//!
//! Every reordered pairing is between operations with no data dependency
//! and reductions keep their rank-order, element-wise accumulation, so
//! the two schedules are **bitwise identical** — only the wall-clock
//! placement of communication changes.
//!
//! Both sides of every exchange derive the wire manifest from the shared
//! plan, so no shape metadata is exchanged at runtime.

use std::fmt;
use std::sync::Arc;

use neo_collectives::{CommDelay, CommHandle, CommStats, Communicator, ProcessGroup, QuantMode};
use neo_dataio::ops::bucketize_rows;
use neo_dataio::CombinedBatch;
use neo_dlrm_model::interaction::{dot_interaction, dot_interaction_backward, num_pairs};
use neo_dlrm_model::{bce_with_logits, DlrmConfig, NormalizedEntropy};
use neo_embeddings::bag::{fused_backward_grads, pooled_forward};
use neo_embeddings::store::{DenseStore, HalfStore, RowStore};
use neo_embeddings::{RowWiseAdagrad, SparseAdagrad, SparseGrad, SparseOptimizer, SparseSgd};
use neo_monitor::{HealthEvent, Monitor, MonitorConfig};
use neo_sharding::{Scheme, ShardingPlan};
use neo_telemetry::{metric, phase, RankRecorder, Snapshot, TelemetrySink, TelemetrySummary};
use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::Tensor2;
use neo_workload::{ShardCollector, ShardKind, ShardSample, TableMeta, TierSample, WorkloadReport};
use rand::SeedableRng;

use crate::init::det_row_slice;

/// Error type for distributed training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncError {
    msg: String,
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sync trainer error: {}", self.msg)
    }
}

impl std::error::Error for SyncError {}

impl SyncError {
    /// Creates an error from a message (crate-internal constructor).
    pub(crate) fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

pub(super) fn err(msg: impl Into<String>) -> SyncError {
    SyncError::msg(msg)
}

impl From<neo_collectives::CollectiveError> for SyncError {
    fn from(e: neo_collectives::CollectiveError) -> Self {
        SyncError::msg(e.to_string())
    }
}

/// Which exact sparse optimizer the embedding shards use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseOpt {
    /// Plain SGD (matches the dense side; used by equivalence tests).
    #[default]
    Sgd,
    /// Element-wise AdaGrad.
    Adagrad,
    /// Row-wise AdaGrad (§4.1.4).
    RowWiseAdagrad,
}

/// Which dense optimizer the replicated MLPs use (§4.1.2 names AdaGrad,
/// LAMB and Adam as the optimizers the system must support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DenseOpt {
    /// Plain SGD.
    #[default]
    Sgd,
    /// Dense AdaGrad.
    Adagrad,
    /// Adam.
    Adam,
    /// LAMB — layer-wise trust-ratio scaling, the large-batch optimizer.
    Lamb,
}

/// Per-iteration learning-rate schedule: linear warmup to the base LR,
/// then optional exponential decay — the standard production DLRM recipe
/// behind §5.3.2's "appropriately tuned optimizer/hyper-parameters".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    /// Iterations of linear warmup from ~0 to the base LR (0 = none).
    pub warmup_iters: u64,
    /// Multiplicative decay applied each post-warmup iteration (1.0 = none).
    pub decay_per_iter: f32,
}

impl Default for LrSchedule {
    fn default() -> Self {
        Self {
            warmup_iters: 0,
            decay_per_iter: 1.0,
        }
    }
}

impl LrSchedule {
    /// The LR for iteration `iter` (0-based) given a base rate.
    #[must_use]
    pub fn lr_at(&self, base: f32, iter: u64) -> f32 {
        if iter < self.warmup_iters {
            base * (iter + 1) as f32 / self.warmup_iters as f32
        } else {
            base * self.decay_per_iter.powi((iter - self.warmup_iters) as i32)
        }
    }
}

/// Trainer configuration.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Number of simulated GPUs.
    pub world: usize,
    /// Model architecture.
    pub model: DlrmConfig,
    /// Embedding placement.
    pub plan: ShardingPlan,
    /// Learning rate for both dense and sparse parameters.
    pub lr: f32,
    /// Seed for parameter initialization.
    pub seed: u64,
    /// Wire precision of the forward pooled-embedding AlltoAll (§5.3.2
    /// uses FP16).
    pub quant_fwd: QuantMode,
    /// Wire precision of the backward gradient AlltoAll (§5.3.2 uses BF16).
    pub quant_bwd: QuantMode,
    /// Global batch size (must divide by `world`).
    pub global_batch: usize,
    /// Sparse optimizer for embedding shards.
    pub optimizer: SparseOpt,
    /// Dense optimizer for the replicated MLPs.
    pub dense_optimizer: DenseOpt,
    /// Store embedding shards in FP16 (§5.3.2's memory optimization).
    pub fp16_embeddings: bool,
    /// Gather the trained model to a single [`neo_dlrm_model::DlrmModel`]
    /// after training (the publish-for-inference path).
    pub gather_final_model: bool,
    /// Learning-rate schedule applied on top of [`SyncConfig::lr`].
    pub lr_schedule: LrSchedule,
    /// Telemetry sink threaded through every rank's worker and
    /// communicator. The default ([`TelemetrySink::disabled`]) records
    /// nothing and adds no timing syscalls to the hot path; arm it with
    /// [`TelemetrySink::armed`] to capture per-iteration phase spans,
    /// comm counters, and loss/lr/throughput gauges.
    pub telemetry: TelemetrySink,
    /// Run the overlapped (Fig. 9) schedule: the index/pooled AlltoAlls
    /// and a split MLP AllReduce are posted to the communicator's comm
    /// lane so they run behind compute, and batches are double-buffered
    /// so batch `i+1`'s index exchange is in flight during batch `i`'s
    /// interaction and top MLP. Bitwise-identical to the serial schedule.
    pub overlap: bool,
    /// Optional netsim-derived wire-cost injection applied to every
    /// collective (see [`CommDelay`]). `None` — the default — adds no
    /// clock reads and no sleeps; overlap benchmarks set it so the
    /// shared-memory collectives have realistic, hideable cost.
    pub comm_delay: Option<CommDelay>,
    /// Live health monitoring for the run: when set, a sampler thread
    /// streams telemetry frames and a watchdog raises
    /// [`HealthEvent`] alerts onto [`TrainOutput::health_events`]. The
    /// monitor reads heartbeats through [`SyncConfig::telemetry`], so
    /// [`SyncTrainer::new`](super::SyncTrainer::new) arms a disabled sink automatically when this
    /// is set. `None` — the default — spawns nothing and changes nothing.
    pub monitor: Option<MonitorConfig>,
    /// Collect per-shard workload statistics (lookup counts, pooling
    /// histograms, unique-row bitsets, hot-row sketches) into
    /// [`TrainOutput::workload`]. Collectors are preallocated per owned
    /// shard and record with no clock reads, no allocation, and no
    /// locking, so training is bitwise-identical with this on or off;
    /// when `false` — the default — the workers hold no collectors and
    /// the hot path pays one bounds check per shard. Probe and eval
    /// forwards route through the same lookups and are counted too.
    pub workload: bool,
}

impl SyncConfig {
    /// A config with FP32 everywhere and SGD — the setting the
    /// reference-equivalence tests use.
    pub fn exact(world: usize, model: DlrmConfig, plan: ShardingPlan, global_batch: usize) -> Self {
        Self {
            world,
            model,
            plan,
            lr: 0.05,
            seed: 42,
            quant_fwd: QuantMode::Fp32,
            quant_bwd: QuantMode::Fp32,
            global_batch,
            optimizer: SparseOpt::Sgd,
            dense_optimizer: DenseOpt::Sgd,
            fp16_embeddings: false,
            gather_final_model: false,
            lr_schedule: LrSchedule::default(),
            telemetry: TelemetrySink::disabled(),
            overlap: false,
            comm_delay: None,
            monitor: None,
            workload: false,
        }
    }
}

/// What a training run returns.
#[derive(Debug)]
pub struct TrainOutput {
    /// Global mean loss per training iteration.
    pub losses: Vec<f32>,
    /// `(samples seen, normalized entropy)` measured on the eval stream
    /// every `eval_every` iterations plus once at the end.
    pub ne_curve: Vec<(u64, f64)>,
    /// Logits on the probe batch (rank-order concatenation), if a probe
    /// was supplied.
    pub probe_logits: Option<Tensor2>,
    /// Per-rank communication counters.
    pub comm: Vec<CommStats>,
    /// The reassembled trained model (rank 0's gather), when
    /// [`SyncConfig::gather_final_model`] is set.
    pub final_model: Option<neo_dlrm_model::DlrmModel>,
    /// Aggregate per-phase timing summary, when [`SyncConfig::telemetry`]
    /// was armed for the run.
    pub telemetry_summary: Option<TelemetrySummary>,
    /// Full metric/span snapshot for offline analysis (`neo-prof`), when
    /// [`SyncConfig::telemetry`] was armed for the run.
    pub telemetry: Option<Snapshot>,
    /// Health alerts raised by the live monitor, in firing order. Empty
    /// when [`SyncConfig::monitor`] is unset or the run was clean.
    pub health_events: Vec<HealthEvent>,
    /// Merged per-table/per-shard access statistics, when
    /// [`SyncConfig::workload`] was set for the run.
    pub workload: Option<WorkloadReport>,
}

impl fmt::Display for TrainOutput {
    /// One line: iteration count, final loss, and (when telemetry was
    /// armed) the per-iteration phase breakdown.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let last = self.losses.last().copied().unwrap_or(f32::NAN);
        write!(f, "{} iters, final loss {:.4}", self.losses.len(), last)?;
        if let Some((_, ne)) = self.ne_curve.last() {
            write!(f, ", final NE {ne:.4}")?;
        }
        if !self.health_events.is_empty() {
            write!(f, ", {} health alert(s)", self.health_events.len())?;
        }
        if let Some(summary) = &self.telemetry_summary {
            write!(f, " | {summary}")?;
        }
        Ok(())
    }
}

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

/// One table's `(lengths, indices)` inputs bound for an owner shard —
/// the §4.4 lengths+indices wire format of the index AlltoAll.
#[derive(Clone)]
struct IndexMsg {
    table: usize,
    shard: usize,
    lengths: Vec<u32>,
    indices: Vec<u64>,
}

/// A started collective: already finished on this thread (serial
/// schedule, eval and probe forwards) or in flight on the comm lane
/// (overlapped schedule). The schedule redeems both the same way.
enum Pending<R> {
    Done(R),
    InFlight(CommHandle<R>),
}

impl<R> Pending<R> {
    fn wait(self) -> Result<R, SyncError> {
        match self {
            Pending::Done(r) => Ok(r),
            Pending::InFlight(handle) => Ok(handle.wait()?),
        }
    }
}

/// A sub-batch whose index AlltoAll has been started.
pub(super) struct PendingInput {
    sub: CombinedBatch,
    recv: Pending<Vec<Arc<Vec<IndexMsg>>>>,
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

/// Posts one MLP's flattened gradients to the comm lane as its own
/// AllReduce bucket.
fn post_grad_bucket(
    comm: &mut Communicator,
    mlp: &Mlp,
    span: &'static str,
    iter: u64,
) -> CommHandle<Arc<Vec<f32>>> {
    let mut grads = Vec::new();
    mlp.grads_flat(&mut grads);
    comm.post_all_reduce_shared(Arc::new(grads), span, iter)
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

    /// Builds the per-destination `IndexMsg` payload of the index
    /// AlltoAll for the local sub-batch (step 1 of the iteration),
    /// `Arc`-wrapped for the zero-copy exchange (the wrap is a pointer
    /// move, and receivers alias the payload instead of deep-cloning it).
    fn build_index_sends(&self, sub: &CombinedBatch) -> Result<Vec<Arc<Vec<IndexMsg>>>, SyncError> {
        let model = &self.cfg.model;
        let mut sends: Vec<Vec<IndexMsg>> = vec![Vec::new(); self.world];
        for p in &self.cfg.plan.placements {
            let t = p.table;
            let (lens, idx) = sub.table_inputs(t);
            let msg = |shard: usize, lengths: &[u32], indices: &[u64]| IndexMsg {
                table: t,
                shard,
                lengths: lengths.to_vec(),
                indices: indices.to_vec(),
            };
            match &p.scheme {
                Scheme::TableWise { worker } => sends[*worker].push(msg(0, lens, idx)),
                Scheme::ColumnWise { workers, .. } => {
                    for (k, &w) in workers.iter().enumerate() {
                        sends[w].push(msg(k, lens, idx));
                    }
                }
                Scheme::RowWise { workers } => {
                    let bz = bucketize_rows(workers.len(), model.tables[t].num_rows, lens, idx)
                        .map_err(|e| err(e.to_string()))?;
                    for (k, &w) in workers.iter().enumerate() {
                        let (bl, bi) = bz.shard_inputs(k);
                        sends[w].push(msg(k, bl, bi));
                    }
                }
                Scheme::DataParallel => {}
            }
        }
        Ok(sends.into_iter().map(Arc::new).collect())
    }

    /// Files the received index messages into the owned table-/column-
    /// and row-wise shards (the global-batch inputs they must serve).
    fn consume_index_recv(&mut self, recv: &[Arc<Vec<IndexMsg>>]) -> Result<(), SyncError> {
        // table-wise / column-wise shards
        for sh in &mut self.shards {
            sh.lengths.clear();
            sh.indices.clear();
            for src in recv {
                let msg = src
                    .iter()
                    .find(|m| m.table == sh.desc.table && m.shard == sh.desc.shard)
                    .ok_or_else(|| err("missing index message for owned shard"))?;
                sh.lengths.extend_from_slice(&msg.lengths);
                sh.indices.extend_from_slice(&msg.indices);
            }
        }
        // row-wise shards
        for rs in &mut self.row_shards {
            rs.lengths.clear();
            rs.indices.clear();
            for src in recv {
                let msg = src
                    .iter()
                    .find(|m| m.table == rs.table && m.shard == rs.shard)
                    .ok_or_else(|| err("missing index message for row shard"))?;
                rs.lengths.extend_from_slice(&msg.lengths);
                rs.indices.extend_from_slice(&msg.indices);
            }
        }
        Ok(())
    }

    /// Pooled outputs of the owned table-/column-wise shards over the
    /// global batch, in deterministic shard order.
    fn owned_pooled_forward(&mut self) -> Result<Vec<Tensor2>, SyncError> {
        let mut owned_pooled: Vec<Tensor2> = Vec::with_capacity(self.shards.len());
        for (i, sh) in self.shards.iter_mut().enumerate() {
            let pooled = pooled_forward(sh.store.as_mut(), &sh.lengths, &sh.indices)
                .map_err(|e| err(e.to_string()))?;
            if let Some(c) = self.wl_shards.get_mut(i) {
                c.record(&sh.lengths, &sh.indices);
            }
            owned_pooled.push(pooled);
        }
        Ok(owned_pooled)
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

    /// Packs owned pooled outputs into per-destination wire payloads
    /// (manifest order — the receiver derives the same layout),
    /// `Arc`-wrapped so the pooled AlltoAll hands off pointers.
    fn build_pooled_payloads(&self, owned_pooled: &[Tensor2], b_loc: usize) -> Vec<Arc<Vec<f32>>> {
        let world = self.world;
        let mut payloads: Vec<Vec<f32>> = vec![Vec::new(); world];
        for (sh, pooled) in self.shards.iter().zip(owned_pooled) {
            debug_assert_eq!(pooled.rows(), world * b_loc, "shard {:?}", sh.desc);
            for (dest, payload) in payloads.iter_mut().enumerate() {
                let chunk = pooled.slice_rows(dest * b_loc, (dest + 1) * b_loc);
                payload.extend_from_slice(chunk.as_slice());
            }
        }
        payloads.into_iter().map(Arc::new).collect()
    }

    /// Reassembles per-table pooled features for the local sub-batch from
    /// the pooled-AlltoAll receive buffers, using each owner's manifest.
    fn assemble_pooled_features(
        &self,
        pooled_recv: &[Arc<Vec<f32>>],
        b_loc: usize,
    ) -> Result<Vec<Tensor2>, SyncError> {
        let model = &self.cfg.model;
        let d = model.emb_dim();
        let mut pooled_features: Vec<Tensor2> = (0..model.tables.len())
            .map(|_| Tensor2::zeros(b_loc, d))
            .collect();
        for (manifest, data) in self.manifests.iter().zip(pooled_recv) {
            let mut off = 0usize;
            for c in manifest {
                let n = b_loc * c.width;
                let chunk = &data[off..off + n];
                off += n;
                let dst = &mut pooled_features[c.table];
                for row in 0..b_loc {
                    let src_row = &chunk[row * c.width..(row + 1) * c.width];
                    dst.row_mut(row)[c.col_off..c.col_off + c.width].copy_from_slice(src_row);
                }
            }
            if off != data.len() {
                return Err(err("pooled payload length mismatch"));
            }
        }
        Ok(pooled_features)
    }

    /// Row-wise ReduceScatter features and data-parallel local lookups
    /// (step 4 — blocking in both schedules).
    fn row_and_dp_features(
        &mut self,
        sub: &CombinedBatch,
        pooled_features: &mut [Tensor2],
        b_loc: usize,
    ) -> Result<(), SyncError> {
        let world = self.world;
        let d = self.cfg.model.emb_dim();

        // ReduceScatter for row-wise tables (table-id order, all ranks)
        for &t in &self.row_tables {
            let sp = self.rec.span(phase::EMB_LOOKUP);
            let mut partial = vec![0.0f32; world * b_loc * d];
            if let Some((k, rs)) = self
                .row_shards
                .iter_mut()
                .enumerate()
                .find(|(_, r)| r.table == t)
            {
                let pooled = pooled_forward(rs.store.as_mut(), &rs.lengths, &rs.indices)
                    .map_err(|e| err(e.to_string()))?;
                partial.copy_from_slice(pooled.as_slice());
                if let Some(c) = self.wl_rows.get_mut(k) {
                    // local bucketized indices; the collector globalizes
                    // them with the shard's base row
                    c.record(&rs.lengths, &rs.indices);
                }
                if sp.is_recording() {
                    self.rec
                        .sink()
                        .counter_add(metric::EMB_LOOKUP_ROWS, rs.indices.len() as u64);
                }
            }
            drop(sp);
            let sp = self.rec.span(phase::REDUCE_SCATTER);
            let mine = self.comm.reduce_scatter(&partial)?;
            drop(sp);
            pooled_features[t] =
                Tensor2::from_vec(b_loc, d, mine).map_err(|e| err(e.to_string()))?;
        }

        // local lookups for data-parallel replicas
        let sp = self.rec.span(phase::EMB_LOOKUP);
        for (j, dpt) in self.dp.iter_mut().enumerate() {
            let (lens, idx) = sub.table_inputs(dpt.table);
            if let Some(c) = self.wl_dp.get_mut(j) {
                c.record(lens, idx);
            }
            if sp.is_recording() {
                self.rec
                    .sink()
                    .counter_add(metric::EMB_LOOKUP_ROWS, idx.len() as u64);
            }
            pooled_features[dpt.table] =
                pooled_forward(dpt.store.as_mut(), lens, idx).map_err(|e| err(e.to_string()))?;
        }
        drop(sp);
        Ok(())
    }

    /// Dot interaction + top MLP (step 5); caches the forward features
    /// for `backward_update` when training.
    fn interact_and_top(
        &mut self,
        z0: Tensor2,
        mut pooled_features: Vec<Tensor2>,
        train: bool,
    ) -> Result<Tensor2, SyncError> {
        let sp = self.rec.span(phase::INTERACTION);
        let mut features = vec![z0];
        features.append(&mut pooled_features);
        let refs: Vec<&Tensor2> = features.iter().collect();
        let inter = dot_interaction(&refs).map_err(|e| err(e.to_string()))?;
        let top_in = Tensor2::hcat(&[&features[0], &inter]).map_err(|e| err(e.to_string()))?;
        drop(sp);
        let sp = self.rec.span(phase::TOP_MLP);
        let logits = if train {
            self.top.forward(&top_in)
        } else {
            self.top.forward_inference(&top_in)
        };
        drop(sp);
        if train {
            self.cached_features = Some(features);
        }
        Ok(logits)
    }

    /// Splits off the local sub-batch and starts its index AlltoAll
    /// (zero-copy: pointers on the wire) — on the comm lane when `lane`,
    /// else to completion on this thread.
    fn start_input_a2a(
        &mut self,
        global: &CombinedBatch,
        lane: bool,
    ) -> Result<PendingInput, SyncError> {
        let sub = global
            .split(self.world)
            .map_err(|e| err(e.to_string()))?
            .swap_remove(self.rank);
        let sends = self.build_index_sends(&sub)?;
        let recv = if lane {
            Pending::InFlight(
                self.comm
                    .post_all_to_all_shared(sends, phase::INPUT_A2A, self.iter),
            )
        } else {
            let sp = self.rec.span(phase::INPUT_A2A);
            let recv = self.comm.all_to_all_shared(sends)?;
            drop(sp);
            Pending::Done(recv)
        };
        Ok(PendingInput { sub, recv })
    }

    /// Forward pass over the worker's sub-batch, participating in the
    /// group's collectives. Returns `(logits, sub_batch)`.
    ///
    /// `next` is the double-buffered batch whose index exchange this
    /// forward starts before its own interaction/top MLP; a training
    /// forward finds its own exchange already started by the previous
    /// iteration that way, and starts it here otherwise (pipeline head,
    /// serial driver, eval and probe).
    pub(super) fn forward(
        &mut self,
        global: &CombinedBatch,
        next: Option<&CombinedBatch>,
        train: bool,
    ) -> Result<(Tensor2, CombinedBatch), SyncError> {
        // started collectives ride the comm lane behind compute; eval and
        // probe forwards must not disturb the lane's in-flight prefetch
        let lane = self.cfg.overlap && train;
        let prefetched = self.pending_input.take_if(|_| train);
        let PendingInput { sub, recv } = match prefetched {
            Some(p) => p,
            None => self.start_input_a2a(global, lane)?,
        };
        let b_loc = sub.batch_size();
        let recv = recv.wait()?;

        // owned-shard lookups over the global batch come first, so the
        // pooled exchange can start before the bottom MLP and hide behind it
        let sp = self.rec.span(phase::EMB_LOOKUP);
        self.consume_index_recv(&recv)?;
        drop(recv);
        let owned_pooled = self.owned_pooled_forward()?;
        if sp.is_recording() {
            let rows: usize = self.shards.iter().map(|sh| sh.indices.len()).sum();
            self.rec
                .sink()
                .counter_add(metric::EMB_LOOKUP_ROWS, rows as u64);
        }
        drop(sp);

        // pooled AlltoAll for table-/column-wise shards (manifest order)
        let payloads = self.build_pooled_payloads(&owned_pooled, b_loc);
        let pooled = if lane {
            Pending::InFlight(self.comm.post_all_to_all_shared_quant(
                payloads,
                self.cfg.quant_fwd,
                phase::ALLTOALL_FWD,
                self.iter,
            ))
        } else {
            let sp = self.rec.span(phase::ALLTOALL_FWD);
            let recv = self
                .comm
                .all_to_all_shared_quant(payloads, self.cfg.quant_fwd)?;
            drop(sp);
            Pending::Done(recv)
        };

        // bottom MLP on local dense features, while an overlapped pooled
        // AlltoAll is on the wire
        let sp = self.rec.span(phase::FWD_BOTTOM_MLP);
        let z0 = if train {
            self.bottom.forward(&sub.dense)
        } else {
            self.bottom.forward_inference(&sub.dense)
        };
        drop(sp);

        let pooled_recv = pooled.wait()?;
        let mut pooled_features = self.assemble_pooled_features(&pooled_recv, b_loc)?;

        // row-wise ReduceScatter + data-parallel lookups stay blocking
        self.row_and_dp_features(&sub, &mut pooled_features, b_loc)?;

        // double buffer: batch i+1's index exchange rides behind batch
        // i's interaction, top MLP, and the whole backward
        if let Some(nb) = next {
            self.pending_input = Some(self.start_input_a2a(nb, lane)?);
        }

        let logits = self.interact_and_top(z0, pooled_features, train)?;
        Ok((logits, sub))
    }

    /// Backward + update from the local logit gradient (already scaled by
    /// the *global* batch size).
    ///
    /// The MLP-gradient AllReduce is bucketed by schedule. Overlap posts
    /// one bucket per MLP to the comm lane the moment its backward
    /// finishes, so both run behind the blocking sparse paths. Serial
    /// reduces a single `[bottom|top]` bucket afterwards. Rank-order
    /// accumulation is element-wise, so the buckets are bitwise-equal to
    /// the combined buffer's `[..nb]` / `[nb..]`.
    pub(super) fn backward_update(
        &mut self,
        sub: &CombinedBatch,
        grad_logits: &Tensor2,
    ) -> Result<(), SyncError> {
        let features = self
            .cached_features
            .take()
            .ok_or_else(|| err("backward without forward"))?;
        let bwd_span = self.rec.span(phase::BACKWARD);
        let overlap = self.cfg.overlap;
        let model = &self.cfg.model;
        let d = model.emb_dim();
        let num_tables = model.tables.len();

        // dense backward: top MLP, interaction, bottom MLP. `g_features[0]`
        // is the dense input; `g_features[t + 1]` belongs to table `t`.
        let sp = self.rec.span(phase::TOP_MLP_BWD);
        let g_top_in = self
            .top
            .backward(grad_logits)
            .map_err(|e| err(e.to_string()))?;
        drop(sp);
        let top_bucket = overlap
            .then(|| post_grad_bucket(&mut self.comm, &self.top, phase::ALLREDUCE_TOP, self.iter));
        let sp = self.rec.span(phase::INTERACTION_BWD);
        let splits = g_top_in
            .hsplit(&[d, num_pairs(num_tables + 1)])
            .map_err(|e| err(e.to_string()))?;
        let refs: Vec<&Tensor2> = features.iter().collect();
        let mut g_features =
            dot_interaction_backward(&refs, &splits[1]).map_err(|e| err(e.to_string()))?;
        g_features[0] += &splits[0];
        drop(sp);
        let sp = self.rec.span(phase::BWD_BOTTOM_MLP);
        self.bottom
            .backward(&g_features[0])
            .map_err(|e| err(e.to_string()))?;
        drop(sp);
        let bot_bucket = overlap.then(|| {
            post_grad_bucket(
                &mut self.comm,
                &self.bottom,
                phase::ALLREDUCE_BOT,
                self.iter,
            )
        });

        // sparse paths (grad exchanges + exact optimizer updates)
        self.sparse_backward(sub, &g_features)?;

        match bot_bucket.zip(top_bucket) {
            Some((bot, top)) => {
                let (bot, top) = (bot.wait()?, top.wait()?);
                self.dense_step(&bot, &top)?;
            }
            None => {
                // zero-copy: the scratch buffer is handed off by pointer
                // and recovered from the reduction's accumulator, which
                // is uniquely held — `try_unwrap` recycles it without a
                // copy
                self.scratch_grads.clear();
                self.bottom.grads_flat(&mut self.scratch_grads);
                self.top.grads_flat(&mut self.scratch_grads);
                let buf = std::mem::take(&mut self.scratch_grads);
                let sp = self.rec.span(phase::ALLREDUCE);
                let reduced = self.comm.all_reduce_shared(Arc::new(buf))?;
                drop(sp);
                let nb = self.bottom.num_params();
                self.dense_step(&reduced[..nb], &reduced[nb..])?;
                self.scratch_grads = Arc::try_unwrap(reduced).unwrap_or_else(|a| (*a).clone());
            }
        }
        drop(bwd_span);
        Ok(())
    }

    /// Installs the reduced MLP gradients and steps the dense optimizers.
    fn dense_step(&mut self, bot: &[f32], top: &[f32]) -> Result<(), SyncError> {
        let sp = self.rec.span(phase::DENSE_OPTIM);
        self.bottom
            .set_grads_flat(bot)
            .map_err(|e| err(e.to_string()))?;
        self.top
            .set_grads_flat(top)
            .map_err(|e| err(e.to_string()))?;
        self.bottom.apply_optimizer(self.bottom_opt.as_mut());
        self.top.apply_optimizer(self.top_opt.as_mut());
        drop(sp);
        Ok(())
    }

    /// Sparse backward (step 6): grad exchanges back to every shard kind
    /// plus the exact optimizer updates. Blocking in both schedules.
    fn sparse_backward(
        &mut self,
        sub: &CombinedBatch,
        g_features: &[Tensor2],
    ) -> Result<(), SyncError> {
        let world = self.world;
        let b_loc = sub.batch_size();
        let d = self.cfg.model.emb_dim();

        // grad AlltoAll back to table-/column-wise owners
        let sp = self.rec.span(phase::ALLTOALL_BWD);
        let mut payloads: Vec<Vec<f32>> = vec![Vec::new(); world];
        for (manifest, payload) in self.manifests.iter().zip(&mut payloads) {
            for c in manifest {
                let g = &g_features[c.table + 1];
                for row in 0..b_loc {
                    payload.extend_from_slice(&g.row(row)[c.col_off..c.col_off + c.width]);
                }
            }
        }
        let payloads: Vec<Arc<Vec<f32>>> = payloads.into_iter().map(Arc::new).collect();
        let grad_recv = self
            .comm
            .all_to_all_shared_quant(payloads, self.cfg.quant_bwd)?;
        drop(sp);

        // owners apply exact sparse updates on the reassembled global grads
        let sp = self.rec.span(phase::SPARSE_OPTIM);
        let mut optim_rows = 0u64;
        // per-source offset cursors
        let mut cursors = vec![0usize; world];
        for sh in &mut self.shards {
            let c = sh.desc;
            let mut grads = Tensor2::zeros(world * b_loc, c.width);
            for (src, data) in grad_recv.iter().enumerate() {
                let n = b_loc * c.width;
                let chunk = &data[cursors[src]..cursors[src] + n];
                cursors[src] += n;
                for row in 0..b_loc {
                    grads
                        .row_mut(src * b_loc + row)
                        .copy_from_slice(&chunk[row * c.width..(row + 1) * c.width]);
                }
            }
            // fused backward (§4.1.1): merge straight into per-row
            // accumulators, never materializing the expanded gradient
            let sg = fused_backward_grads(&sh.lengths, &sh.indices, &grads)
                .map_err(|e| err(e.to_string()))?;
            optim_rows += sg.indices.len() as u64;
            sh.opt.apply_merged(sh.store.as_mut(), &sg);
        }
        drop(sp);

        // AllGather for row-wise tables (mirror of the ReduceScatter)
        for &t in &self.row_tables {
            let flat = g_features[t + 1].as_slice().to_vec();
            let sp = self.rec.span(phase::ALLGATHER);
            let global_grads = self.comm.all_gather(&flat)?;
            drop(sp);
            if let Some(rs) = self.row_shards.iter_mut().find(|r| r.table == t) {
                let sp = self.rec.span(phase::SPARSE_OPTIM);
                let grads = Tensor2::from_vec(world * b_loc, d, global_grads)
                    .map_err(|e| err(e.to_string()))?;
                let sg = fused_backward_grads(&rs.lengths, &rs.indices, &grads)
                    .map_err(|e| err(e.to_string()))?;
                optim_rows += sg.indices.len() as u64;
                rs.opt.apply_merged(rs.store.as_mut(), &sg);
                drop(sp);
            }
        }

        // data-parallel tables: AllGather the sparse grads, apply the
        // identical merged update on every replica
        for &t in &self.dp_tables {
            let (lens, idx) = sub.table_inputs(t);
            // ship per-rank *merged* grads: rank-order concatenation then a
            // final merge reproduces the raw-occurrence accumulation order
            // bit-for-bit while shrinking the AllGather payload
            let local = fused_backward_grads(lens, idx, &g_features[t + 1])
                .map_err(|e| err(e.to_string()))?;
            let pairs: Vec<(u64, Vec<f32>)> = local
                .indices
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, local.occ_row(k).to_vec()))
                .collect();
            let sp = self.rec.span(phase::ALLTOALL_BWD);
            // one shared payload, `world` refcount bumps — no deep clone
            // of the pair list per destination
            let pairs = Arc::new(pairs);
            let gathered = self.comm.all_to_all_shared(vec![pairs; world])?;
            drop(sp);
            let sp = self.rec.span(phase::SPARSE_OPTIM);
            let mut indices = Vec::new();
            let mut rows: Vec<f32> = Vec::new();
            for src in &gathered {
                for (i, g) in src.iter() {
                    indices.push(*i);
                    rows.extend_from_slice(g);
                }
            }
            let n = indices.len();
            let combined = SparseGrad::dense(
                indices,
                Tensor2::from_vec(n, d, rows).map_err(|e| err(e.to_string()))?,
            );
            let dpt = self
                .dp
                .iter_mut()
                .find(|x| x.table == t)
                .ok_or_else(|| err("missing dp replica"))?;
            optim_rows += combined.indices.len() as u64;
            dpt.opt.step(dpt.store.as_mut(), &combined);
            drop(sp);
        }
        if self.rec.sink().enabled() {
            self.rec
                .sink()
                .counter_add(metric::EMB_OPTIM_ROWS, optim_rows);
        }
        Ok(())
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

    /// One training iteration. `next` is the double-buffered batch whose
    /// index exchange this iteration starts ahead, when the driver
    /// prefetched one.
    fn train_step(
        &mut self,
        iter: u64,
        global: &CombinedBatch,
        next: Option<&CombinedBatch>,
    ) -> Result<f32, SyncError> {
        let lr = self.cfg.lr_schedule.lr_at(self.cfg.lr, iter);
        self.set_lr(lr);
        self.iter = iter;
        self.rec.begin_iteration(iter);
        let iter_span = self.rec.span(phase::ITERATION);
        let (logits, sub) = self.forward(global, next, true)?;
        let (loss, mut grad) =
            bce_with_logits(&logits, &sub.labels).map_err(|e| err(e.to_string()))?;
        // bce divides by the local batch; rescale to the global batch
        grad.scale(sub.batch_size() as f32 / self.cfg.global_batch as f32);
        self.backward_update(&sub, &grad)?;
        // global mean loss (sub-batches are equal-sized)
        let mut l = vec![loss];
        let sp = self.rec.span(phase::ALLREDUCE);
        self.comm.all_reduce_mean(&mut l)?;
        drop(sp);
        if let Some(ns) = iter_span.end() {
            // rank 0 owns the global gauges (loss is already all-reduced)
            if self.rank == 0 {
                let sink = self.rec.sink();
                sink.gauge_push(metric::TRAIN_LOSS, iter, f64::from(l[0]));
                sink.gauge_push(metric::TRAIN_LR, iter, f64::from(lr));
                let throughput = self.cfg.global_batch as f64 * 1e9 / ns.max(1) as f64;
                sink.gauge_push(metric::TRAIN_THROUGHPUT, iter, throughput);
            }
        }
        self.rec.end_iteration();
        Ok(l[0])
    }

    fn evaluate(&mut self, batches: &[CombinedBatch]) -> Result<NormalizedEntropy, SyncError> {
        let mut ne = NormalizedEntropy::new();
        for b in batches {
            let (logits, sub) = self.forward(b, None, false)?;
            ne.observe_logits(&logits, &sub.labels);
        }
        Ok(ne)
    }

    /// Gathers every embedding shard to rank 0 and reassembles the full
    /// trained model there — the "publish for inference" path. All ranks
    /// must call this (it is a collective); only rank 0 returns `Some`.
    pub(super) fn gather_model(&mut self) -> Result<Option<neo_dlrm_model::DlrmModel>, SyncError> {
        struct GatherMsg {
            table: usize,
            col_off: usize,
            width: usize,
            row_off: u64,
            rows: u64,
            data: Vec<f32>,
        }
        let mut to_root: Vec<GatherMsg> = Vec::new();
        let mut pack =
            |table: usize, col_off: usize, row_off: u64, store: &mut Box<dyn RowStore>| {
                let rows = store.num_rows();
                let width = store.dim();
                let mut data = Vec::with_capacity(rows as usize * width);
                let mut buf = vec![0.0f32; width];
                for r in 0..rows {
                    store.read_row(r, &mut buf);
                    data.extend_from_slice(&buf);
                }
                to_root.push(GatherMsg {
                    table,
                    col_off,
                    width,
                    row_off,
                    rows,
                    data,
                });
            };
        for sh in &mut self.shards {
            pack(sh.desc.table, sh.desc.col_off, 0, &mut sh.store);
        }
        for rs in &mut self.row_shards {
            pack(rs.table, 0, rs.row_off, &mut rs.store);
        }
        // rank 0 additionally contributes its data-parallel replicas
        if self.rank == 0 {
            for dp in &mut self.dp {
                pack(dp.table, 0, 0, &mut dp.store);
            }
        }
        let mut sends: Vec<Vec<GatherMsg>> = (0..self.world).map(|_| Vec::new()).collect();
        sends[0] = to_root;
        let received = self
            .comm
            .all_to_all_shared(sends.into_iter().map(Arc::new).collect())?;
        if self.rank != 0 {
            return Ok(None);
        }
        let mut model = neo_dlrm_model::DlrmModel::new(&self.cfg.model, self.cfg.seed)
            .map_err(|e| err(e.to_string()))?;
        model.bottom = self.bottom.clone();
        model.top = self.top.clone();
        for src in &received {
            for msg in src.iter() {
                let table = &mut model.tables[msg.table];
                let dim = table.dim();
                let mut full = vec![0.0f32; dim];
                for r in 0..msg.rows {
                    let global = msg.row_off + r;
                    if global >= table.num_rows() {
                        continue; // padding rows of the last row block
                    }
                    table.read_row(global, &mut full);
                    let slice = &msg.data[r as usize * msg.width..(r as usize + 1) * msg.width];
                    full[msg.col_off..msg.col_off + msg.width].copy_from_slice(slice);
                    table.write_row(global, &full);
                }
            }
        }
        Ok(Some(model))
    }
}

/// The synchronous distributed trainer.
///
/// # Example
///
/// ```
/// use neo_trainer::{SyncConfig, SyncTrainer};
/// use neo_sharding::{Planner, PlannerConfig, CostModel, TableSpec};
/// use neo_dlrm_model::DlrmConfig;
/// use neo_dataio::{SyntheticConfig, SyntheticDataset};
///
/// let model = DlrmConfig::tiny(4, 64, 8);
/// let specs: Vec<TableSpec> = model
///     .tables
///     .iter()
///     .enumerate()
///     .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
///     .collect();
/// let plan = Planner::new(CostModel::v100_prototype(32), PlannerConfig::default())
///     .plan(&specs, 2)
///     .unwrap();
/// let trainer = SyncTrainer::new(SyncConfig::exact(2, model, plan, 32));
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 64, 3, 4)).unwrap();
/// let batches: Vec<_> = (0..3).map(|k| ds.batch(32, k)).collect();
/// let out = trainer.train(&batches, &[], 0, None).unwrap();
/// assert_eq!(out.losses.len(), 3);
/// ```
#[derive(Debug)]
pub struct SyncTrainer {
    cfg: Arc<SyncConfig>,
}

impl SyncTrainer {
    /// Creates a trainer from a config.
    ///
    /// When [`SyncConfig::monitor`] is set but the telemetry sink is
    /// disabled, the sink is armed here: the monitor samples heartbeats
    /// and metrics through the sink, so a disabled sink would leave it
    /// blind.
    pub fn new(mut cfg: SyncConfig) -> Self {
        if cfg.monitor.is_some() && !cfg.telemetry.enabled() {
            cfg.telemetry = TelemetrySink::armed();
        }
        Self { cfg: Arc::new(cfg) }
    }

    /// The configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.cfg
    }

    /// Trains over `batches` (each a *global* batch), evaluating NE on
    /// `eval` every `eval_every` iterations (`0` = only at the end, and
    /// only if `eval` is nonempty). If `probe` is given, returns the final
    /// model's logits on it.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on configuration mismatches (batch sizes,
    /// world size) or if a worker thread panics.
    pub fn train(
        &self,
        batches: &[CombinedBatch],
        eval: &[CombinedBatch],
        eval_every: usize,
        probe: Option<&CombinedBatch>,
    ) -> Result<TrainOutput, SyncError> {
        self.train_stream(
            batches.len() as u64,
            |k| batches[k as usize].clone(),
            eval,
            eval_every,
            probe,
        )
    }

    /// Streaming variant of [`SyncTrainer::train`]: batches are produced on
    /// demand by `make(k)` (deterministically — every worker calls it), so
    /// arbitrarily long runs never materialize the full batch list. This is
    /// how the examples stream from [`neo_dataio::PrefetchReader`]-style
    /// sources.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on configuration mismatches or if a worker
    /// thread panics.
    pub fn train_stream(
        &self,
        num_batches: u64,
        make: impl Fn(u64) -> CombinedBatch + Sync,
        eval: &[CombinedBatch],
        eval_every: usize,
        probe: Option<&CombinedBatch>,
    ) -> Result<TrainOutput, SyncError> {
        let cfg = &self.cfg;
        if cfg.world == 0 {
            return Err(err("world must be positive"));
        }
        if !cfg.global_batch.is_multiple_of(cfg.world) {
            return Err(err(format!(
                "global batch {} not divisible by world {}",
                cfg.global_batch, cfg.world
            )));
        }
        cfg.model.validate().map_err(|e| err(e.to_string()))?;
        cfg.plan
            .validate(
                &cfg.model
                    .tables
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        neo_sharding::TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64)
                    })
                    .collect::<Vec<_>>(),
            )
            .map_err(|e| err(e.to_string()))?;
        let check = |b: &CombinedBatch| -> Result<(), SyncError> {
            if b.batch_size() != cfg.global_batch {
                return Err(err("batch size mismatch"));
            }
            if b.num_tables() != cfg.model.tables.len() {
                return Err(err("batch table count mismatch"));
            }
            Ok(())
        };
        for b in eval.iter().chain(probe) {
            check(b)?;
        }

        let comms = ProcessGroup::new(cfg.world);
        let make = &make;
        let check = &check;
        // The monitor samples heartbeats concurrently with the workers;
        // it is stopped (and its final frame scraped) even when a worker
        // errors out, so a crashing run still leaves a usable event log.
        let monitor = cfg
            .monitor
            .as_ref()
            .map(|m| Monitor::start(&cfg.telemetry, m.clone()));
        let results: Result<Vec<WorkerResult>, SyncError> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let cfg = Arc::clone(cfg);
                    scope.spawn(move || -> Result<WorkerResult, SyncError> {
                        let mut w = Worker::new(cfg.clone(), comm);
                        let mut losses = Vec::with_capacity(num_batches as usize);
                        let mut ne_curve = Vec::new();
                        // double buffer: the overlapped schedule needs
                        // batch i+1 during iteration i, so each batch is
                        // built one iteration ahead and carried over
                        let mut carried: Option<CombinedBatch> = None;
                        for i in 0..num_batches {
                            let b = match carried.take() {
                                Some(b) => b,
                                None => {
                                    let b = make(i);
                                    check(&b)?;
                                    b
                                }
                            };
                            let next = if cfg.overlap && i + 1 < num_batches {
                                let nb = make(i + 1);
                                check(&nb)?;
                                Some(nb)
                            } else {
                                None
                            };
                            losses.push(w.train_step(i, &b, next.as_ref())?);
                            carried = next;
                            let samples = (i + 1) * cfg.global_batch as u64;
                            if eval_every > 0
                                && (i + 1) % eval_every as u64 == 0
                                && !eval.is_empty()
                            {
                                ne_curve.push((samples, w.evaluate(eval)?));
                            }
                        }
                        if !eval.is_empty()
                            && (eval_every == 0
                                || !num_batches.is_multiple_of(eval_every.max(1) as u64))
                        {
                            let samples = num_batches * cfg.global_batch as u64;
                            ne_curve.push((samples, w.evaluate(eval)?));
                        }
                        let probe_logits = match probe {
                            Some(p) => Some(w.forward(p, None, false)?.0),
                            None => None,
                        };
                        let final_model = if cfg.gather_final_model {
                            w.gather_model()?
                        } else {
                            None
                        };
                        Ok(WorkerResult {
                            rank: w.rank,
                            losses,
                            ne_curve,
                            probe_logits,
                            comm: w.comm.stats(),
                            final_model,
                            workload: w.harvest_workload(),
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| err("worker thread panicked"))?)
                .collect::<Result<Vec<_>, _>>()
        });
        let health_events = match monitor.map(Monitor::stop) {
            Some(report) => report.events,
            None => Vec::new(),
        };
        let results = results?;

        // merge: losses identical on every rank (all-reduced); NE merged;
        // probe logits concatenated in rank order
        let mut by_rank = results;
        by_rank.sort_by_key(|r| r.rank);
        let losses = by_rank[0].losses.clone();
        let mut ne_curve: Vec<(u64, f64)> = Vec::new();
        if !by_rank[0].ne_curve.is_empty() {
            for pt in 0..by_rank[0].ne_curve.len() {
                let mut acc = NormalizedEntropy::new();
                for r in &by_rank {
                    acc.merge(&r.ne_curve[pt].1);
                }
                ne_curve.push((by_rank[0].ne_curve[pt].0, acc.value().unwrap_or(f64::NAN)));
            }
        }
        let probe_logits = if by_rank[0].probe_logits.is_some() {
            let parts: Vec<Tensor2> = by_rank
                .iter_mut()
                // lint: allow(panic) — every worker fills probe_logits when rank 0 does
                .map(|r| r.probe_logits.take().expect("probe"))
                .collect();
            let refs: Vec<&Tensor2> = parts.iter().collect();
            Some(Tensor2::vcat(&refs).map_err(|e| err(e.to_string()))?)
        } else {
            None
        };
        let comm: Vec<CommStats> = by_rank.iter().map(|r| r.comm).collect();
        let final_model = by_rank.iter_mut().find_map(|r| r.final_model.take());
        let workload = if cfg.workload {
            let tables_meta: Vec<TableMeta> = cfg
                .model
                .tables
                .iter()
                .map(|t| TableMeta {
                    rows: t.num_rows,
                    dim: t.dim,
                })
                .collect();
            let comm_bytes: u64 = comm.iter().map(|c| c.bytes_sent).sum();
            let samples: Vec<ShardSample> = by_rank
                .iter_mut()
                .flat_map(|r| std::mem::take(&mut r.workload))
                .collect();
            Some(WorkloadReport::from_samples(
                cfg.world,
                num_batches,
                cfg.global_batch,
                comm_bytes,
                &tables_meta,
                samples,
            ))
        } else {
            None
        };
        Ok(TrainOutput {
            losses,
            ne_curve,
            probe_logits,
            comm,
            final_model,
            telemetry_summary: cfg.telemetry.summary(),
            telemetry: cfg.telemetry.snapshot(),
            health_events,
            workload,
        })
    }
}

struct WorkerResult {
    rank: usize,
    losses: Vec<f32>,
    ne_curve: Vec<(u64, NormalizedEntropy)>,
    probe_logits: Option<Tensor2>,
    comm: CommStats,
    final_model: Option<neo_dlrm_model::DlrmModel>,
    workload: Vec<ShardSample>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::reference_model;
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_sharding::TablePlacement;

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
        use neo_workload::WORKLOAD_SCHEMA_VERSION;
        let mut cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        cfg.workload = true;
        let iters = 3u64;
        let out = SyncTrainer::new(cfg)
            .train(&batches(iters, 16), &[], 0, None)
            .unwrap();
        let r = out.workload.expect("workload was requested");
        assert_eq!(r.schema_version, WORKLOAD_SCHEMA_VERSION);
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
            assert_eq!(t.sketch_total, t.lookups);
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
        let names = snap.span_names();
        assert!(
            names.len() >= 8,
            "expected >= 8 distinct phases, got {names:?}"
        );
        for n in &names {
            assert!(phase::is_known(n), "span name {n} outside the taxonomy");
        }
        // The mixed plan exercises every trainer phase.
        for want in [
            phase::ITERATION,
            phase::FWD_BOTTOM_MLP,
            phase::INPUT_A2A,
            phase::EMB_LOOKUP,
            phase::ALLTOALL_FWD,
            phase::REDUCE_SCATTER,
            phase::INTERACTION,
            phase::TOP_MLP,
            phase::BACKWARD,
            phase::ALLTOALL_BWD,
            phase::ALLGATHER,
            phase::SPARSE_OPTIM,
            phase::ALLREDUCE,
            phase::DENSE_OPTIM,
        ] {
            assert!(names.contains(&want), "missing phase {want} in {names:?}");
        }
        // Every rank records every iteration exactly once.
        let iteration_spans = snap
            .spans
            .iter()
            .filter(|s| s.name == phase::ITERATION)
            .count();
        assert_eq!(iteration_spans, 2 * iters as usize);
        // Rank-0 gauges: one point per iteration, loss values matching.
        let loss_series = snap
            .gauges
            .iter()
            .find(|(k, _)| k == metric::TRAIN_LOSS)
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
                .any(|(k, v)| k == metric::EMB_LOOKUP_ROWS && *v > 0),
            "no embedding lookup rows recorded"
        );
        assert!(
            snap.counters
                .iter()
                .any(|(k, v)| k == metric::EMB_OPTIM_ROWS && *v > 0),
            "no embedding optim rows recorded"
        );
        // Summary surfaces on TrainOutput and in its Display.
        let summary = out.telemetry_summary.as_ref().expect("summary present");
        assert_eq!(summary.world, 2);
        assert_eq!(summary.iterations, iters);
        assert!(summary.phase_ms(phase::ITERATION).unwrap_or(0.0) > 0.0);
        assert!(out.to_string().contains("telemetry:"), "{out}");
        // The full snapshot rides on TrainOutput for offline analysis.
        let carried = out.telemetry.as_ref().expect("snapshot present");
        assert_eq!(carried.spans.len(), snap.spans.len());
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
    fn overlapped_telemetry_splits_allreduce_onto_comm_lane() {
        let mut cfg = SyncConfig::exact(2, model_cfg(), mixed_plan(2), 16);
        cfg.overlap = true;
        let sink = neo_telemetry::TelemetrySink::armed();
        cfg.telemetry = sink.clone();
        let out = SyncTrainer::new(cfg)
            .train(&batches(3, 16), &[], 0, None)
            .unwrap();
        assert_eq!(out.losses.len(), 3);
        let snap = sink.snapshot().expect("armed sink snapshots");
        let names = snap.span_names();
        for want in [
            phase::ALLREDUCE_TOP,
            phase::ALLREDUCE_BOT,
            phase::INPUT_A2A,
            phase::ALLTOALL_FWD,
            phase::ALLREDUCE, // the loss mean stays a blocking combined op
        ] {
            assert!(names.contains(&want), "missing phase {want} in {names:?}");
        }
        // posted collectives record their spans on the comm lane; the
        // loss AllReduce stays on the main lane
        for posted in [phase::ALLREDUCE_TOP, phase::ALLREDUCE_BOT, phase::INPUT_A2A] {
            assert!(
                snap.spans
                    .iter()
                    .filter(|s| s.name == posted)
                    .all(|s| s.lane == neo_collectives::COMM_LANE),
                "{posted} spans not on the comm lane"
            );
        }
        assert!(snap
            .spans
            .iter()
            .filter(|s| s.name == phase::ALLREDUCE)
            .all(|s| s.lane == 0));
        // every wait on a posted op records posted-to-wait latency
        assert!(
            snap.histograms
                .iter()
                .any(|(k, h)| k == &metric::comm_wait_ns("all_reduce") && h.total() > 0),
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

#[cfg(test)]
mod gather_and_optimizer_tests {
    use super::*;
    use crate::init::reference_model;
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_sharding::TablePlacement;

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

    fn setup() -> (DlrmConfig, SyntheticDataset) {
        let cfg = DlrmConfig::tiny(4, 64, 8);
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 64, 3, 4)).unwrap();
        (cfg, ds)
    }

    #[test]
    fn gathered_model_reproduces_distributed_probe_logits() {
        let (model, ds) = setup();
        let batches: Vec<_> = (0..6).map(|k| ds.batch(32, k)).collect();
        let probe = ds.batch(32, 900);
        let mut cfg = SyncConfig::exact(4, model, mixed_plan(4), 32);
        cfg.gather_final_model = true;
        let out = SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();

        let mut gathered = out.final_model.expect("gathered on rank 0");
        let local_logits = gathered.forward_inference(&probe).unwrap();
        let dist_logits = out.probe_logits.unwrap();
        let diff = local_logits.max_abs_diff(&dist_logits).unwrap();
        assert!(
            diff < 1e-4,
            "gathered model matches distributed shards: {diff}"
        );
    }

    #[test]
    fn gathered_untrained_model_equals_reference_init() {
        let (model, ds) = setup();
        let mut cfg = SyncConfig::exact(4, model.clone(), mixed_plan(4), 32);
        cfg.gather_final_model = true;
        // zero training steps: the gather must reproduce the deterministic init
        let out = SyncTrainer::new(cfg).train(&[], &[], 0, None).unwrap();
        let mut gathered = out.final_model.unwrap();
        let mut reference = reference_model(&model, 42).unwrap();
        let probe = ds.batch(32, 1);
        assert_eq!(
            gathered.forward_inference(&probe).unwrap(),
            reference.forward_inference(&probe).unwrap()
        );
    }

    #[test]
    fn gather_disabled_returns_none() {
        let (model, ds) = setup();
        let cfg = SyncConfig::exact(2, model, mixed_plan(2), 32);
        let out = SyncTrainer::new(cfg)
            .train(&[ds.batch(32, 0)], &[], 0, None)
            .unwrap();
        assert!(out.final_model.is_none());
    }

    #[test]
    fn dense_optimizers_all_train() {
        let (model, ds) = setup();
        let batches: Vec<_> = (0..25).map(|k| ds.batch(64, k)).collect();
        for opt in [
            DenseOpt::Sgd,
            DenseOpt::Adagrad,
            DenseOpt::Adam,
            DenseOpt::Lamb,
        ] {
            let mut cfg = SyncConfig::exact(2, model.clone(), mixed_plan(2), 64);
            cfg.dense_optimizer = opt;
            cfg.lr = match opt {
                DenseOpt::Sgd => 0.05,
                DenseOpt::Adagrad => 0.05,
                DenseOpt::Adam | DenseOpt::Lamb => 0.005,
            };
            let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None).unwrap();
            let head: f32 = out.losses[..5].iter().sum::<f32>() / 5.0;
            let tail: f32 = out.losses[20..].iter().sum::<f32>() / 5.0;
            assert!(tail < head, "{opt:?}: loss {head:.4} -> {tail:.4}");
        }
    }

    #[test]
    fn adam_replicas_stay_in_sync() {
        // optimizer state is per-replica; identical allreduced grads must
        // keep replicas bitwise identical, which the gathered model's MLPs
        // witness (they come from rank 0 while probe logits use all ranks)
        let (model, ds) = setup();
        let batches: Vec<_> = (0..5).map(|k| ds.batch(32, k)).collect();
        let probe = ds.batch(32, 901);
        let mut cfg = SyncConfig::exact(4, model, mixed_plan(4), 32);
        cfg.dense_optimizer = DenseOpt::Adam;
        cfg.lr = 0.005;
        cfg.gather_final_model = true;
        let out = SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();
        let mut gathered = out.final_model.unwrap();
        let diff = gathered
            .forward_inference(&probe)
            .unwrap()
            .max_abs_diff(&out.probe_logits.unwrap())
            .unwrap();
        assert!(diff < 1e-4, "{diff}");
    }
}

#[cfg(test)]
mod schedule_and_stream_tests {
    use super::*;
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_sharding::TablePlacement;

    fn plan(world: usize) -> ShardingPlan {
        ShardingPlan {
            world,
            placements: (0..3)
                .map(|t| TablePlacement {
                    table: t,
                    scheme: Scheme::TableWise { worker: t % world },
                })
                .collect(),
        }
    }

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(3, 64, 3, 4)).unwrap()
    }

    #[test]
    fn lr_schedule_math() {
        let s = LrSchedule {
            warmup_iters: 4,
            decay_per_iter: 0.5,
        };
        assert_eq!(s.lr_at(1.0, 0), 0.25);
        assert_eq!(s.lr_at(1.0, 3), 1.0);
        assert_eq!(s.lr_at(1.0, 4), 1.0);
        assert_eq!(s.lr_at(1.0, 6), 0.25);
        let flat = LrSchedule::default();
        assert_eq!(flat.lr_at(0.1, 0), 0.1);
        assert_eq!(flat.lr_at(0.1, 99), 0.1);
    }

    #[test]
    fn train_stream_matches_train() {
        let ds = dataset();
        let batches: Vec<_> = (0..5).map(|k| ds.batch(32, k)).collect();
        let probe = ds.batch(32, 99);
        let model = DlrmConfig::tiny(3, 64, 8);

        let a = SyncTrainer::new(SyncConfig::exact(2, model.clone(), plan(2), 32))
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();
        let ds2 = dataset();
        let b = SyncTrainer::new(SyncConfig::exact(2, model, plan(2), 32))
            .train_stream(5, |k| ds2.batch(32, k), &[], 0, Some(&probe))
            .unwrap();
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.probe_logits, b.probe_logits);
    }

    #[test]
    fn overlap_moves_waits_not_traffic() {
        // The two schedules issue the same exchanges; overlap only splits
        // the MLP AllReduce in two buckets. Per step on a table-wise plan:
        // index a2a, pooled a2a, grad a2a, loss mean, plus one (serial) or
        // two (overlap) gradient AllReduces.
        let steps = 4u64;
        let run = |overlap: bool| {
            let mut cfg = SyncConfig::exact(2, DlrmConfig::tiny(3, 64, 8), plan(2), 32);
            cfg.overlap = overlap;
            let ds = dataset();
            SyncTrainer::new(cfg)
                .train_stream(steps, |k| ds.batch(32, k), &[], 0, None)
                .unwrap()
                .comm
        };
        let (serial, over) = (run(false), run(true));
        assert_eq!(serial.len(), 2);
        for (s, o) in serial.iter().zip(&over) {
            assert!(s.bytes_sent > 0);
            assert_eq!(
                s.bytes_sent, o.bytes_sent,
                "overlap must not change traffic"
            );
            assert_eq!(s.ops, 5 * steps);
            assert_eq!(o.ops, 6 * steps);
        }
    }

    #[test]
    fn warmup_first_step_is_gentle() {
        let ds = dataset();
        let probe = ds.batch(32, 98);
        let model = DlrmConfig::tiny(3, 64, 8);
        let run = |schedule: LrSchedule, iters: u64| {
            let mut cfg = SyncConfig::exact(2, model.clone(), plan(2), 32);
            cfg.lr = 0.2;
            cfg.lr_schedule = schedule;
            let ds = dataset();
            SyncTrainer::new(cfg)
                .train_stream(iters, |k| ds.batch(32, k), &[], 0, Some(&probe))
                .unwrap()
                .probe_logits
                .unwrap()
        };
        let untrained = run(LrSchedule::default(), 0);
        let warm = run(
            LrSchedule {
                warmup_iters: 8,
                decay_per_iter: 1.0,
            },
            1,
        );
        let flat = run(LrSchedule::default(), 1);
        // one warmup step (lr/8) displaces the model far less than one
        // full-LR step
        let dw = warm.max_abs_diff(&untrained).unwrap();
        let df = flat.max_abs_diff(&untrained).unwrap();
        assert!(dw < df * 0.5, "warmup step gentler: {dw} vs {df}");
        assert!(dw > 0.0, "but it does move");
    }

    #[test]
    fn stream_validates_generated_batches() {
        let ds = dataset();
        let model = DlrmConfig::tiny(3, 64, 8);
        let t = SyncTrainer::new(SyncConfig::exact(2, model, plan(2), 32));
        // wrong batch size produced mid-stream
        let r = t.train_stream(
            2,
            |k| ds.batch(if k == 1 { 16 } else { 32 }, k),
            &[],
            0,
            None,
        );
        assert!(r.is_err());
    }
}
