//! Trainer configuration, the error type, and what a run returns.

use std::fmt;

use neo_collectives::{CommDelay, CommStats, QuantMode};
use neo_dlrm_model::DlrmConfig;
use neo_monitor::{HealthEvent, MonitorConfig};
use neo_sharding::ShardingPlan;
use neo_telemetry::{Snapshot, TelemetrySink, TelemetrySummary};
use neo_tensor::Tensor2;
use neo_workload::WorkloadReport;

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
    /// Telemetry sink threaded through every rank's worker and
    /// communicator. The default ([`TelemetrySink::disabled`]) records
    /// nothing and adds no timing syscalls to the hot path; arm it with
    /// [`TelemetrySink::armed`] to capture per-iteration phase spans,
    /// comm counters, and loss/lr/throughput gauges.
    pub telemetry: TelemetrySink,
    /// Run the overlapped (Fig. 9) schedule: the index/pooled AlltoAlls
    /// and a split MLP AllReduce are posted and waited on only after the
    /// compute that can hide them, and batches are double-buffered
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
