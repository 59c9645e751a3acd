//! `neo-dlrm` — a full-system Rust reproduction of **"Software-hardware
//! co-design for fast and scalable training of deep learning recommendation
//! models"** (ISCA 2022): Meta's *Neo* training stack and *ZionEX* platform.
//!
//! The crate is a façade over the workspace:
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`tensor`] | `neo-tensor` | dense substrate (cuBLAS stand-in) |
//! | [`memory`] | `neo-memory` | §4.1.3 software cache, HBM/DDR/SSD tiers |
//! | [`netsim`] | `neo-netsim` | §3.1/§4.5 fabric + collective cost models |
//! | [`collectives`] | `neo-collectives` | §4.5 process group, quantized comms |
//! | [`embeddings`] | `neo-embeddings` | §4.1 embedding ops, exact optimizers |
//! | [`sharding`] | `neo-sharding` | §4.2 hybrid sharding + placement |
//! | [`dataio`] | `neo-dataio` | §4.4 combined format, ingestion pipeline |
//! | [`dlrm`] | `neo-dlrm-model` | the DLRM model, NE metric, model zoo |
//! | [`trainer`] | `neo-trainer` | §3 sync hybrid-parallel trainer + PS baseline |
//! | [`perfmodel`] | `neo-perfmodel` | §5.1 Eq. 1 roofline, Appendix A |
//! | [`telemetry`] | `neo-telemetry` | §5.2 per-iteration breakdowns, Fig. 14 |
//! | [`monitor`] | `neo-monitor` | live health: frames, per-rank heartbeats, watchdog |
//! | [`workload`] | `neo-workload` | per-table access profiling, exact per-row hit counts |
//! | [`prof`] | `neo-prof` | cross-rank critical path, measured exposed comm, rank skew |
//! | [`sync`] | `neo-sync` | ordered locks + schedule-chaos injector (infra) |
//!
//! # Quickstart
//!
//! ```
//! use neo_dlrm::prelude::*;
//!
//! // a small DLRM, sharded across 2 simulated GPUs, trained synchronously
//! let model = DlrmConfig::tiny(4, 128, 8);
//! let specs: Vec<TableSpec> = model
//!     .tables
//!     .iter()
//!     .enumerate()
//!     .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
//!     .collect();
//! let plan = Planner::new(CostModel::v100_prototype(64), PlannerConfig::default())
//!     .plan(&specs, 2)?;
//! let trainer = SyncTrainer::new(SyncConfig::exact(2, model, plan, 64));
//!
//! let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 128, 3, 4))?;
//! let batches: Vec<_> = (0..5).map(|k| ds.batch(64, k)).collect();
//! let out = trainer.train(&batches, &[], 0, None)?;
//! assert_eq!(out.losses.len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub use neo_collectives as collectives;
pub use neo_dataio as dataio;
pub use neo_dlrm_model as dlrm;
pub use neo_embeddings as embeddings;
pub use neo_memory as memory;
pub use neo_monitor as monitor;
pub use neo_netsim as netsim;
pub use neo_perfmodel as perfmodel;
pub use neo_prof as prof;
pub use neo_sharding as sharding;
pub use neo_sync as sync;
pub use neo_telemetry as telemetry;
pub use neo_tensor as tensor;
pub use neo_trainer as trainer;
pub use neo_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use neo_collectives::{CommDelay, CommHandle, Communicator, ProcessGroup, QuantMode};
    pub use neo_dataio::{
        CombinedBatch, PrefetchReader, SharedFeed, SyntheticConfig, SyntheticDataset,
    };
    pub use neo_dlrm_model::{
        bce_with_logits, Auc, DlrmConfig, DlrmModel, ModelProfile, NormalizedEntropy,
    };
    pub use neo_embeddings::{
        DenseStore, HalfStore, RowStore, RowWiseAdagrad, SparseAdagrad, SparseOptimizer, SparseSgd,
        TieredStore,
    };
    pub use neo_memory::{MemoryHierarchy, Policy, SetAssocCache, UvmPageCache};
    pub use neo_monitor::{HealthEvent, Monitor, MonitorConfig, MonitorReport};
    pub use neo_netsim::{ClusterTopology, CollectiveCost, CollectiveKind};
    pub use neo_perfmodel::{DeviceProfile, IterationModel, ModelScenario};
    pub use neo_prof::{analyze, ProfReport};
    pub use neo_sharding::{CostModel, Planner, PlannerConfig, Scheme, ShardingPlan, TableSpec};
    pub use neo_telemetry::{phase, TelemetrySink, TelemetrySummary};
    pub use neo_tensor::{Tensor2, F16};
    pub use neo_trainer::{PsConfig, PsTrainer, SyncConfig, SyncTrainer};
    pub use neo_workload::WorkloadReport;
}
