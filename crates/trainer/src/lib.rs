//! Distributed DLRM training — the paper's core contribution (§3, §4).
//!
//! * [`sync`] — the synchronous hybrid-parallel trainer: embedding tables
//!   are model-parallel per a [`neo_sharding::ShardingPlan`] (table-wise /
//!   row-wise / column-wise / data-parallel), MLPs are data-parallel with
//!   AllReduce gradient sync, and the pooled-embedding exchange runs
//!   through real (optionally FP16/BF16-quantized) AlltoAll collectives.
//!   Each simulated GPU is a thread with its own [`neo_collectives::Communicator`].
//! * [`ps`] — the asynchronous parameter-server baseline the paper compares
//!   against (§2): Hogwild-style embedding updates and stale dense
//!   replicas, used for the Fig. 10 quality comparison and the 40×/3×
//!   headline.
//! * [`init`] — position-deterministic parameter initialization, so a
//!   sharded table holds bit-identical values to the single-device
//!   reference regardless of how it is partitioned.

#![deny(missing_docs)]

pub mod init;
pub mod ps;
pub mod sync;

pub use ps::{PsConfig, PsTrainer};
pub use sync::{DenseOpt, SparseOpt, SyncConfig, SyncTrainer, TrainOutput};
