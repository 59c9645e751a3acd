//! Data ingestion for DLRM training (§4.4).
//!
//! Production DLRMs stream petabytes of click logs from a network store
//! (Tectonic) through a disaggregated pre-processing tier. This crate is the
//! laptop-scale substitute with the same interfaces and the same format
//! optimizations:
//!
//! * [`batch::CombinedBatch`] — the paper's *combined format*: per-table
//!   per-bag `lengths` plus one concatenated `indices` buffer, replacing the
//!   thousand-tensor offset/index layout that bottlenecked Zion.
//! * [`synthetic`] — a seeded synthetic CTR stream: Zipf-distributed
//!   categorical indices, Gaussian dense features, and labels drawn from a
//!   ground-truth teacher so learning curves (normalized entropy, Fig. 10)
//!   are meaningful.
//! * [`ops`] — the custom permute / bucketize / replicate kernels that
//!   redistribute embedding inputs for table-wise, row-wise and column-wise
//!   sharding.
//! * [`reader`] — a double-buffered background prefetcher standing in for
//!   the data-ingestion service, so compute never waits on input;
//! * [`feed`] — a multi-consumer by-index view over the prefetcher, so
//!   every simulated-GPU worker thread of the trainer can claim the same
//!   global batch sequence;
//! * [`shard`] — checksummed on-disk batch shards, the local stand-in for
//!   the Tectonic network store the readers stream from.

#![deny(missing_docs)]

pub mod batch;
pub mod feed;
pub mod ops;
pub mod reader;
pub mod shard;
pub mod synthetic;

pub use batch::CombinedBatch;
pub use feed::SharedFeed;
pub use reader::PrefetchReader;
pub use synthetic::{SyntheticConfig, SyntheticDataset};
