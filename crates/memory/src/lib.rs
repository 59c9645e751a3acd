//! Memory-hierarchy substrate: the multi-level (HBM + DDR + SSD) storage
//! model of the ZionEX platform and the 32-way set-associative software
//! cache the paper builds on top of it (§4.1.3).
//!
//! The paper's key claims in this area are:
//!
//! * a *row-granular* software cache with LRU/LFU replacement beats CUDA
//!   unified memory (UVM), which migrates whole pages, by ~15% end-to-end;
//! * the cache's associativity (32 ways) matches the GPU warp size;
//! * HBM acting as a cache over DDR/SSD lets models far larger than
//!   aggregate HBM (e.g. the 12T-parameter model F1) train at high
//!   throughput.
//!
//! This crate reproduces the *mechanism*: [`cache::SetAssocCache`] is a real
//! set-associative cache with pluggable replacement policy and full
//! hit/miss/writeback accounting, [`uvm::UvmPageCache`] is the
//! page-granularity baseline, and [`tier`] describes capacities and
//! bandwidths of each level so traffic counts convert into modelled time.

#![deny(missing_docs)]

pub mod cache;
pub mod tier;
pub mod uvm;

pub use cache::{CacheStats, Policy, SetAssocCache};
pub use tier::{MemoryHierarchy, Tier, TierSpec};
pub use uvm::UvmPageCache;
