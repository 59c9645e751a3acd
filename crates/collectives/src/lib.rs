//! Functional collective communication for simulated multi-GPU training.
//!
//! The original system runs NCCL over RoCE/NVLink through the PyTorch
//! ProcessGroup API (§4.5). Here each "GPU" is a thread, and a
//! [`Communicator`] provides the same collectives with real data movement
//! through shared memory. There is one family of ten entry points:
//!
//! * [`Communicator::all_reduce_shared`] / [`Communicator::all_reduce_mean`]
//!   — gradient sync for data-parallel MLPs, and the loss mean;
//! * [`Communicator::all_to_all_shared`] /
//!   [`Communicator::all_to_all_shared_quant`] — index and
//!   pooled-embedding exchange for model-parallel tables, optionally in
//!   the FP16/BF16 wire formats of §5.3.2 ([`quant`]);
//! * [`Communicator::reduce_scatter`] / [`Communicator::all_gather`] —
//!   row-wise sharded tables (§4.2.2);
//! * [`Communicator::barrier`];
//! * `post_all_to_all_shared` / `post_all_to_all_shared_quant` /
//!   `post_all_reduce_shared` — the same three exchanges *started* on a
//!   dedicated per-rank comm-lane thread, returning a [`CommHandle`] to
//!   `wait` on.
//!
//! The two critical-path collectives hand payloads over as `Arc`s: ranks
//! deposit pointers instead of copying buffers into the rendezvous,
//! receivers alias the sender's buffer, and mutation takes a copy-on-write
//! branch only when the refcount demands it. Byte accounting reports the
//! *logical* payload size (after any quantization), so [`CommStats`] and
//! the `comm.*.bytes` telemetry say what a real wire would carry.
//!
//! Reductions always accumulate in rank order, so results are bit-wise
//! deterministic run-to-run — the property §4.1.2 of the paper relies on.
//!
//! # One schedule, movable waits
//!
//! The paper's pipelining (§4.3, Fig. 9) is one dependency graph whose
//! collective *waits* are placed differently, and this API is shaped for
//! that: a posted collective and its blocking form run the same exchange
//! and account the same [`CommStats`], so a trainer writes its iteration
//! once and chooses per collective whether it completes inline on the
//! caller or rides the comm lane behind compute until its `wait`. The
//! lane drives a second, independent rendezvous group, so posted
//! exchanges also overlap blocking collectives issued meanwhile. The
//! blocking forms deliberately do *not* go through the lane: a lane hop
//! costs about as much as the rendezvous itself.
//!
//! An opt-in [`CommDelay`] derived from a `neo_netsim::ClusterTopology`
//! link sleeps the modeled wire time per op, on whichever thread runs the
//! exchange, giving the shared-memory collectives realistic, overlappable
//! cost. Off by default and wall-clock only: values never change.
//!
//! # Example
//!
//! ```
//! use neo_collectives::ProcessGroup;
//! use std::sync::Arc;
//! use std::thread;
//!
//! let comms = ProcessGroup::new(4);
//! let handles: Vec<_> = comms
//!     .into_iter()
//!     .map(|mut c| {
//!         thread::spawn(move || {
//!             let x = Arc::new(vec![c.rank() as f32 + 1.0]);
//!             c.all_reduce_shared(x).unwrap()[0]
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().unwrap(), 10.0); // 1+2+3+4 on every rank
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

mod delay;
mod group;
mod nonblocking;
pub mod quant;

pub use delay::CommDelay;
pub use group::{CollectiveError, CommStats, Communicator, ProcessGroup};
pub use nonblocking::{CommHandle, COMM_LANE};
pub use quant::{QuantError, QuantMode};
