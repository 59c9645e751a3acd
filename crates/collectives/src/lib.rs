//! Functional collective communication for simulated multi-GPU training.
//!
//! The original system runs NCCL over RoCE/NVLink through the PyTorch
//! ProcessGroup API (§4.5). Here each "GPU" is a thread, and a
//! [`Communicator`] provides the same collectives with real data movement
//! through shared memory. There is one family of nine entry points:
//!
//! * [`Communicator::all_reduce_shared`] — gradient sync for
//!   data-parallel MLPs, whose bucket also carries the loss;
//! * [`Communicator::all_to_all_shared`] /
//!   [`Communicator::all_to_all_shared_quant`] — index and
//!   pooled-embedding exchange for model-parallel tables, optionally in
//!   the FP16/BF16 wire formats of §5.3.2 ([`quant`]);
//! * [`Communicator::reduce_scatter`] / [`Communicator::all_gather`] —
//!   row-wise sharded tables (§4.2.2);
//! * [`Communicator::barrier`];
//! * `post_all_to_all_shared` / `post_all_to_all_shared_quant` /
//!   `post_all_reduce_shared` — the same three exchanges *posted*,
//!   returning a [`CommHandle`] to `wait` on.
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
//! that. Every collective is split in two on the group's one ring of
//! epoch-tagged entries: the post deposits this rank's payload and
//! arrives without waiting, and the wait blocks until every rank has
//! arrived, then reads. A blocking collective is its post followed at
//! once by its wait, so a posted collective and its blocking form run the
//! same code and account the same [`CommStats`]; a trainer writes its
//! iteration once and chooses per collective how much compute sits
//! between post and wait. No thread runs on a rank's behalf: a
//! shared-memory collective moves only `Arc` pointers, so its arrival is
//! all that has to be split from its read.
//!
//! An opt-in [`CommDelay`] derived from a `neo_netsim::ClusterTopology`
//! link gives the shared-memory collectives a realistic, overlappable
//! cost: a post stamps when its payload would be off the modelled wire,
//! and the wait sleeps only for what is left, yielding the last stretch
//! that a sleep would overrun. Off by default and wall-clock only:
//! values never change.
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

#![deny(missing_docs)]

mod delay;
mod group;
mod nonblocking;
pub mod quant;
mod ring;

pub use delay::CommDelay;
pub use group::{CollectiveError, CommStats, Communicator, Op, ProcessGroup};
pub use nonblocking::{CommHandle, COMM_LANE};
pub use quant::{QuantError, QuantMode};
