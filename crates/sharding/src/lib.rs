//! Hybrid embedding-table sharding (§3.0.1, §4.2).
//!
//! DLRM embedding tables vary over four orders of magnitude in size and
//! cost, and the AlltoAll that ships their pooled outputs sits on the
//! critical path — so placement quality is directly visible in throughput
//! (the paper's Fig. 13 waterfall gains 20% from sharding alone). This
//! crate provides:
//!
//! * [`spec::TableSpec`] — what the sharder knows about each table
//!   (rows, dimension, pooling size);
//! * [`scheme::Scheme`] — the four sharding primitives: table-wise,
//!   row-wise, column-wise and data-parallel, composable per table;
//! * [`scheme::ShardingPlan::shards`] — the one statement of shard
//!   geometry: every [`scheme::Shard`] (a `rows × width` rectangle of a
//!   table on a worker) the plan creates, which the memory accounting,
//!   the planner's cost and lookup predictions, and the trainer all fold
//!   over;
//! * [`cost::CostModel`] — the §3.0.1 cost function: input distribution
//!   ∝ `L`, lookup ∝ `L·D`, output communication ∝ `D`;
//! * [`partition`] — the two placement heuristics evaluated in §4.2.5:
//!   greedy (sorted first-fit onto the lightest worker) and the
//!   Karmarkar–Karp largest-differencing method;
//! * [`planner::Planner`] — end-to-end: pick a scheme per table, expand to
//!   shards, price them, and balance across the cluster.

#![deny(missing_docs)]

pub mod cost;
pub mod partition;
pub mod planner;
pub mod scheme;
pub mod spec;

pub use cost::CostModel;
pub use planner::{Planner, PlannerConfig};
pub use scheme::{Scheme, Shard, ShardingPlan, TablePlacement};
pub use spec::TableSpec;
