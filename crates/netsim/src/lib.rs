//! Network substrate: the ZionEX scale-up/scale-out fabric and α-β cost
//! models for the collectives that dominate DLRM training.
//!
//! The paper provisions each GPU with a dedicated RoCE NIC (scale-out) in
//! addition to the intra-node NVLink/NVSwitch fabric (scale-up), and shows
//! (Fig. 20) that at 128 GPUs AlltoAll saturates at ~7 GB/s per GPU —
//! limited purely by the scale-out link — while AllReduce reaches ~60 GB/s
//! bus bandwidth because its hierarchical schedule exploits NVLink.
//!
//! [`ClusterTopology`] captures link speeds and shapes;
//! [`collective`] prices AlltoAll(v), AllReduce, ReduceScatter and
//! AllGather on a given topology, reproducing those curves.

#![deny(missing_docs)]

pub mod collective;
pub mod topology;

pub use collective::{CollectiveCost, CollectiveKind};
pub use topology::{ClusterTopology, LinkSpec};
