//! The span vocabulary: one closed enum of training phases.
//!
//! Every span the live trainer records and every operator the `perfmodel`
//! simulator schedules is a [`Phase`], so measured and simulated timelines
//! agree on vocabulary because the type admits no other name. The names on
//! disk are [`Phase::as_str`].
//!
//! The `&str` constants ([`ITERATION`], …) are aliases for the standalone
//! `benchmark/` package, which still names phases by string; they go when
//! it reads [`Phase`] itself.

use crate::json::Json;
use std::fmt;

/// One phase of a training iteration, in rough execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Whole training iteration (outermost span).
    Iteration,
    /// Redistribution of sparse indices to embedding-shard owners.
    InputA2a,
    /// Host-to-device input transfer (simulated pipeline only today).
    Htod,
    /// Bottom-MLP forward over dense features.
    FwdBottomMlp,
    /// Embedding-table lookup / pooling on the owning rank.
    EmbLookup,
    /// Forward AlltoAll returning pooled embedding vectors.
    AlltoallFwd,
    /// Reduce-scatter for row-wise sharded tables.
    ReduceScatter,
    /// Pairwise dot-product feature interaction.
    Interaction,
    /// Top-MLP forward.
    TopMlp,
    /// Backward pass (outer span over all backward phases).
    Backward,
    /// Top-MLP backward.
    TopMlpBwd,
    /// Interaction backward.
    InteractionBwd,
    /// Backward AlltoAll returning pooled-embedding gradients.
    AlltoallBwd,
    /// All-gather for row-wise sharded gradients.
    Allgather,
    /// Bottom-MLP backward.
    BwdBottomMlp,
    /// Sparse (embedding) optimizer apply.
    SparseOptim,
    /// Dense (MLP) optimizer apply.
    DenseOptim,
    /// AllReduce of dense gradients (combined span, serial schedule).
    Allreduce,
    /// AllReduce of the top-MLP gradient half (overlapped-schedule split,
    /// posted as soon as the top-MLP backward finishes).
    AllreduceTop,
    /// AllReduce of the bottom-MLP gradient half (overlapped-schedule
    /// split, posted as soon as the bottom-MLP backward finishes).
    AllreduceBot,
}

impl Phase {
    /// Every phase, in declaration order: `ALL[p as usize] == p`.
    pub const ALL: [Phase; 20] = [
        Phase::Iteration,
        Phase::InputA2a,
        Phase::Htod,
        Phase::FwdBottomMlp,
        Phase::EmbLookup,
        Phase::AlltoallFwd,
        Phase::ReduceScatter,
        Phase::Interaction,
        Phase::TopMlp,
        Phase::Backward,
        Phase::TopMlpBwd,
        Phase::InteractionBwd,
        Phase::AlltoallBwd,
        Phase::Allgather,
        Phase::BwdBottomMlp,
        Phase::SparseOptim,
        Phase::DenseOptim,
        Phase::Allreduce,
        Phase::AllreduceTop,
        Phase::AllreduceBot,
    ];

    /// The phase's name in every artifact.
    pub const fn as_str(self) -> &'static str {
        match self {
            Phase::Iteration => "iteration",
            Phase::InputA2a => "input_a2a",
            Phase::Htod => "htod",
            Phase::FwdBottomMlp => "fwd_bottom_mlp",
            Phase::EmbLookup => "emb_lookup",
            Phase::AlltoallFwd => "alltoall_fwd",
            Phase::ReduceScatter => "reduce_scatter",
            Phase::Interaction => "interaction",
            Phase::TopMlp => "top_mlp",
            Phase::Backward => "backward",
            Phase::TopMlpBwd => "top_mlp_bwd",
            Phase::InteractionBwd => "interaction_bwd",
            Phase::AlltoallBwd => "alltoall_bwd",
            Phase::Allgather => "allgather",
            Phase::BwdBottomMlp => "bwd_bottom_mlp",
            Phase::SparseOptim => "sparse_optim",
            Phase::DenseOptim => "dense_optim",
            Phase::Allreduce => "allreduce",
            Phase::AllreduceTop => "allreduce_top",
            Phase::AllreduceBot => "allreduce_bot",
        }
    }

    /// The phase named `name` in an artifact; `None` outside the
    /// vocabulary.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == name)
    }

    /// Whether the phase is communication (exposed-comm accounting, paper
    /// Fig. 14).
    pub const fn is_comm(self) -> bool {
        matches!(
            self,
            Phase::InputA2a
                | Phase::AlltoallFwd
                | Phase::ReduceScatter
                | Phase::AlltoallBwd
                | Phase::Allgather
                | Phase::Allreduce
                | Phase::AllreduceTop
                | Phase::AllreduceBot
        )
    }

    /// Whether the phase only brackets other phases rather than doing work
    /// itself; critical-path attribution skips these so time is never
    /// double-counted against both a parent and its leaf spans.
    pub const fn is_aggregate(self) -> bool {
        matches!(self, Phase::Iteration | Phase::Backward)
    }
}

impl fmt::Display for Phase {
    /// The [`Phase::as_str`] name, honouring width and alignment.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

impl From<Phase> for Json {
    fn from(p: Phase) -> Self {
        p.as_str().into()
    }
}

/// [`Phase::Iteration`]'s name.
pub const ITERATION: &str = Phase::Iteration.as_str();
/// [`Phase::FwdBottomMlp`]'s name.
pub const FWD_BOTTOM_MLP: &str = Phase::FwdBottomMlp.as_str();
/// [`Phase::EmbLookup`]'s name.
pub const EMB_LOOKUP: &str = Phase::EmbLookup.as_str();
/// [`Phase::Interaction`]'s name.
pub const INTERACTION: &str = Phase::Interaction.as_str();
/// [`Phase::TopMlp`]'s name.
pub const TOP_MLP: &str = Phase::TopMlp.as_str();
/// [`Phase::TopMlpBwd`]'s name.
pub const TOP_MLP_BWD: &str = Phase::TopMlpBwd.as_str();
/// [`Phase::InteractionBwd`]'s name.
pub const INTERACTION_BWD: &str = Phase::InteractionBwd.as_str();
/// [`Phase::BwdBottomMlp`]'s name.
pub const BWD_BOTTOM_MLP: &str = Phase::BwdBottomMlp.as_str();
/// [`Phase::SparseOptim`]'s name.
pub const SPARSE_OPTIM: &str = Phase::SparseOptim.as_str();
/// [`Phase::DenseOptim`]'s name.
pub const DENSE_OPTIM: &str = Phase::DenseOptim.as_str();
/// [`Phase::Allreduce`]'s name.
pub const ALLREDUCE: &str = Phase::Allreduce.as_str();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_indexed_by_discriminant_and_names_round_trip() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p:?} out of place in ALL");
            assert_eq!(Phase::from_name(p.as_str()), Some(p));
            assert!(
                !Phase::ALL[i + 1..].iter().any(|q| q.as_str() == p.as_str()),
                "duplicate phase name {p}"
            );
        }
        assert_eq!(Phase::from_name("warmup"), None);
        assert_eq!(format!("[{:<8}]", Phase::Htod), "[htod    ]");
    }
}
