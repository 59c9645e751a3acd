//! Straggler / load-skew attribution (§4.2's imbalance lens, Fig. 10).
//!
//! For every leaf phase: per-rank p50/p95 span durations (exact
//! order-statistics over the recorded spans, not histogram estimates),
//! the max-over-ranks vs. mean-over-ranks ratio, and a top-k ranking of
//! the most skewed phases. A ratio of 1.0 means perfectly balanced; the
//! paper's embedding shards routinely show ratios well above that until
//! the planner rebalances them.

use crate::merge::MergedTimeline;
use neo_telemetry::Phase;
// Exact nearest-rank percentile — the same kernel `neo-monitor`'s online
// straggler watchdog uses, so live and post-hoc skew agree on the math.
use neo_telemetry::stats::percentile_ns;

/// Per-rank duration statistics for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPhaseStats {
    /// Rank.
    pub rank: u32,
    /// Spans recorded by this rank for the phase.
    pub count: usize,
    /// Median span duration, ms.
    pub p50_ms: f64,
    /// 95th-percentile span duration, ms.
    pub p95_ms: f64,
    /// Mean span duration, ms.
    pub mean_ms: f64,
}

/// Cross-rank skew summary for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSkew {
    /// The phase.
    pub phase: Phase,
    /// Mean over ranks of the per-rank mean duration, ms.
    pub mean_ms: f64,
    /// Max over ranks of the per-rank mean duration, ms.
    pub max_ms: f64,
    /// `max_ms / mean_ms` (1.0 when balanced or when the phase is free).
    pub skew: f64,
    /// Rank that owns `max_ms`.
    pub max_rank: u32,
    /// Per-rank statistics, rank-ascending.
    pub per_rank: Vec<RankPhaseStats>,
}

/// Computes per-phase skew over every leaf phase in the merged timeline,
/// sorted most-skewed first (ties broken by `max_ms` descending).
pub fn phase_skew(m: &MergedTimeline) -> Vec<PhaseSkew> {
    let mut phases: Vec<Phase> = Vec::new();
    for s in m.spans() {
        if !s.phase.is_aggregate() && !phases.contains(&s.phase) {
            phases.push(s.phase);
        }
    }
    let mut out: Vec<PhaseSkew> = phases
        .into_iter()
        .map(|phase| {
            let mut per_rank: Vec<RankPhaseStats> = Vec::new();
            for rank in 0..m.world {
                let mut durs: Vec<u64> = m
                    .spans()
                    .iter()
                    .filter(|s| s.phase == phase && s.rank == rank)
                    .map(|s| s.duration_ns())
                    .collect();
                if durs.is_empty() {
                    continue;
                }
                durs.sort_unstable();
                let total: u128 = durs.iter().map(|&d| d as u128).sum();
                per_rank.push(RankPhaseStats {
                    rank,
                    count: durs.len(),
                    p50_ms: percentile_ns(&durs, 0.50) as f64 * 1e-6,
                    p95_ms: percentile_ns(&durs, 0.95) as f64 * 1e-6,
                    mean_ms: total as f64 / durs.len() as f64 * 1e-6,
                });
            }
            let mean_ms = if per_rank.is_empty() {
                0.0
            } else {
                per_rank.iter().map(|r| r.mean_ms).sum::<f64>() / per_rank.len() as f64
            };
            let (max_ms, max_rank) = per_rank
                .iter()
                .map(|r| (r.mean_ms, r.rank))
                .fold((0.0f64, 0u32), |acc, x| if x.0 > acc.0 { x } else { acc });
            let skew = if mean_ms > 0.0 { max_ms / mean_ms } else { 1.0 };
            PhaseSkew {
                phase,
                mean_ms,
                max_ms,
                skew,
                max_rank,
                per_rank,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.skew
            .total_cmp(&a.skew)
            .then(b.max_ms.total_cmp(&a.max_ms))
            .then(a.phase.as_str().cmp(b.phase.as_str()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_telemetry::{Snapshot, SpanRecord};

    fn span(rank: u32, iter: u64, phase: Phase, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            rank,
            iter,
            phase,
            lane: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn skew_ranks_imbalanced_phases_first() {
        let spans = vec![
            // emb_lookup: rank 0 takes 10, rank 1 takes 30 -> skew 1.5
            span(0, 0, Phase::EmbLookup, 0, 10),
            span(1, 0, Phase::EmbLookup, 0, 30),
            // top_mlp: both take 10 -> skew 1.0
            span(0, 0, Phase::TopMlp, 10, 20),
            span(1, 0, Phase::TopMlp, 30, 40),
            // aggregate: excluded entirely
            span(0, 0, Phase::Iteration, 0, 40),
        ];
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        });
        let skews = phase_skew(&m);
        assert_eq!(skews.len(), 2, "{skews:?}");
        assert_eq!(skews[0].phase, Phase::EmbLookup);
        assert!((skews[0].skew - 1.5).abs() < 1e-9);
        assert_eq!(skews[0].max_rank, 1);
        assert!((skews[1].skew - 1.0).abs() < 1e-9);
        assert_eq!(skews[0].per_rank.len(), 2);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let spans: Vec<SpanRecord> = (1..=100u64)
            .map(|k| span(0, k, Phase::Interaction, 0, k * 1_000_000))
            .collect();
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        });
        let skews = phase_skew(&m);
        let r0 = &skews[0].per_rank[0];
        assert_eq!(r0.count, 100);
        assert!((r0.p50_ms - 50.0).abs() < 1e-9);
        assert!((r0.p95_ms - 95.0).abs() < 1e-9);
    }
}
