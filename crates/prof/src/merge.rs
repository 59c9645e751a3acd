//! Cross-rank merge of a recorded span timeline.
//!
//! A [`neo_telemetry::Snapshot`] stores spans in per-rank completion
//! order. [`MergedTimeline`] regroups them by iteration so the analyzers
//! can look at one iteration across every rank at once, and separates
//! *leaf* spans (phases that do work) from *aggregate* spans
//! ([`Phase::is_aggregate`]: `iteration`, `backward`) that
//! only bracket other phases — attributing time to both a parent and its
//! children would double-count it.
//!
//! Spans carry a [`SpanRecord::lane`] besides their rank: the overlapped
//! (Fig. 9) trainer records a posted collective's in-flight interval,
//! post to wait, on a second track (`lane > 0`) while the rank computes,
//! so spans of one rank may legally interleave in wall-clock. The merge
//! keeps those spans attributed to their owning rank — phase means,
//! iteration leaves and exposure analysis all see them.

use neo_telemetry::{Phase, Snapshot, SpanRecord};

/// Span timeline regrouped by iteration, ranks merged.
#[derive(Debug, Clone, Default)]
pub struct MergedTimeline {
    /// Number of ranks that recorded at least one span.
    pub world: u32,
    /// Distinct iteration indices, ascending.
    pub iters: Vec<u64>,
    spans: Vec<SpanRecord>,
}

impl MergedTimeline {
    /// Folds a snapshot into the merged view.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut world = 0u32;
        let mut iters: Vec<u64> = Vec::new();
        for s in &snap.spans {
            world = world.max(s.rank + 1);
            if !iters.contains(&s.iter) {
                iters.push(s.iter);
            }
        }
        iters.sort_unstable();
        Self {
            world,
            iters,
            spans: snap.spans.clone(),
        }
    }

    /// All spans, in record order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Leaf spans of one iteration across every rank (aggregate phases
    /// excluded), in record order.
    pub fn iteration_leaves(&self, iter: u64) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && !s.phase.is_aggregate())
            .collect()
    }

    /// The `iteration` bracket spans of one iteration (one per rank that
    /// recorded it).
    pub fn iteration_brackets(&self, iter: u64) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && s.phase == Phase::Iteration)
            .collect()
    }

    /// Wall-clock of one iteration across ranks: from the earliest leaf
    /// start to the latest leaf end. `None` when the iteration recorded no
    /// leaf spans.
    pub fn iteration_wall_ns(&self, iter: u64) -> Option<(u64, u64)> {
        let leaves = self.iteration_leaves(iter);
        let lo = leaves.iter().map(|s| s.start_ns).min()?;
        let hi = leaves.iter().map(|s| s.end_ns).max()?;
        Some((lo, hi.max(lo)))
    }

    /// Mean duration in seconds of every leaf phase, averaged over ranks
    /// and iterations.
    pub fn mean_phase_secs(&self) -> Vec<(Phase, f64)> {
        let denom = (self.iters.len().max(1) * self.world.max(1) as usize) as f64;
        let mut totals: Vec<(Phase, u128)> = Vec::new();
        for s in &self.spans {
            if s.phase.is_aggregate() {
                continue;
            }
            if let Some(entry) = totals.iter_mut().find(|(p, _)| *p == s.phase) {
                entry.1 += s.duration_ns() as u128;
            } else {
                totals.push((s.phase, s.duration_ns() as u128));
            }
        }
        totals
            .into_iter()
            .map(|(p, ns)| (p, ns as f64 / denom * 1e-9))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn span(rank: u32, iter: u64, phase: Phase, s: u64, e: u64) -> SpanRecord {
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
    fn comm_lane_spans_are_attributed_to_their_rank() {
        let mut lane = span(1, 0, Phase::InputA2a, 5, 25);
        lane.lane = 1; // neo_collectives::COMM_LANE
        let snap = Snapshot {
            spans: vec![span(0, 0, Phase::EmbLookup, 0, 10), lane],
            ..Snapshot::default()
        };
        let m = MergedTimeline::from_snapshot(&snap);
        assert_eq!(m.world, 2, "lane spans still count toward world");
        assert_eq!(m.iteration_leaves(0).len(), 2);
        let means = m.mean_phase_secs();
        assert!(means.iter().any(|(p, _)| *p == Phase::InputA2a));
    }

    #[test]
    fn merge_groups_by_iteration_and_drops_aggregates_from_leaves() {
        let snap = Snapshot {
            spans: vec![
                span(0, 0, Phase::Iteration, 0, 100),
                span(0, 0, Phase::EmbLookup, 10, 40),
                span(1, 0, Phase::TopMlp, 20, 60),
                span(0, 1, Phase::Backward, 100, 150),
                span(0, 1, Phase::Allreduce, 110, 130),
            ],
            ..Snapshot::default()
        };
        let m = MergedTimeline::from_snapshot(&snap);
        assert_eq!(m.world, 2);
        assert_eq!(m.iters, vec![0, 1]);
        let leaves0 = m.iteration_leaves(0);
        assert_eq!(leaves0.len(), 2);
        assert!(leaves0.iter().all(|s| s.phase != Phase::Iteration));
        assert_eq!(m.iteration_brackets(0).len(), 1);
        assert_eq!(m.iteration_wall_ns(0), Some((10, 60)));
        assert_eq!(m.iteration_wall_ns(1), Some((110, 130)));
        assert_eq!(m.iteration_wall_ns(7), None);
    }

    #[test]
    fn mean_phase_secs_averages_over_ranks_and_iters() {
        let snap = Snapshot {
            spans: vec![
                span(0, 0, Phase::EmbLookup, 0, 2_000_000_000),
                span(1, 0, Phase::EmbLookup, 0, 4_000_000_000),
                span(0, 1, Phase::EmbLookup, 0, 2_000_000_000),
                span(1, 1, Phase::EmbLookup, 0, 4_000_000_000),
                span(0, 0, Phase::Iteration, 0, 9_000_000_000),
            ],
            ..Snapshot::default()
        };
        let m = MergedTimeline::from_snapshot(&snap);
        let means = m.mean_phase_secs();
        assert_eq!(means.len(), 1, "aggregate excluded: {means:?}");
        let (phase, secs) = &means[0];
        assert_eq!(*phase, Phase::EmbLookup);
        // 12 s total over 2 ranks x 2 iters
        assert!((secs - 3.0).abs() < 1e-9);
    }
}
