//! Cross-rank critical-path attribution for one iteration.
//!
//! The question Fig. 10 answers — *which phase on which rank bounds
//! wall-clock?* — is answered here by walking the merged leaf-span
//! timeline backwards from the latest end:
//!
//! 1. at time `t`, among leaf spans with `start < t <= end`, charge the
//!    interval `[start, t]` to the span with the **latest start** (the
//!    most immediate reason the iteration had not finished earlier), then
//!    continue from that start;
//! 2. when no span covers the instant before `t`, charge the gap back to
//!    the latest earlier span end to [`IDLE`] (all ranks between phases —
//!    in a rendezvous-based run this is pure scheduling overhead).
//!
//! A posted collective's in-flight span (lane > 0) runs while its rank
//! computes on lane 0, so the walk sees only its *exposed* part: the time
//! after the rank's last lane-0 leaf that ended inside it (none, when a
//! lane-0 leaf is still open at its end). Otherwise the span, having the
//! later start at every gap between the rank's compute leaves, would
//! absorb all of them and name the collective the bound of an iteration it
//! hid behind compute.
//!
//! `t` strictly decreases, so the walk terminates, the segments partition
//! `[earliest start, latest end]` exactly (total == wall-clock), and no
//! idle segment can overlap a lane-0 leaf or an exposed part — which
//! yields the invariants the property tests pin down: non-idle
//! critical-path length is at least the longest of those intervals and at
//! most the wall-clock, and no lane > 0 segment overlaps a lane-0 leaf of
//! its rank.

use crate::merge::MergedTimeline;
use neo_telemetry::{Phase, SpanRecord};

/// Segment phase where no rank had a leaf span open; reports print it as
/// `idle`.
pub const IDLE: Option<Phase> = None;

/// A segment phase's name, [`IDLE`] included.
fn label(phase: Option<Phase>) -> &'static str {
    phase.map_or("idle", Phase::as_str)
}

/// One attributed interval of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Rank charged for the interval (0 for [`IDLE`] segments).
    pub rank: u32,
    /// Telemetry lane of the charged span (0 for [`IDLE`] segments).
    pub lane: u32,
    /// The charged phase, or [`IDLE`].
    pub phase: Option<Phase>,
    /// Interval start, ns.
    pub start_ns: u64,
    /// Interval end, ns (exclusive; `end_ns > start_ns`).
    pub end_ns: u64,
}

impl Segment {
    /// Interval length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The critical path through one iteration.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Iteration index.
    pub iter: u64,
    /// Wall-clock covered, ns (latest leaf end − earliest leaf start).
    pub wall_ns: u64,
    /// Attributed segments in ascending time order; their durations sum
    /// to exactly [`CriticalPath::wall_ns`].
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Total attributed to non-[`IDLE`] segments, ns.
    pub fn busy_ns(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.phase != IDLE)
            .map(Segment::duration_ns)
            .sum()
    }

    /// Total attributed to one phase across all segments, ns.
    pub fn phase_ns(&self, phase: Option<Phase>) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .map(Segment::duration_ns)
            .sum()
    }

    /// `(phase, rank, total ns)` aggregated over segments, largest first;
    /// [`IDLE`] rows keep rank 0.
    pub fn by_phase(&self) -> Vec<(Option<Phase>, u32, u64)> {
        let mut acc: Vec<(Option<Phase>, u32, u64)> = Vec::new();
        for s in &self.segments {
            if let Some(e) = acc
                .iter_mut()
                .find(|(n, r, _)| *n == s.phase && *r == s.rank)
            {
                e.2 += s.duration_ns();
            } else {
                acc.push((s.phase, s.rank, s.duration_ns()));
            }
        }
        acc.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then(label(a.0).cmp(label(b.0)))
                .then(a.1.cmp(&b.1))
        });
        acc
    }

    /// The `(phase, rank, ns)` contributing the most critical-path time,
    /// ignoring [`IDLE`] — the phase that bounds this iteration.
    pub fn bounding(&self) -> Option<(Phase, u32, u64)> {
        let mut rows = self.by_phase().into_iter();
        rows.find_map(|(p, rank, ns)| Some((p?, rank, ns)))
    }
}

/// Computes the critical path of iteration `iter` from the merged
/// timeline. Returns `None` when the iteration recorded no leaf spans;
/// an iteration whose leaf spans are all zero-length yields an empty
/// segment list with `wall_ns == 0`.
pub fn critical_path(m: &MergedTimeline, iter: u64) -> Option<CriticalPath> {
    let all = m.iteration_leaves(iter);
    let (lo, hi) = m.iteration_wall_ns(iter)?;
    let leaves: Vec<SpanRecord> = all.iter().filter_map(|s| exposed_part(s, &all)).collect();
    let mut segments: Vec<Segment> = Vec::new();
    let mut t = hi;
    while t > lo {
        // active: covers the instant just before t
        let active = leaves
            .iter()
            .filter(|s| s.start_ns < t && s.end_ns >= t)
            .max_by_key(|s| (s.start_ns, s.rank));
        if let Some(s) = active {
            segments.push(Segment {
                rank: s.rank,
                lane: s.lane,
                phase: Some(s.phase),
                start_ns: s.start_ns,
                end_ns: t,
            });
            t = s.start_ns;
        } else {
            // nobody active: idle back to the latest earlier end
            let prev = leaves
                .iter()
                .map(|s| s.end_ns)
                .filter(|&e| e < t)
                .max()
                .unwrap_or(lo)
                .max(lo);
            segments.push(Segment {
                rank: 0,
                lane: 0,
                phase: IDLE,
                start_ns: prev,
                end_ns: t,
            });
            t = prev;
        }
    }
    segments.reverse();
    Some(CriticalPath {
        iter,
        wall_ns: hi - lo,
        segments,
    })
}

/// The part of leaf `s` the walk may charge: a lane-0 leaf whole, a
/// lane > 0 span from its rank's last lane-0 activity inside it to its
/// end, or `None` when a lane-0 leaf of its rank is open at its end.
fn exposed_part(s: &SpanRecord, leaves: &[&SpanRecord]) -> Option<SpanRecord> {
    if s.lane == 0 {
        return Some(s.clone());
    }
    let start_ns = leaves
        .iter()
        .filter(|c| c.lane == 0 && c.rank == s.rank)
        .filter(|c| c.start_ns < s.end_ns && c.end_ns > s.start_ns)
        .map(|c| c.end_ns.min(s.end_ns))
        .fold(s.start_ns, u64::max);
    (start_ns < s.end_ns).then(|| SpanRecord {
        start_ns,
        ..s.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_telemetry::Snapshot;

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

    fn merged(spans: Vec<SpanRecord>) -> MergedTimeline {
        MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        })
    }

    #[test]
    fn serial_single_rank_path_is_the_spans_themselves() {
        let m = merged(vec![
            span(0, 0, Phase::FwdBottomMlp, 0, 10),
            span(0, 0, Phase::EmbLookup, 10, 30),
            span(0, 0, Phase::TopMlp, 30, 35),
        ]);
        let cp = critical_path(&m, 0).expect("path");
        assert_eq!(cp.wall_ns, 35);
        assert_eq!(cp.busy_ns(), 35);
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.bounding(), Some((Phase::EmbLookup, 0, 20)));
        // segments are in ascending time order and partition the wall
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
    }

    #[test]
    fn straggler_rank_wins_the_path_and_gaps_become_idle() {
        // rank 0 finishes early; rank 1 straggles in emb_lookup; then a
        // gap before a final shared phase.
        let m = merged(vec![
            span(0, 3, Phase::EmbLookup, 0, 10),
            span(1, 3, Phase::EmbLookup, 0, 40),
            span(0, 3, Phase::AlltoallFwd, 50, 60),
        ]);
        let cp = critical_path(&m, 3).expect("path");
        assert_eq!(cp.wall_ns, 60);
        // [0,40] rank 1 lookup, [40,50] idle, [50,60] alltoall
        assert_eq!(cp.phase_ns(Some(Phase::EmbLookup)), 40);
        assert_eq!(cp.phase_ns(IDLE), 10);
        assert_eq!(cp.phase_ns(Some(Phase::AlltoallFwd)), 10);
        assert_eq!(cp.bounding(), Some((Phase::EmbLookup, 1, 40)));
        assert_eq!(cp.busy_ns(), 50);
    }

    #[test]
    fn overlapping_spans_charge_the_latest_start() {
        // comm [0,30] overlapped by compute [10,30]: the walk charges
        // compute for [10,30] (latest start) and comm only for [0,10].
        let m = merged(vec![
            span(0, 0, Phase::Allreduce, 0, 30),
            span(0, 0, Phase::TopMlpBwd, 10, 30),
        ]);
        let cp = critical_path(&m, 0).expect("path");
        assert_eq!(cp.phase_ns(Some(Phase::TopMlpBwd)), 20);
        assert_eq!(cp.phase_ns(Some(Phase::Allreduce)), 10);
        assert_eq!(cp.busy_ns(), 30);
    }

    #[test]
    fn in_flight_span_is_charged_only_after_its_ranks_last_compute() {
        // a collective posted at 5 and waited on until 40, while rank 0
        // computes [0,10] and [12,30]: the gaps at [10,12] stay idle and
        // only the wait [30,40] is charged to the collective
        let mut posted = span(0, 0, Phase::InputA2a, 5, 40);
        posted.lane = 1;
        let m = merged(vec![
            span(0, 0, Phase::FwdBottomMlp, 0, 10),
            posted.clone(),
            span(0, 0, Phase::EmbLookup, 12, 30),
        ]);
        let cp = critical_path(&m, 0).expect("path");
        assert_eq!(cp.wall_ns, 40);
        assert_eq!(cp.phase_ns(Some(Phase::InputA2a)), 10);
        assert_eq!(cp.phase_ns(IDLE), 2);
        assert_eq!(cp.bounding(), Some((Phase::EmbLookup, 0, 18)));
        // a compute leaf still open at the wait hides the whole flight
        let m = merged(vec![posted, span(0, 0, Phase::EmbLookup, 12, 45)]);
        let cp = critical_path(&m, 0).expect("path");
        assert_eq!(cp.phase_ns(Some(Phase::InputA2a)), 0);
        assert_eq!(cp.phase_ns(IDLE), 7);
    }

    #[test]
    fn missing_iteration_yields_none() {
        let m = merged(vec![span(0, 0, Phase::TopMlp, 0, 5)]);
        assert!(critical_path(&m, 9).is_none());
    }
}
