//! Exposed vs. overlapped communication accounting (Fig. 14), measured.
//!
//! An interval computation over the merged span timeline that does not
//! depend on the schedule: per rank, take the union of all
//! communication-phase intervals — whatever lane they were recorded on —
//! and subtract the merged cover of that rank's compute leaf spans. What
//! remains is wall-clock where communication ran and no compute did:
//! the *exposed* communication. On the serial `trainer::sync` schedule
//! nothing overlaps, so this degenerates to plain comm time over
//! iteration time; on the overlapped (Fig. 9) schedule a posted
//! collective's in-flight span (lane `COMM_LANE`) runs alongside the
//! rank's compute and only its uncovered remainder counts.

use crate::merge::MergedTimeline;
use neo_telemetry::Phase;

/// Exposed-communication report for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposedComm {
    /// Mean iteration time per rank, ms (from the `iteration` bracket).
    pub iter_ms: f64,
    /// Mean total communication time per iteration per rank, ms (every
    /// comm nanosecond, overlapped or not).
    pub comm_ms: f64,
    /// Mean *exposed* communication per iteration per rank, ms: comm
    /// intervals minus the same rank's concurrent compute spans.
    pub exposed_ms: f64,
    /// Measured exposed fraction: `exposed_ms / iter_ms`.
    pub measured_fraction: f64,
    /// `(collective phase, mean ms per iteration per rank)`, largest
    /// first, zero-cost collectives omitted.
    pub per_collective: Vec<(Phase, f64)>,
}

/// Sorts and merges intervals into a disjoint ascending cover.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Computes the exposed-communication report from a merged timeline.
/// Returns `None` when the timeline has no `iteration` bracket spans (an
/// unarmed or empty run).
pub fn exposed_comm(m: &MergedTimeline) -> Option<ExposedComm> {
    let mut bracket_total_ns = 0u128;
    let mut bracket_count = 0u64;
    for iter in &m.iters {
        for b in m.iteration_brackets(*iter) {
            bracket_total_ns += b.duration_ns() as u128;
            bracket_count += 1;
        }
    }
    if bracket_count == 0 {
        return None;
    }
    let iter_ms = bracket_total_ns as f64 / bracket_count as f64 * 1e-6;

    let mut per_collective: Vec<(Phase, f64)> = m
        .mean_phase_secs()
        .into_iter()
        .filter(|(p, _)| p.is_comm())
        .map(|(p, secs)| (p, secs * 1e3))
        .filter(|(_, ms)| *ms > 0.0)
        .collect();
    per_collective.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.as_str().cmp(b.0.as_str())));
    let comm_ms: f64 = per_collective.iter().map(|(_, ms)| ms).sum();

    // per rank, the union of comm intervals (any lane) minus the merged
    // cover of the rank's compute leaf spans
    let mut exposed_total_ns = 0u64;
    for rank in 0..m.world {
        let comm: Vec<(u64, u64)> = m
            .spans()
            .iter()
            .filter(|s| s.rank == rank && s.phase.is_comm())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let cover = merge_intervals(
            m.spans()
                .iter()
                .filter(|s| s.rank == rank && !s.phase.is_comm() && !s.phase.is_aggregate())
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        );
        for (s, e) in merge_intervals(comm) {
            let covered: u64 = cover
                .iter()
                .map(|&(cs, ce)| e.min(ce).saturating_sub(s.max(cs)))
                .sum();
            exposed_total_ns += (e - s).saturating_sub(covered);
        }
    }
    let denom = (m.iters.len().max(1) * m.world.max(1) as usize) as f64;
    let exposed_ms = exposed_total_ns as f64 / denom * 1e-6;
    let measured_fraction = if iter_ms > 0.0 {
        (exposed_ms / iter_ms).clamp(0.0, 1.0)
    } else {
        0.0
    };

    Some(ExposedComm {
        iter_ms,
        comm_ms,
        exposed_ms,
        measured_fraction,
        per_collective,
    })
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

    fn lane_span(rank: u32, iter: u64, phase: Phase, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            rank,
            iter,
            phase,
            lane: 1,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn serialized_timeline_measures_comm_over_wall() {
        // One rank, one iteration, fully serial, no gaps: 40 ns of work,
        // 15 ns of it communication.
        let spans = vec![
            span(0, 0, Phase::Iteration, 0, 40),
            span(0, 0, Phase::FwdBottomMlp, 0, 10),
            span(0, 0, Phase::AlltoallFwd, 10, 25),
            span(0, 0, Phase::TopMlp, 25, 40),
        ];
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        });
        let e = exposed_comm(&m).expect("report");
        assert!((e.measured_fraction - 15.0 / 40.0).abs() < 1e-9);
        assert!(
            (e.exposed_ms - e.comm_ms).abs() < 1e-12,
            "serial: all comm exposed"
        );
        assert_eq!(e.per_collective.len(), 1);
        assert_eq!(e.per_collective[0].0, Phase::AlltoallFwd);
    }

    #[test]
    fn lane_comm_hidden_behind_compute_is_not_exposed() {
        // comm lane runs alltoall [5, 25]; lane-0 compute covers [0, 20]:
        // only [20, 25] of the collective is exposed.
        let spans = vec![
            span(0, 0, Phase::Iteration, 0, 40),
            span(0, 0, Phase::FwdBottomMlp, 0, 20),
            lane_span(0, 0, Phase::AlltoallFwd, 5, 25),
            span(0, 0, Phase::TopMlp, 25, 40),
        ];
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        });
        let e = exposed_comm(&m).expect("report");
        // 5 ns exposed of a 20 ns collective, over a 40 ns iteration
        assert!((e.exposed_ms - 5.0 * 1e-6).abs() < 1e-15, "{e:?}");
        assert!((e.comm_ms - 20.0 * 1e-6).abs() < 1e-15);
        assert!((e.measured_fraction - 5.0 / 40.0).abs() < 1e-9);
        // fully covered comm exposes nothing
        let spans = vec![
            span(0, 0, Phase::Iteration, 0, 40),
            span(0, 0, Phase::FwdBottomMlp, 0, 30),
            lane_span(0, 0, Phase::AlltoallFwd, 5, 25),
        ];
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        });
        let e = exposed_comm(&m).expect("report");
        assert_eq!(e.exposed_ms, 0.0);
        assert_eq!(e.measured_fraction, 0.0);
    }

    #[test]
    fn overlapping_lane_comm_intervals_count_once() {
        // two comm ops overlapping in wall-clock (main-lane + comm-lane)
        // with no compute cover: their union, not their sum, is exposed.
        let spans = vec![
            span(0, 0, Phase::Iteration, 0, 30),
            span(0, 0, Phase::AlltoallBwd, 0, 20),
            lane_span(0, 0, Phase::InputA2a, 10, 30),
        ];
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans,
            ..Snapshot::default()
        });
        let e = exposed_comm(&m).expect("report");
        // union [0, 30] = 30 ns exposed, not 20 + 20 = 40
        assert!((e.exposed_ms - 30.0 * 1e-6).abs() < 1e-15, "{e:?}");
        assert!((e.measured_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_iteration_brackets_yields_none() {
        let m = MergedTimeline::from_snapshot(&Snapshot {
            spans: vec![span(0, 0, Phase::TopMlp, 0, 5)],
            ..Snapshot::default()
        });
        assert!(exposed_comm(&m).is_none());
    }
}
