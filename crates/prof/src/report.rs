//! The human-readable roll-up: critical path, skew, exposed comm.
//!
//! [`analyze`] runs every analyzer over a snapshot; the [`ProfReport`]
//! `Display` impl renders the text report the quickstart prints — one
//! line per iteration naming the bounding `(phase, rank)`, the top skewed
//! phases, and the measured-vs-predicted exposed-comm fractions.

use std::fmt;

use crate::critical::{critical_path, CriticalPath, IDLE};
use crate::exposed::{exposed_comm, ExposedComm, TOLERANCE};
use crate::merge::MergedTimeline;
use crate::skew::{phase_skew, PhaseSkew};
use neo_telemetry::{Phase, Snapshot};

/// How many skewed phases the report prints.
const TOP_K_SKEW: usize = 5;

/// Full analysis of one recorded run.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Ranks seen.
    pub world: u32,
    /// Critical path per iteration, iteration-ascending.
    pub critical: Vec<CriticalPath>,
    /// Per-phase skew, most skewed first.
    pub skew: Vec<PhaseSkew>,
    /// Exposed-communication accounting, when the run recorded
    /// `iteration` brackets.
    pub exposed: Option<ExposedComm>,
}

impl ProfReport {
    /// `(phase, iterations bounded by it)` over the whole run, most
    /// frequent first.
    pub fn bounding_histogram(&self) -> Vec<(Phase, usize)> {
        let mut acc: Vec<(Phase, usize)> = Vec::new();
        for cp in &self.critical {
            let Some((phase, _, _)) = cp.bounding() else {
                continue;
            };
            if let Some(e) = acc.iter_mut().find(|(p, _)| *p == phase) {
                e.1 += 1;
            } else {
                acc.push((phase, 1));
            }
        }
        acc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_str().cmp(b.0.as_str())));
        acc
    }
}

/// Runs every analyzer over `snap`. Returns `None` for a span-less
/// snapshot (disabled sink or a run that recorded nothing).
pub fn analyze(snap: &Snapshot) -> Option<ProfReport> {
    let m = MergedTimeline::from_snapshot(snap);
    if m.spans().is_empty() {
        return None;
    }
    let critical: Vec<CriticalPath> = m
        .iters
        .iter()
        .filter_map(|&it| critical_path(&m, it))
        .collect();
    Some(ProfReport {
        world: m.world,
        critical,
        skew: phase_skew(&m),
        exposed: exposed_comm(&m),
    })
}

impl fmt::Display for ProfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "neo-prof: critical path over {} iteration(s), {} rank(s)",
            self.critical.len(),
            self.world
        )?;
        for cp in &self.critical {
            let Some((name, rank, ns)) = cp.bounding() else {
                continue;
            };
            let share = if cp.wall_ns > 0 {
                ns as f64 / cp.wall_ns as f64 * 100.0
            } else {
                0.0
            };
            let idle_pct = if cp.wall_ns > 0 {
                cp.phase_ns(IDLE) as f64 / cp.wall_ns as f64 * 100.0
            } else {
                0.0
            };
            writeln!(
                f,
                "  iter {:>4}: bounded by {name} on rank {rank} \
                 ({share:.0}% of {:.3} ms wall, idle {idle_pct:.0}%)",
                cp.iter,
                cp.wall_ns as f64 * 1e-6
            )?;
        }
        let hist = self.bounding_histogram();
        if !hist.is_empty() {
            write!(f, "  bounding-phase totals:")?;
            for (name, n) in &hist {
                write!(f, " {name} x{n}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  top skewed phases (max-rank mean / cross-rank mean):")?;
        for s in self.skew.iter().take(TOP_K_SKEW) {
            writeln!(
                f,
                "    {:<16} skew {:.2} (rank {} at {:.3} ms vs mean {:.3} ms, \
                 p50/p95 {:.3}/{:.3} ms)",
                s.phase,
                s.skew,
                s.max_rank,
                s.max_ms,
                s.mean_ms,
                s.per_rank
                    .iter()
                    .find(|r| r.rank == s.max_rank)
                    .map(|r| r.p50_ms)
                    .unwrap_or(0.0),
                s.per_rank
                    .iter()
                    .find(|r| r.rank == s.max_rank)
                    .map(|r| r.p95_ms)
                    .unwrap_or(0.0),
            )?;
        }
        if let Some(e) = &self.exposed {
            let sched = if e.overlapped { "overlapped" } else { "serial" };
            writeln!(
                f,
                "  exposed comm: measured {:.1}% of {:.3} ms iteration on the \
                 {sched} schedule (predicted {:.1}%, gap {:.3} <= tolerance \
                 {TOLERANCE}; serial would expose {:.1}%, overlap {:.1}%)",
                e.measured_fraction * 100.0,
                e.iter_ms,
                e.predicted_fraction() * 100.0,
                e.prediction_gap(),
                e.predicted_serial_fraction * 100.0,
                e.predicted_overlap_fraction * 100.0,
            )?;
            for (name, ms) in &e.per_collective {
                writeln!(f, "    {name:<16} {ms:>10.3} ms/iter")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_telemetry::SpanRecord;

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
    fn analyze_names_the_bounding_phase_per_iteration() {
        let snap = Snapshot {
            spans: vec![
                span(0, 0, Phase::Iteration, 0, 40),
                span(0, 0, Phase::EmbLookup, 0, 30),
                span(0, 0, Phase::TopMlp, 30, 40),
                span(0, 1, Phase::Iteration, 40, 100),
                span(0, 1, Phase::AlltoallFwd, 40, 90),
                span(0, 1, Phase::TopMlp, 90, 100),
            ],
            ..Snapshot::default()
        };
        let report = analyze(&snap).expect("report");
        assert_eq!(report.critical.len(), 2);
        assert_eq!(
            report.critical[0].bounding().map(|(n, _, _)| n),
            Some(Phase::EmbLookup)
        );
        assert_eq!(
            report.critical[1].bounding().map(|(n, _, _)| n),
            Some(Phase::AlltoallFwd)
        );
        let text = report.to_string();
        assert!(
            text.contains("iter    0: bounded by emb_lookup on rank 0"),
            "{text}"
        );
        assert!(
            text.contains("iter    1: bounded by alltoall_fwd on rank 0"),
            "{text}"
        );
        assert!(text.contains("exposed comm"), "{text}");
        let hist = report.bounding_histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].1, 1);
    }

    #[test]
    fn analyze_rejects_empty_snapshots() {
        assert!(analyze(&Snapshot::default()).is_none());
    }
}
