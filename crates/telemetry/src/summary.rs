//! Aggregate per-phase summary derived from a [`Snapshot`].

use crate::export::Snapshot;
use crate::Phase;
use std::fmt;

/// Per-phase averages over a recorded run, suitable for one-line display.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Number of ranks that recorded spans.
    pub world: u32,
    /// Number of iterations covered (distinct `iter` values seen).
    pub iterations: u64,
    /// `(phase, avg ms per iteration per rank)`, in [`Phase`] order.
    pub phases: Vec<(String, f64)>,
    /// Final counter values, name-ascending.
    pub counters: Vec<(String, u64)>,
}

impl TelemetrySummary {
    /// Aggregate `snap` into per-phase averages.
    ///
    /// Totals are keyed by `(phase, lane)`, not phase alone: the overlapped
    /// schedule records e.g. `allreduce_top` on the comm lane (lane 1), and
    /// folding that into the lane-0 key would silently attribute lane time
    /// to compute-thread idle. Lane 0 keeps the bare phase name; auxiliary
    /// lanes render as `<phase>@lane<n>` so the per-phase table stays a
    /// flat `(String, f64)` list for downstream consumers (the `Display`
    /// table, the benchmark's `trainer.*_ms` rows).
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut world = 0u32;
        let mut iters: Vec<u64> = Vec::new();
        // ((phase, lane), total_ns) accumulated across ranks and iterations.
        let mut totals: Vec<((Phase, u32), u128)> = Vec::new();
        for s in &snap.spans {
            world = world.max(s.rank + 1);
            if !iters.contains(&s.iter) {
                iters.push(s.iter);
            }
            let key = (s.phase, s.lane);
            if let Some(entry) = totals.iter_mut().find(|(k, _)| *k == key) {
                entry.1 += s.duration_ns() as u128;
            } else {
                totals.push((key, s.duration_ns() as u128));
            }
        }
        let iterations = iters.len() as u64;
        let denom = (iterations.max(1) as f64) * (world.max(1) as f64);
        // Phase order, lane 0 before higher lanes of the same phase.
        totals.sort_by_key(|&((p, lane), _)| (p as usize, lane));
        let phases = totals
            .into_iter()
            .map(|((n, lane), total_ns)| {
                let label = if lane == 0 {
                    n.to_string()
                } else {
                    format!("{n}@lane{lane}")
                };
                (label, total_ns as f64 / denom / 1e6)
            })
            .collect();
        Self {
            world,
            iterations,
            phases,
            counters: snap.counters.clone(),
        }
    }

    /// Average ms/iteration/rank for `name`, if it was recorded.
    pub fn phase_ms(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ms)| *ms)
    }

    /// Summed avg ms/iteration/rank across the communication phases
    /// ([`Phase::is_comm`]) — the "exposed comm" of the paper's Fig. 14.
    ///
    /// Only lane-0 entries match: comm time on an auxiliary lane (keyed
    /// `<phase>@lane<n>`) is *overlapped* with compute by construction, so
    /// it is deliberately excluded from the caller-side exposed total.
    pub fn exposed_comm_ms(&self) -> f64 {
        self.phases
            .iter()
            .filter(|(n, _)| Phase::from_name(n).is_some_and(Phase::is_comm))
            .map(|(_, ms)| ms)
            .sum()
    }
}

impl fmt::Display for TelemetrySummary {
    /// One line: `telemetry: 120 it x 4 ranks | iteration 2.10ms | ...`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "telemetry: {} it x {} ranks",
            self.iterations, self.world
        )?;
        for (name, ms) in &self.phases {
            write!(f, " | {name} {ms:.3}ms")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRecord;

    fn span(rank: u32, iter: u64, phase: Phase, start: u64, end: u64) -> SpanRecord {
        lane_span(rank, 0, iter, phase, start, end)
    }

    fn lane_span(
        rank: u32,
        lane: u32,
        iter: u64,
        phase: Phase,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            rank,
            lane,
            iter,
            phase,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn averages_across_ranks_and_iterations() {
        let snap = Snapshot {
            spans: vec![
                span(0, 0, Phase::Iteration, 0, 4_000_000),
                span(1, 0, Phase::Iteration, 0, 2_000_000),
                span(0, 1, Phase::Iteration, 5_000_000, 7_000_000),
                span(1, 1, Phase::Iteration, 5_000_000, 11_000_000),
                span(0, 0, Phase::AlltoallFwd, 0, 1_000_000),
            ],
            ..Snapshot::default()
        };
        let s = TelemetrySummary::from_snapshot(&snap);
        assert_eq!(s.world, 2);
        assert_eq!(s.iterations, 2);
        // iteration: (4+2+2+6)ms / (2 iters * 2 ranks) = 3.5ms
        assert!((s.phase_ms("iteration").unwrap_or(0.0) - 3.5).abs() < 1e-9);
        // alltoall_fwd: 1ms / 4 = 0.25ms, and it is a comm phase.
        assert!((s.exposed_comm_ms() - 0.25).abs() < 1e-9);
        // Taxonomy ordering: iteration precedes alltoall_fwd.
        assert_eq!(s.phases[0].0, "iteration");
    }

    #[test]
    fn comm_lane_spans_get_their_own_keys() {
        let snap = Snapshot {
            spans: vec![
                span(0, 0, Phase::Iteration, 0, 4_000_000),
                // overlapped allreduce on the comm lane: must NOT fold into
                // (or hide behind) a lane-0 key
                lane_span(0, 1, 0, Phase::AllreduceTop, 1_000_000, 3_000_000),
                // same phase also measured caller-side on lane 0
                span(0, 0, Phase::AllreduceTop, 1_000_000, 1_500_000),
            ],
            ..Snapshot::default()
        };
        let s = TelemetrySummary::from_snapshot(&snap);
        assert!((s.phase_ms("allreduce_top").unwrap_or(0.0) - 0.5).abs() < 1e-9);
        assert!((s.phase_ms("allreduce_top@lane1").unwrap_or(0.0) - 2.0).abs() < 1e-9);
        // lane 0 sorts before lane 1 of the same phase
        let pos0 = s.phases.iter().position(|(n, _)| n == "allreduce_top");
        let pos1 = s
            .phases
            .iter()
            .position(|(n, _)| n == "allreduce_top@lane1");
        assert!(pos0 < pos1, "{:?}", s.phases);
        // lane time is overlapped, so exposed comm counts only lane 0
        assert!((s.exposed_comm_ms() - 0.5).abs() < 1e-9);
        // and the Display table now names the lane explicitly
        let line = s.to_string();
        assert!(line.contains("allreduce_top@lane1"), "{line}");
    }

    #[test]
    fn display_is_one_line() {
        let snap = Snapshot {
            spans: vec![span(0, 0, Phase::Iteration, 0, 2_000_000)],
            ..Snapshot::default()
        };
        let line = TelemetrySummary::from_snapshot(&snap).to_string();
        assert!(line.starts_with("telemetry: 1 it x 1 ranks"));
        assert!(line.contains("iteration 2.000ms"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn empty_snapshot_summary() {
        let s = TelemetrySummary::from_snapshot(&Snapshot::default());
        assert_eq!(s.world, 0);
        assert_eq!(s.iterations, 0);
        assert!(s.phases.is_empty());
        assert_eq!(s.exposed_comm_ms(), 0.0);
    }
}
