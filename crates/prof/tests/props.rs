//! Property-based tests for the critical-path analyzer and the
//! exposed-comm accounting (ISSUE 3 satellite: random multi-rank
//! timelines obey the analyzer's structural invariants).

use neo_prof::{critical_path, exposed_comm, MergedTimeline, IDLE};
use neo_telemetry::{Phase, Snapshot, SpanRecord};
use proptest::prelude::*;

/// Leaf phases the generators draw from (no aggregates).
const LEAVES: &[Phase] = &[
    Phase::FwdBottomMlp,
    Phase::InputA2a,
    Phase::EmbLookup,
    Phase::AlltoallFwd,
    Phase::ReduceScatter,
    Phase::Interaction,
    Phase::TopMlp,
    Phase::TopMlpBwd,
    Phase::AlltoallBwd,
    Phase::SparseOptim,
    Phase::Allreduce,
    Phase::DenseOptim,
];

fn merged(spans: Vec<SpanRecord>) -> MergedTimeline {
    MergedTimeline::from_snapshot(&Snapshot {
        spans,
        ..Snapshot::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On arbitrary multi-rank, two-lane timelines: segments partition
    /// the wall exactly (sum == wall-clock), and the non-idle
    /// critical-path length is <= the wall-clock and >= the longest
    /// chargeable interval — a lane-0 leaf, or the exposed part of a
    /// lane-1 span (after its rank's last lane-0 activity inside it). No
    /// idle segment overlaps a chargeable interval, and no lane-1 segment
    /// overlaps a lane-0 leaf of its rank.
    #[test]
    fn critical_path_is_bounded(
        raw in proptest::collection::vec(
            (0u32..4, 0u32..2, 0usize..12, 0u64..1_000, 1u64..200),
            1..40,
        ),
    ) {
        let spans: Vec<SpanRecord> = raw
            .iter()
            .map(|&(rank, lane, which, start, len)| SpanRecord {
                rank,
                iter: 0,
                phase: LEAVES[which % LEAVES.len()],
                lane,
                start_ns: start,
                end_ns: start + len,
            })
            .collect();
        let compute: Vec<&SpanRecord> = spans.iter().filter(|s| s.lane == 0).collect();
        // the chargeable interval of every span, by the rule in the doc
        let exposed: Vec<(u64, u64)> = spans
            .iter()
            .map(|s| {
                let from = compute
                    .iter()
                    .filter(|c| s.lane > 0 && c.rank == s.rank)
                    .filter(|c| c.start_ns < s.end_ns && c.end_ns > s.start_ns)
                    .map(|c| c.end_ns.min(s.end_ns))
                    .fold(s.start_ns, u64::max);
                (from, s.end_ns)
            })
            .collect();
        let longest = exposed.iter().map(|&(s, e)| e - s).max().unwrap_or(0);
        let m = merged(spans.clone());
        let cp = critical_path(&m, 0).expect("non-empty timeline has a path");
        let total: u64 = cp.segments.iter().map(|s| s.duration_ns()).sum();
        prop_assert_eq!(total, cp.wall_ns, "segments partition the wall");
        let busy = cp.busy_ns();
        prop_assert!(busy <= cp.wall_ns);
        prop_assert!(
            busy >= longest,
            "critical path {} shorter than longest chargeable interval {}",
            busy,
            longest
        );
        // segments are contiguous and time-ordered
        for w in cp.segments.windows(2) {
            prop_assert_eq!(w[0].end_ns, w[1].start_ns);
        }
        let overlaps = |a: (u64, u64), b: (u64, u64)| a.1.min(b.1) > a.0.max(b.0);
        for seg in &cp.segments {
            let iv = (seg.start_ns, seg.end_ns);
            if seg.phase == IDLE {
                for &e in &exposed {
                    prop_assert!(!overlaps(iv, e), "idle {seg:?} overlaps {e:?}");
                }
            } else if seg.lane > 0 {
                for c in compute.iter().filter(|c| c.rank == seg.rank) {
                    prop_assert!(
                        !overlaps(iv, (c.start_ns, c.end_ns)),
                        "in-flight {seg:?} overlaps compute {c:?}"
                    );
                }
            }
        }
    }

    /// A fully serialized timeline (spans back-to-back, one at a time)
    /// exposes ALL communication: the critical path charges every comm
    /// phase its full duration, there is no idle, and the measured
    /// exposed-comm fraction equals comm time over wall time.
    #[test]
    fn serialized_timeline_exposes_all_comm(
        lens in proptest::collection::vec((0usize..12, 1u64..500), 1..30),
    ) {
        let mut cursor = 0u64;
        let mut spans = Vec::with_capacity(lens.len() + 1);
        for &(which, len) in &lens {
            spans.push(SpanRecord {
                rank: 0,
                iter: 0,
                phase: LEAVES[which % LEAVES.len()],
                lane: 0,
                start_ns: cursor,
                end_ns: cursor + len,
            });
            cursor += len;
        }
        let comm_total: u64 = spans
            .iter()
            .filter(|s| s.phase.is_comm())
            .map(|s| s.duration_ns())
            .sum();
        // bracket the run so exposed_comm has an iteration wall
        spans.push(SpanRecord {
            rank: 0,
            iter: 0,
            phase: Phase::Iteration,
            lane: 0,
            start_ns: 0,
            end_ns: cursor,
        });
        let m = merged(spans);

        let cp = critical_path(&m, 0).expect("path");
        prop_assert_eq!(cp.phase_ns(IDLE), 0, "serial timeline has no gaps");
        let comm_on_path: u64 = (Phase::ALL.into_iter().filter(|p| p.is_comm()))
            .map(|c| cp.phase_ns(Some(c)))
            .sum();
        prop_assert_eq!(comm_on_path, comm_total, "all comm time is exposed");

        let e = exposed_comm(&m).expect("bracketed run reports");
        let expected = comm_total as f64 / cursor as f64;
        prop_assert!(
            (e.measured_fraction - expected).abs() < 1e-9,
            "measured {} != comm/wall {}",
            e.measured_fraction,
            expected
        );
    }
}
