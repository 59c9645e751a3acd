//! `neo_prof::analyze` on real trainer output: an armed, overlapped,
//! world-2 run over a plan that mixes all four sharding schemes. The
//! analyzer's own tests feed it synthetic spans; this one checks that
//! what the trainer records satisfies the analyzer's invariants.

use neo_dlrm::dataio::{SyntheticConfig, SyntheticDataset};
use neo_dlrm::dlrm::DlrmConfig;
use neo_dlrm::prof::{analyze, Segment};
use neo_dlrm::sharding::{Scheme, ShardingPlan, TablePlacement};
use neo_dlrm::telemetry::{Phase, TelemetrySink};
use neo_dlrm::trainer::{SyncConfig, SyncTrainer};

const TABLES: usize = 4;
const ROWS: u64 = 96;
const BATCH: usize = 32;
const ITERS: u64 = 6;

fn mixed_plan() -> ShardingPlan {
    let scheme = |table| match table {
        0 => Scheme::TableWise { worker: 1 },
        1 => Scheme::RowWise {
            workers: vec![0, 1],
        },
        2 => Scheme::ColumnWise {
            workers: vec![1, 0],
            split_dims: vec![4, 4],
        },
        _ => Scheme::DataParallel,
    };
    ShardingPlan {
        world: 2,
        placements: (0..TABLES)
            .map(|table| TablePlacement {
                table,
                scheme: scheme(table),
            })
            .collect(),
    }
}

#[test]
fn analyze_explains_an_overlapped_mixed_plan_run() {
    let mut cfg = SyncConfig::exact(2, DlrmConfig::tiny(TABLES, ROWS, 8), mixed_plan(), BATCH);
    cfg.overlap = true;
    cfg.telemetry = TelemetrySink::armed();
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(TABLES, ROWS, 3, 4)).unwrap();
    let batches: Vec<_> = (0..ITERS).map(|k| ds.batch(BATCH, k)).collect();
    let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None).unwrap();
    let snap = out.telemetry.expect("an armed run carries its snapshot");
    let report = analyze(&snap).expect("the run recorded spans");
    assert_eq!(report.world, 2);

    // one critical path per iteration, its segments partitioning the wall
    let iters: Vec<u64> = report.critical.iter().map(|cp| cp.iter).collect();
    assert_eq!(iters, (0..ITERS).collect::<Vec<_>>());
    for cp in &report.critical {
        let total: u64 = cp.segments.iter().map(Segment::duration_ns).sum();
        assert_eq!(total, cp.wall_ns, "iter {}: segments vs wall", cp.iter);
        assert!(cp.wall_ns > 0, "iter {} has no wall-clock", cp.iter);
    }

    // a posted collective is charged only where its rank was not
    // computing: no in-flight segment overlaps a lane-0 leaf of its rank
    let mut in_flight = 0;
    for cp in &report.critical {
        for seg in cp.segments.iter().filter(|s| s.lane > 0) {
            in_flight += 1;
            let overlapped = snap.spans.iter().find(|s| {
                s.lane == 0
                    && s.rank == seg.rank
                    && !s.phase.is_aggregate()
                    && s.start_ns.max(seg.start_ns) < s.end_ns.min(seg.end_ns)
            });
            assert!(
                overlapped.is_none(),
                "iter {}: {seg:?} overlaps compute {overlapped:?}",
                cp.iter
            );
        }
    }
    assert!(in_flight > 0, "no posted collective was ever exposed");

    let e = report.exposed.expect("the run recorded iteration brackets");
    assert!(
        (0.0..=1.0).contains(&e.measured_fraction),
        "measured fraction {}",
        e.measured_fraction
    );
    // the union of comm intervals never exceeds their sum; the slack is
    // float rounding of two differently accumulated means
    assert!(
        e.exposed_ms <= e.comm_ms * (1.0 + 1e-9),
        "exposed {} ms > comm {} ms",
        e.exposed_ms,
        e.comm_ms
    );
    for phase in [Phase::InputA2a, Phase::AllreduceTop, Phase::AllreduceBot] {
        assert!(
            e.per_collective.iter().any(|(p, _)| *p == phase),
            "{phase} missing from {:?}",
            e.per_collective
        );
    }
}
