//! Chaos-provoked stall detection, end to end: the seeded one-shot stall
//! injector ([`neo_dlrm::sync::chaos`]) parks exactly one comm lane for
//! longer than the watchdog deadline, and the live monitor must indict
//! that lane — correct rank, lane, and phase — both on
//! `TrainOutput::health_events` and in the streamed JSONL event log.
//!
//! This lives in its own test binary: the stall injector is process-wide
//! state, and sibling tests training concurrently would race on it.

use neo_dlrm::collectives::QuantMode;
use neo_dlrm::dataio::{SyntheticConfig, SyntheticDataset};
use neo_dlrm::dlrm::DlrmConfig;
use neo_dlrm::monitor::MonitorConfig;
use neo_dlrm::prelude::HealthEvent;
use neo_dlrm::sharding::{CostModel, Planner, PlannerConfig, TableSpec};
use neo_dlrm::sync::chaos;
use neo_dlrm::trainer::{SyncConfig, SyncTrainer};

/// Lane sleep injected by chaos — comfortably past the watchdog deadline
/// so several sampler frames observe the quiet lane.
const INJECTED_STALL_MS: u64 = 1200;
/// Watchdog silence deadline for the run.
const DEADLINE_MS: u64 = 250;

/// Disarms the injector even when an assertion unwinds, so a failure here
/// cannot leak an armed stall into a reused process.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        chaos::disarm_stall();
    }
}

#[test]
fn injected_lane_stall_is_detected_and_logged() {
    let world = 2usize;
    let seed = 11u64;
    let victim = chaos::stall_target(seed, world as u64) as u32;

    let model = DlrmConfig::tiny(3, 128, 8);
    let specs: Vec<TableSpec> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let plan = Planner::new(CostModel::v100_prototype(32), PlannerConfig::default())
        .plan(&specs, world)
        .unwrap();
    let mut cfg = SyncConfig::exact(world, model, plan, 32);
    cfg.seed = 42;
    cfg.quant_fwd = QuantMode::Fp16;
    cfg.quant_bwd = QuantMode::Bf16;
    cfg.overlap = true; // collectives run on per-rank comm lanes
    let log = std::env::temp_dir().join(format!("neo_monitor_stall_{}.jsonl", std::process::id()));
    cfg.monitor = Some(MonitorConfig {
        interval_ms: 10,
        stall_ms: DEADLINE_MS,
        ..MonitorConfig::to_path(&log)
    });

    let ds = SyntheticDataset::new(SyntheticConfig::uniform(3, 128, 3, 4)).unwrap();
    let batches: Vec<_> = (0..6).map(|k| ds.batch(32, k)).collect();

    let _guard = Disarm;
    chaos::arm_stall(seed, world as u64, INJECTED_STALL_MS);
    let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None).unwrap();

    // Exactly one comm-lane alert, and it indicts the parked lane — never
    // a rendezvous-blocked peer. Main-thread (lane 0) collateral is
    // tolerated: on a loaded single-core host a 1.2 s frozen collective
    // can legitimately leave a worker quiet past the deadline before the
    // comm victim becomes visible to the sampler.
    let (lane1, collateral): (Vec<_>, Vec<_>) = out.health_events.iter().partition(|e| {
        matches!(
            e,
            HealthEvent::Stall { lane: 1, .. } | HealthEvent::Hang { lane: 1, .. }
        )
    });
    match lane1.as_slice() {
        [HealthEvent::Stall {
            rank,
            lane,
            phase,
            quiet_ms,
            ..
        }] => {
            assert_eq!(*rank, victim, "watchdog blamed the wrong rank");
            assert_eq!(*lane, 1, "stall must be pinned to the comm lane");
            assert!(phase.is_some(), "victim was parked inside a span");
            assert!(
                *quiet_ms >= DEADLINE_MS,
                "quiet {quiet_ms}ms below the {DEADLINE_MS}ms deadline"
            );
        }
        other => panic!("expected exactly one comm-lane stall on rank {victim}, got {other:?}"),
    }
    for e in &collateral {
        assert!(
            matches!(
                e,
                HealthEvent::Stall { lane: 0, .. } | HealthEvent::Hang { lane: 0, .. }
            ),
            "unexpected non-main collateral event: {e:?}"
        );
    }

    // the same alert must appear in the streamed JSONL event log
    let text = std::fs::read_to_string(&log).unwrap();
    let needle = format!("\"event\":\"stall\",\"rank\":{victim},\"lane\":1,");
    assert!(
        text.lines()
            .any(|l| l.contains("\"kind\":\"event\"") && l.contains(&needle)),
        "no stall event line for rank {victim} lane 1 in {}",
        log.display()
    );
    // and the stall window must span several sampler frames
    let frames = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"frame\""))
        .count();
    assert!(
        frames >= 3,
        "only {frames} frames across a {INJECTED_STALL_MS}ms stall"
    );
    std::fs::remove_file(&log).ok();
    std::fs::remove_file(log.with_extension("prom")).ok();
}
