//! Live runtime health monitoring for the Neo training stack.
//!
//! All other observability in the workspace is post-hoc: snapshots and
//! profiler reports exist only after `train()` returns, so a hung comm
//! lane or a slowly degrading straggler is invisible until the run ends.
//! This crate turns the zero-cost telemetry layer into a *live* system,
//! mirroring the production fleet-health signals the paper's setting
//! assumes:
//!
//! - a **sampler thread** ([`Monitor`]) that snapshots the telemetry
//!   registry every [`MonitorConfig::interval_ms`] without pausing
//!   training — heartbeat slots are read lock-free, and the metrics
//!   sample clones no spans — appending schema-versioned JSONL frames to
//!   a rolling event log plus a Prometheus-style text exposition at the
//!   final scrape (see [`eventlog`]);
//! - a **watchdog** ([`watchdog::Watchdog`]) classifying *stalls*, *hangs*
//!   and *stragglers* from per-`(rank, lane)` heartbeats published at
//!   iteration/span boundaries by `neo-telemetry`'s lock-free atomic path;
//! - typed [`HealthEvent`] alerts, streamed to the event log as they fire
//!   and returned from [`Monitor::stop`] so the trainer can surface them
//!   on its `TrainOutput`.
//!
//! The monitor sits *below* the trainer in the dependency graph
//! (trainer → monitor → telemetry); the skew kernel it shares with
//! `neo-prof` lives in [`neo_telemetry::stats`].

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod eventlog;
pub mod prom;
pub mod watchdog;

use eventlog::EventLog;
use neo_telemetry::{HeartbeatSample, Metric, Phase, TelemetrySink};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use watchdog::{Watchdog, WatchdogConfig};

/// Configuration for one live monitoring session.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Sampling period of the monitor thread, milliseconds.
    pub interval_ms: u64,
    /// JSONL event-log path (`None` = in-memory monitoring only: the
    /// watchdog still runs and alerts still reach `TrainOutput`, but
    /// nothing is written to disk).
    pub path: Option<PathBuf>,
    /// Event-log size budget; at the budget the log rolls once to
    /// `<path>.1` and continues fresh.
    pub max_log_bytes: u64,
    /// Watchdog silence deadline: a mid-work heartbeat slot quiet longer
    /// than this is considered stuck. Conservative by default — a loaded
    /// 1-core CI host can legitimately deschedule a worker for hundreds
    /// of milliseconds, and a spurious alert fails the clean-run gate.
    pub stall_ms: u64,
    /// Straggler threshold on one rank's p95 iteration time over the
    /// mean p95 of the *other* ranks (exact order statistics, shared
    /// with `neo-prof`). The reference mean excludes the candidate so
    /// the ratio is unbounded; in-mean skew is capped at the world size.
    pub straggler_skew: f64,
    /// Completed iterations per rank before the straggler check arms.
    pub straggler_min_iters: usize,
    /// Print a live one-line status to stdout at every sample.
    pub echo: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            interval_ms: 25,
            path: None,
            max_log_bytes: 8 * 1024 * 1024,
            stall_ms: 1000,
            straggler_skew: 4.0,
            straggler_min_iters: 32,
            echo: false,
        }
    }
}

impl MonitorConfig {
    /// Defaults with the event log written to `path`.
    pub fn to_path(path: impl Into<PathBuf>) -> Self {
        Self {
            path: Some(path.into()),
            ..Self::default()
        }
    }

    /// Defaults with no file output (alerts only).
    pub fn in_memory() -> Self {
        Self::default()
    }
}

/// A typed health alert raised by the watchdog. See the alert taxonomy in
/// [`watchdog`] for exact semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthEvent {
    /// A `(rank, lane)` stopped beating mid-work without reaching a
    /// collective rendezvous: it is stuck inside its own work.
    Stall {
        /// Rank of the quiet slot.
        rank: u32,
        /// Execution lane of the quiet slot (0 = main compute thread).
        lane: u32,
        /// Iteration the slot was in when it fell silent.
        iter: u64,
        /// Phase of the span it was last seen inside, if any.
        phase: Option<Phase>,
        /// Silence observed when the alert fired, milliseconds.
        quiet_ms: u64,
    },
    /// A comm lane parked at a rendezvous beyond the deadline with no
    /// identifiable victim, or parked while same-lane peers advanced.
    Hang {
        /// Rank of the parked lane.
        rank: u32,
        /// Execution lane (always > 0 for rendezvous hangs).
        lane: u32,
        /// Iteration the lane was serving when it parked.
        iter: u64,
        /// Silence observed when the alert fired, milliseconds.
        quiet_ms: u64,
    },
    /// One rank's p95 iteration time exceeds the mean p95 of the other
    /// ranks by the configured skew factor.
    Straggler {
        /// The slow rank.
        rank: u32,
        /// Its p95 iteration time, milliseconds.
        p95_ms: f64,
        /// Mean p95 across the other ranks, milliseconds.
        mean_p95_ms: f64,
        /// `p95_ms / mean_p95_ms`.
        skew: f64,
    },
}

impl HealthEvent {
    /// Stable lowercase kind tag (`stall` / `hang` / `straggler`).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::Stall { .. } => "stall",
            HealthEvent::Hang { .. } => "hang",
            HealthEvent::Straggler { .. } => "straggler",
        }
    }

    /// The rank the event indicts.
    pub fn rank(&self) -> u32 {
        match self {
            HealthEvent::Stall { rank, .. }
            | HealthEvent::Hang { rank, .. }
            | HealthEvent::Straggler { rank, .. } => *rank,
        }
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthEvent::Stall {
                rank,
                lane,
                iter,
                phase,
                quiet_ms,
            } => write!(
                f,
                "stall: rank {rank} lane {lane} quiet {quiet_ms}ms in {} (iter {iter})",
                phase.map_or("<between spans>", Phase::as_str)
            ),
            HealthEvent::Hang {
                rank,
                lane,
                iter,
                quiet_ms,
            } => write!(
                f,
                "hang: rank {rank} lane {lane} parked {quiet_ms}ms at rendezvous (iter {iter})"
            ),
            HealthEvent::Straggler {
                rank,
                p95_ms,
                mean_p95_ms,
                skew,
            } => write!(
                f,
                "straggler: rank {rank} p95 {p95_ms:.2}ms vs mean {mean_p95_ms:.2}ms \
                 ({skew:.2}x)"
            ),
        }
    }
}

/// What a monitoring session produced, returned by [`Monitor::stop`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorReport {
    /// Telemetry frames written (sampler wake-ups).
    pub frames: u64,
    /// Health events raised, in firing order.
    pub events: Vec<HealthEvent>,
    /// First I/O error hit by the event log, if any (monitoring degraded
    /// to in-memory; training was never affected).
    pub io_error: Option<String>,
}

/// Handle to a running sampler thread. Create with [`Monitor::start`],
/// collect with [`Monitor::stop`].
#[derive(Debug)]
pub struct Monitor {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<MonitorReport>>,
}

impl Monitor {
    /// Start the sampler thread over `sink` (which must outlive the
    /// training run: clones share the same registry). Never fails: if the
    /// OS refuses a thread the monitor degrades to a no-op whose report
    /// is empty, and event-log I/O errors are carried in the report
    /// rather than surfaced to the trainer.
    pub fn start(sink: &TelemetrySink, cfg: MonitorConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sink = sink.clone();
        let thread = std::thread::Builder::new()
            .name("neo-monitor".to_string())
            .spawn(move || sampler_loop(&sink, &cfg, &flag))
            .ok();
        Self { stop, thread }
    }

    /// Signal the sampler, wait for its final scrape, and collect the
    /// report.
    pub fn stop(mut self) -> MonitorReport {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default()
    }
}

/// One-line live status for `--monitor` echo mode.
fn status_line(frame: u64, heartbeats: &[HeartbeatSample], alerts: usize) -> String {
    let iter = heartbeats
        .iter()
        .filter(|h| h.lane == 0)
        .map(|h| h.iter)
        .max()
        .unwrap_or(0);
    let ranks = heartbeats.iter().filter(|h| h.lane == 0).count();
    let lanes = heartbeats.len() - ranks;
    format!(
        "monitor: frame {frame} | iter {iter} | {ranks} ranks + {lanes} lanes | \
         {alerts} alert{}",
        if alerts == 1 { "" } else { "s" }
    )
}

fn sampler_loop(sink: &TelemetrySink, cfg: &MonitorConfig, stop: &AtomicBool) -> MonitorReport {
    let mut wd = Watchdog::new(WatchdogConfig {
        stall_ms: cfg.stall_ms,
        straggler_skew: cfg.straggler_skew,
        straggler_min_iters: cfg.straggler_min_iters,
    });
    let mut log = EventLog::open(cfg.path.clone(), cfg.max_log_bytes);
    let mut frames = 0u64;
    let mut events: Vec<HealthEvent> = Vec::new();
    loop {
        // Check *before* sampling so a stop request still gets one final
        // frame covering the tail of the run.
        let stopping = stop.load(Ordering::Relaxed);
        let now = sink.now_ns().unwrap_or(0);
        let hbs = sink.heartbeats();
        // The watchdog only needs heartbeats; snapshotting the metrics
        // registry and serializing a frame is file-output work, skipped
        // for in-memory (alert-only) monitors.
        let metrics = if log.enabled() {
            sink.sample().unwrap_or_default()
        } else {
            Default::default()
        };
        sink.counter_add(Metric::MonitorSamples, 1);
        for e in wd.observe(&hbs, now) {
            sink.counter_add(Metric::MonitorEvents, 1);
            log.write_line(&eventlog::event_json(now, &e));
            if cfg.echo {
                println!("monitor: ALERT {e}");
            }
            events.push(e);
        }
        if log.enabled() {
            log.write_line(&eventlog::frame_json(frames, now, &hbs, &metrics));
        }
        if cfg.echo {
            println!("{}", status_line(frames, &hbs, events.len()));
        }
        frames += 1;
        if stopping {
            log.write_exposition(&hbs, &metrics);
            break;
        }
        // Sleep in short slices so stop() never waits a full interval.
        let mut remaining = cfg.interval_ms.max(1);
        while remaining > 0 && !stop.load(Ordering::Relaxed) {
            let slice = remaining.min(5);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
        }
    }
    MonitorReport {
        frames,
        events,
        io_error: log.io_error().map(str::to_string),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_samples_a_live_sink_and_writes_frames() {
        let dir = std::env::temp_dir().join(format!("neo_monitor_lib_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let sink = TelemetrySink::armed();
        let cfg = MonitorConfig {
            interval_ms: 1,
            ..MonitorConfig::to_path(&path)
        };
        let mon = Monitor::start(&sink, cfg);
        let rec = sink.rank(0);
        for it in 0..20u64 {
            let guard = rec.begin_iteration(it);
            drop(rec.span(Phase::Iteration));
            guard.end();
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = mon.stop();
        assert!(report.frames >= 2, "expected some frames, got {report:?}");
        assert!(report.events.is_empty(), "clean run: {:?}", report.events);
        assert_eq!(report.io_error, None);
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(text.lines().count() >= 2);
        for line in text.lines() {
            assert!(line.starts_with("{\"v\":1,\"kind\":\"frame\""), "{line}");
        }
        assert!(dir.join("run.prom").exists(), "final exposition scrape");
        // the monitor's own sampling shows up in the shared registry
        let counters = sink.sample().map(|s| s.counters).unwrap_or_default();
        assert!(counters
            .iter()
            .any(|(n, v)| *n == Metric::MonitorSamples.name() && *v >= 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_is_prompt_even_with_a_long_interval() {
        let sink = TelemetrySink::armed();
        let cfg = MonitorConfig {
            interval_ms: 10_000,
            ..MonitorConfig::in_memory()
        };
        let mon = Monitor::start(&sink, cfg);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test times how promptly stop returns"
        )]
        let t0 = std::time::Instant::now();
        let report = mon.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "stop must not wait out the interval"
        );
        assert!(report.frames >= 1, "at least the final frame");
    }

    #[test]
    fn health_event_accessors_and_display() {
        let stall = HealthEvent::Stall {
            rank: 2,
            lane: 1,
            iter: 7,
            phase: Some(Phase::AllreduceTop),
            quiet_ms: 260,
        };
        assert_eq!((stall.kind(), stall.rank()), ("stall", 2));
        let line = stall.to_string();
        assert!(line.contains("rank 2 lane 1"), "{line}");
        assert!(line.contains("allreduce_top"), "{line}");
        let hang = HealthEvent::Hang {
            rank: 0,
            lane: 1,
            iter: 3,
            quiet_ms: 500,
        };
        assert_eq!(hang.kind(), "hang");
        assert!(hang.to_string().contains("rendezvous"));
        let strag = HealthEvent::Straggler {
            rank: 3,
            p95_ms: 9.0,
            mean_p95_ms: 3.0,
            skew: 3.0,
        };
        assert_eq!(strag.kind(), "straggler");
        assert!(strag.to_string().contains("3.00x"));
    }

    #[test]
    fn status_line_summarizes_slots() {
        let line = status_line(4, &[], 0);
        assert!(line.contains("frame 4"), "{line}");
        assert!(line.contains("0 alerts"), "{line}");
    }
}
