//! Rolling JSONL event log + Prometheus-style text exposition.
//!
//! Frame/event schema (one compact JSON object per line, built as a
//! [`Json`] tree and printed by its one writer; schema version `"v": 1`):
//!
//! ```json
//! {"v":1,"kind":"frame","frame":0,"t_ns":12345,
//!  "heartbeats":[{"rank":0,"lane":0,"iter":5,"state":"span",
//!                 "phase":"emb_lookup","beats":42,"last_beat_ns":12000,
//!                 "last_iter_ns":900000}],
//!  "counters":{"emb.lookup.rows":4096},
//!  "gauges":{"train.loss":[4,0.69]}}
//! {"v":1,"kind":"event","t_ns":99999,"event":"stall","rank":2,"lane":1,
//!  "iter":7,"phase":"allreduce_top","quiet_ms":260}
//! ```
//!
//! When the log grows past the configured byte budget it rolls once:
//! the current file is renamed to `<path>.1` (replacing any previous
//! roll) and a fresh file continues at `<path>`, so a run bounded only
//! by wall clock cannot fill the disk.
//!
//! The exposition file (`<path with .prom extension>`) is written once at
//! the final scrape: `neo_`-prefixed names with dots mapped to
//! underscores, counters and gauges typed, heartbeat progress labeled by
//! rank/lane.

use crate::HealthEvent;
use neo_telemetry::json::Json;
use neo_telemetry::{HeartbeatSample, MetricsSample};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema version stamped on every JSONL line.
pub const SCHEMA_VERSION: u64 = 1;

/// Serialize one telemetry frame as a JSONL line (no trailing newline).
pub fn frame_json(
    frame: u64,
    t_ns: u64,
    heartbeats: &[HeartbeatSample],
    metrics: &MetricsSample,
) -> String {
    let heartbeats = heartbeats.iter().map(|h| {
        Json::object([
            ("rank", h.rank.into()),
            ("lane", h.lane.into()),
            ("iter", h.iter.into()),
            ("state", h.state.name().into()),
            ("phase", h.phase.into()),
            ("beats", h.beats.into()),
            ("last_beat_ns", h.last_beat_ns.into()),
            ("last_iter_ns", h.last_iter_ns.into()),
        ])
    });
    let counters = metrics.counters.iter().map(|(name, v)| (name, (*v).into()));
    let gauges = metrics
        .gauges
        .iter()
        .map(|(name, iter, v)| (name, Json::Array(vec![(*iter).into(), (*v).into()])));
    Json::object([
        ("v", SCHEMA_VERSION.into()),
        ("kind", "frame".into()),
        ("frame", frame.into()),
        ("t_ns", t_ns.into()),
        ("heartbeats", Json::Array(heartbeats.collect())),
        ("counters", Json::object(counters)),
        ("gauges", Json::object(gauges)),
    ])
    .to_string()
}

/// Serialize one health event as a JSONL line (no trailing newline).
pub fn event_json(t_ns: u64, event: &HealthEvent) -> String {
    let mut members = vec![
        ("v", SCHEMA_VERSION.into()),
        ("kind", "event".into()),
        ("t_ns", t_ns.into()),
        ("event", event.kind().into()),
        ("rank", event.rank().into()),
    ];
    members.extend(match *event {
        HealthEvent::Stall {
            lane,
            iter,
            phase,
            quiet_ms,
            ..
        } => vec![
            ("lane", lane.into()),
            ("iter", iter.into()),
            ("phase", phase.into()),
            ("quiet_ms", quiet_ms.into()),
        ],
        HealthEvent::Hang {
            lane,
            iter,
            quiet_ms,
            ..
        } => vec![
            ("lane", lane.into()),
            ("iter", iter.into()),
            ("quiet_ms", quiet_ms.into()),
        ],
        HealthEvent::Straggler {
            p95_ms,
            mean_p95_ms,
            skew,
            ..
        } => vec![
            ("p95_ms", p95_ms.into()),
            ("mean_p95_ms", mean_p95_ms.into()),
            ("skew", skew.into()),
        ],
    });
    Json::object(members).to_string()
}

/// Map a dotted metric name to a Prometheus-legal `neo_*` name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("neo_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Append `v` in Prometheus sample-value syntax. Unlike JSON, the text
/// format *has* spellings for non-finite values (`NaN`, `+Inf`, `-Inf`)
/// — routing these through the JSON writer would emit `null` and corrupt
/// the exposition.
fn prom_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Prometheus-style text exposition of the final scrape.
pub fn exposition(heartbeats: &[HeartbeatSample], metrics: &MetricsSample) -> String {
    let mut out = String::with_capacity(1024);
    for (name, v) in &metrics.counters {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
    }
    for (name, _, v) in &metrics.gauges {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n{p} "));
        prom_f64(&mut out, *v);
        out.push('\n');
    }
    if !heartbeats.is_empty() {
        out.push_str("# TYPE neo_heartbeat_iterations counter\n");
        for h in heartbeats {
            out.push_str(&format!(
                "neo_heartbeat_iterations{{rank=\"{}\",lane=\"{}\"}} {}\n",
                h.rank, h.lane, h.iter
            ));
        }
        out.push_str("# TYPE neo_heartbeat_beats counter\n");
        for h in heartbeats {
            out.push_str(&format!(
                "neo_heartbeat_beats{{rank=\"{}\",lane=\"{}\"}} {}\n",
                h.rank, h.lane, h.beats
            ));
        }
    }
    out
}

/// Size-capped rolling JSONL writer. All I/O errors are swallowed into
/// [`EventLog::io_error`] — a broken disk must degrade monitoring, never
/// the training run.
#[derive(Debug)]
pub struct EventLog {
    path: Option<PathBuf>,
    file: Option<File>,
    written: u64,
    max_bytes: u64,
    io_error: Option<String>,
}

impl EventLog {
    /// Open the log at `path` (`None` = in-memory monitoring only, no
    /// file output).
    pub fn open(path: Option<PathBuf>, max_bytes: u64) -> Self {
        let mut log = Self {
            path,
            file: None,
            written: 0,
            max_bytes: max_bytes.max(1),
            io_error: None,
        };
        log.reopen();
        log
    }

    fn reopen(&mut self) {
        let Some(path) = self.path.clone() else {
            return;
        };
        match File::create(&path) {
            Ok(f) => {
                self.file = Some(f);
                self.written = 0;
            }
            Err(e) => self.record_err(&path, &e),
        }
    }

    fn record_err(&mut self, path: &Path, e: &std::io::Error) {
        if self.io_error.is_none() {
            self.io_error = Some(format!("{}: {e}", path.display()));
        }
        self.file = None;
    }

    /// Whether a log path is configured. In-memory monitors skip frame
    /// serialization and the registry snapshot entirely on this flag —
    /// on a single-core host that work is the bulk of the sampler's
    /// per-tick cost, stolen directly from the trainer.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Append one line, rolling to `<path>.1` first if the budget is hit.
    pub fn write_line(&mut self, line: &str) {
        let Some(path) = self.path.clone() else {
            return;
        };
        if self.file.is_some() && self.written + line.len() as u64 + 1 > self.max_bytes {
            self.file = None; // close before renaming
            let mut rolled = path.clone().into_os_string();
            rolled.push(".1");
            std::fs::rename(&path, &rolled).ok();
            self.reopen();
        }
        if let Some(f) = &mut self.file {
            if let Err(e) = f
                .write_all(line.as_bytes())
                .and_then(|()| f.write_all(b"\n"))
            {
                self.record_err(&path, &e);
                return;
            }
            self.written += line.len() as u64 + 1;
        }
    }

    /// Write the final-scrape exposition next to the log (`.prom`).
    pub fn write_exposition(&mut self, heartbeats: &[HeartbeatSample], metrics: &MetricsSample) {
        let Some(path) = self.path.clone() else {
            return;
        };
        let prom = path.with_extension("prom");
        if let Err(e) = std::fs::write(&prom, exposition(heartbeats, metrics)) {
            self.record_err(&prom, &e);
        }
    }

    /// First I/O error hit, if any (monitoring degraded to in-memory).
    pub fn io_error(&self) -> Option<&str> {
        self.io_error.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_telemetry::json;
    use neo_telemetry::HeartbeatState;

    fn hb(rank: u32, lane: u32) -> HeartbeatSample {
        HeartbeatSample {
            rank,
            lane,
            iter: 5,
            state: HeartbeatState::InSpan,
            phase: Some(neo_telemetry::Phase::EmbLookup),
            beats: 9,
            last_beat_ns: 1234,
            last_iter_ns: 999,
        }
    }

    #[test]
    fn frame_json_parses_and_carries_the_schema() {
        let metrics = MetricsSample {
            counters: vec![("emb.lookup.rows".to_string(), 4096)],
            gauges: vec![("train.loss".to_string(), 4, 0.69)],
        };
        let line = frame_json(3, 777, &[hb(0, 0), hb(1, 1)], &metrics);
        let doc = json::parse(&line).unwrap_or(Json::Null);
        assert_eq!(doc.get("v").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("frame"));
        assert_eq!(doc.get("frame").and_then(Json::as_f64), Some(3.0));
        let hbs = doc.get("heartbeats").and_then(Json::as_array);
        assert_eq!(hbs.map(Vec::len), Some(2));
        let first = hbs.and_then(|v| v.first());
        assert_eq!(
            first.and_then(|h| h.get("state")).and_then(Json::as_str),
            Some("span")
        );
        assert_eq!(
            first.and_then(|h| h.get("phase")).and_then(Json::as_str),
            Some("emb_lookup")
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("emb.lookup.rows"))
                .and_then(Json::as_f64),
            Some(4096.0)
        );
        assert!(!line.contains('\n'), "one frame = one line");
    }

    #[test]
    fn event_json_round_trips_each_variant() {
        let stall = HealthEvent::Stall {
            rank: 2,
            lane: 1,
            iter: 7,
            phase: Some(neo_telemetry::Phase::AllreduceTop),
            quiet_ms: 260,
        };
        let doc = json::parse(&event_json(5, &stall)).unwrap_or(Json::Null);
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("stall"));
        assert_eq!(doc.get("rank").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("lane").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("phase").and_then(Json::as_str),
            Some("allreduce_top")
        );
        let hang = HealthEvent::Hang {
            rank: 0,
            lane: 1,
            iter: 3,
            quiet_ms: 500,
        };
        let doc = json::parse(&event_json(6, &hang)).unwrap_or(Json::Null);
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("hang"));
        let strag = HealthEvent::Straggler {
            rank: 3,
            p95_ms: 9.0,
            mean_p95_ms: 3.0,
            skew: 3.0,
        };
        let doc = json::parse(&event_json(7, &strag)).unwrap_or(Json::Null);
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("straggler"));
        assert_eq!(doc.get("skew").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn exposition_sanitizes_names_and_labels_heartbeats() {
        let metrics = MetricsSample {
            counters: vec![("monitor.samples".to_string(), 12)],
            gauges: vec![("train.loss".to_string(), 4, 0.5)],
        };
        let text = exposition(&[hb(1, 1)], &metrics);
        assert!(text.contains("# TYPE neo_monitor_samples counter\n"));
        assert!(text.contains("neo_monitor_samples 12\n"));
        assert!(text.contains("# TYPE neo_train_loss gauge\n"));
        assert!(text.contains("neo_train_loss 0.5\n"));
        assert!(text.contains("neo_heartbeat_iterations{rank=\"1\",lane=\"1\"} 5\n"));
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.starts_with("neo_"),
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn event_log_rolls_at_the_byte_budget() {
        let dir = std::env::temp_dir().join(format!("neo_monitor_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let mut log = EventLog::open(Some(path.clone()), 64);
        let line = "x".repeat(40);
        log.write_line(&line); // 41 bytes
        log.write_line(&line); // would exceed 64: rolls first
        assert!(log.io_error().is_none(), "{:?}", log.io_error());
        let rolled = std::fs::read_to_string(dir.join("log.jsonl.1")).unwrap_or_default();
        let head = std::fs::read_to_string(&path).unwrap_or_default();
        assert_eq!(rolled.len(), 41);
        assert_eq!(head.len(), 41);
        log.write_exposition(&[], &MetricsSample::default());
        assert!(dir.join("log.prom").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exposition_spells_non_finite_gauges_the_prometheus_way() {
        let metrics = MetricsSample {
            counters: vec![],
            gauges: vec![
                ("a.nan".to_string(), 0, f64::NAN),
                ("a.pos".to_string(), 0, f64::INFINITY),
                ("a.neg".to_string(), 0, f64::NEG_INFINITY),
            ],
        };
        let text = exposition(&[], &metrics);
        assert!(text.contains("neo_a_nan NaN\n"), "{text}");
        assert!(text.contains("neo_a_pos +Inf\n"), "{text}");
        assert!(text.contains("neo_a_neg -Inf\n"), "{text}");
        assert!(!text.contains("null"), "JSON null must never leak: {text}");
    }

    #[test]
    fn rolled_frames_keep_numbering_and_slot_monotonicity() {
        let dir = std::env::temp_dir().join(format!("neo_monitor_roll_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.jsonl");

        // Real frames with advancing counters, like the sampler writes.
        const FRAMES: u64 = 24;
        let metrics = MetricsSample::default();
        let lines: Vec<String> = (0..FRAMES)
            .map(|frame| {
                let mut slot = hb(0, 0);
                slot.iter = frame;
                slot.beats = 3 * frame + 1;
                frame_json(frame, 1_000 * frame, &[slot], &metrics)
            })
            .collect();
        // Budget two thirds of the total: the roll fires exactly once, so
        // `<path>.1` must still start at frame 0 (nothing dropped).
        let total: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let mut log = EventLog::open(Some(path.clone()), total * 2 / 3);
        for line in &lines {
            log.write_line(line);
        }
        assert!(log.io_error().is_none(), "{:?}", log.io_error());

        let rolled = std::fs::read_to_string(dir.join("frames.jsonl.1")).unwrap();
        let head = std::fs::read_to_string(&path).unwrap();
        assert!(
            !rolled.is_empty() && !head.is_empty(),
            "budget must split the stream across the roll"
        );
        let mut seen: Vec<(u64, u64, u64)> = Vec::new(); // (frame, iter, beats)
        for line in rolled.lines().chain(head.lines()) {
            let doc = json::parse(line).unwrap();
            let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap() as u64;
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some("frame"));
            let slot = doc
                .get("heartbeats")
                .and_then(Json::as_array)
                .and_then(|v| v.first())
                .unwrap();
            let slot_num = |key: &str| slot.get(key).and_then(Json::as_f64).unwrap() as u64;
            seen.push((num("frame"), slot_num("iter"), slot_num("beats")));
        }
        // frame numbering is contiguous from 0 across the roll boundary
        assert_eq!(seen.len() as u64, FRAMES, "one roll loses nothing");
        for (i, (frame, iter, beats)) in seen.iter().enumerate() {
            assert_eq!(*frame, i as u64, "frame numbering survives the roll");
            assert_eq!(*iter, i as u64);
            assert_eq!(*beats, 3 * i as u64 + 1, "per-slot beats stay monotonic");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pathless_log_is_inert() {
        let mut log = EventLog::open(None, 1024);
        log.write_line("ignored");
        log.write_exposition(&[], &MetricsSample::default());
        assert!(log.io_error().is_none());
    }
}
