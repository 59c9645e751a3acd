//! Export formats: the `neo-telemetry/1` JSON summary and Chrome
//! trace-event JSON, both built as [`Json`] trees and printed by its one
//! writer. Ordering is deterministic: names ascend (inherited from the
//! `BTreeMap` store) and spans stay in record order.

use crate::json::Json;
use crate::{Histogram, Phase, SpanRecord};

/// Point-in-time copy of everything a sink has recorded.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters, name-ascending.
    pub counters: Vec<(String, u64)>,
    /// Gauge series, name-ascending; each point is `(iteration, value)`.
    pub gauges: Vec<(String, Vec<(u64, f64)>)>,
    /// Histograms, name-ascending.
    pub histograms: Vec<(String, Histogram)>,
    /// Recorded spans in completion order.
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Distinct span phases, first-seen order.
    pub fn phases(&self) -> Vec<Phase> {
        let mut phases: Vec<Phase> = Vec::new();
        for s in &self.spans {
            if !phases.contains(&s.phase) {
                phases.push(s.phase);
            }
        }
        phases
    }

    /// Serialize the summary document:
    ///
    /// ```json
    /// {
    ///   "schema": "neo-telemetry/1",
    ///   "counters": {"name": 1},
    ///   "gauges": {"name": [[iter, value]]},
    ///   "histograms": {"name": {"total": n, "sum": s, "mean": m,
    ///                            "p50": q, "p95": q, "p99": q,
    ///                            "buckets": [[bucket_lo, bucket_hi, count]]}},
    ///   "spans": [{"rank": 0, "lane": 0, "iter": 0, "name": "...",
    ///              "start_ns": 0, "end_ns": 1}]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|(name, v)| (name, (*v).into()));
        let gauges = self.gauges.iter().map(|(name, series)| {
            let points = series
                .iter()
                .map(|&(iter, v)| Json::Array(vec![iter.into(), v.into()]));
            (name, Json::Array(points.collect()))
        });
        let histograms = self.histograms.iter().map(|(name, h)| {
            // each bucket carries its explicit inclusive [lo, hi] bounds so
            // consumers never hard-code the log2 bucket scheme
            let buckets = h.nonzero_bucket_ranges().into_iter();
            let buckets = buckets.map(|(lo, hi, n)| Json::from(vec![lo, hi, n]));
            let h = Json::object([
                ("total", h.total().into()),
                ("sum", (h.sum() as f64).into()),
                ("mean", h.mean().into()),
                ("p50", h.quantile(0.50).into()),
                ("p95", h.quantile(0.95).into()),
                ("p99", h.quantile(0.99).into()),
                ("buckets", Json::Array(buckets.collect())),
            ]);
            (name, h)
        });
        let spans = self.spans.iter().map(|s| {
            Json::object([
                ("rank", s.rank.into()),
                ("lane", s.lane.into()),
                ("iter", s.iter.into()),
                ("name", s.phase.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
            ])
        });
        let doc = Json::object([
            ("schema", "neo-telemetry/1".into()),
            ("counters", Json::object(counters)),
            ("gauges", Json::object(gauges)),
            ("histograms", Json::object(histograms)),
            ("spans", Json::Array(spans.collect())),
        ]);
        format!("{doc:#}\n")
    }

    /// Serialize spans as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps, `pid` 0). Loadable in `chrome://tracing`
    /// and <https://ui.perfetto.dev>.
    ///
    /// Each `(rank, lane)` pair gets its own trace thread: lane 0 keeps
    /// `tid` = rank, and auxiliary lanes (e.g. the nonblocking-collective
    /// comm lane) map to `tid = world * lane + rank`, so overlapped comm
    /// spans render on their own row instead of colliding with lane-0
    /// compute spans.
    ///
    /// The stream opens with `process_name` / `thread_name` metadata ("M")
    /// events so Perfetto labels the training job and each rank/lane thread
    /// instead of showing bare pid/tid numbers.
    pub fn to_chrome_trace(&self) -> String {
        let world = self.spans.iter().map(|s| s.rank + 1).max().unwrap_or(1);
        let tid_of = |rank: u32, lane: u32| u64::from(world) * u64::from(lane) + u64::from(rank);
        let label = |name: String| Json::object([("name", Json::from(name))]);
        let mut events = vec![Json::object([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", 0u32.into()),
            ("args", label("neo-dlrm training".into())),
        ])];
        let mut threads: Vec<(u32, u32)> = self.spans.iter().map(|s| (s.lane, s.rank)).collect();
        threads.sort_unstable();
        threads.dedup();
        events.extend(threads.into_iter().map(|(lane, rank)| {
            let name = if lane == 0 {
                format!("rank {rank}")
            } else {
                format!("rank {rank} comm lane {lane}")
            };
            Json::object([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", 0u32.into()),
                ("tid", tid_of(rank, lane).into()),
                ("args", label(name)),
            ])
        }));
        events.extend(self.spans.iter().map(|s| {
            Json::object([
                ("name", s.phase.into()),
                ("cat", "neo".into()),
                ("ph", "X".into()),
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.duration_ns() as f64 / 1e3).into()),
                ("pid", 0u32.into()),
                ("tid", tid_of(s.rank, s.lane).into()),
                ("args", Json::object([("iter", s.iter.into())])),
            ])
        }));
        let doc = Json::object([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Json::Array(events)),
        ]);
        format!("{doc:#}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::{Metric, TelemetrySink};

    fn sample_sink() -> TelemetrySink {
        let sink = TelemetrySink::armed();
        sink.counter_add(Metric::CommBytes("all_reduce"), 4096);
        sink.gauge_push(Metric::TrainLoss, 0, 0.693);
        sink.gauge_push(Metric::TrainLoss, 1, 0.651);
        sink.histogram_observe(Metric::CommNs("all_reduce"), 1500);
        let rec = sink.rank(1);
        let it = rec.begin_iteration(0);
        drop(rec.span(Phase::Iteration));
        drop(rec.span(Phase::EmbLookup));
        it.end();
        sink
    }

    #[test]
    fn summary_json_round_trips_through_parser() {
        let text = sample_sink().export_json().unwrap_or_default();
        let doc = json::parse(&text).unwrap_or(Json::Null);
        let counters = doc
            .get("counters")
            .and_then(|c| c.get("comm.all_reduce.bytes"));
        assert_eq!(counters.and_then(Json::as_f64), Some(4096.0));
        let loss = doc.get("gauges").and_then(|g| g.get("train.loss"));
        assert_eq!(loss.and_then(Json::as_array).map(Vec::len), Some(2));
        let spans = doc.get("spans").and_then(Json::as_array);
        assert_eq!(spans.map(Vec::len), Some(2));
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("comm.all_reduce.ns"));
        let total = hist.and_then(|h| h.get("total")).and_then(Json::as_f64);
        assert_eq!(total, Some(1.0));
        // buckets carry explicit [lo, hi, count] bounds (1500 lands in
        // [1024, 2047])
        let bucket = hist
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array)
            .and_then(|b| b.first())
            .and_then(Json::as_array)
            .cloned()
            .unwrap_or_default();
        let nums: Vec<f64> = bucket.iter().filter_map(Json::as_f64).collect();
        assert_eq!(nums, vec![1024.0, 2047.0, 1.0]);
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let text = sample_sink().export_chrome_trace().unwrap_or_default();
        let doc = json::parse(&text).unwrap_or(Json::Null);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .cloned()
            .unwrap_or_default();
        // 2 spans + process_name + one thread_name (single rank)
        assert_eq!(events.len(), 4);
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        for ev in &spans {
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
            assert!(ev.get("dur").and_then(Json::as_f64).is_some());
            assert_eq!(ev.get("tid").and_then(Json::as_f64), Some(1.0));
        }
    }

    #[test]
    fn chrome_trace_labels_process_and_ranks() {
        let text = sample_sink().export_chrome_trace().unwrap_or_default();
        let doc = json::parse(&text).unwrap_or(Json::Null);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .cloned()
            .unwrap_or_default();
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2, "process_name + thread_name for rank 1");
        let proc_label = meta
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str);
        assert_eq!(proc_label, Some("neo-dlrm training"));
        let thread = meta
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .copied();
        assert_eq!(
            thread.and_then(|e| e.get("tid")).and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            thread
                .and_then(|e| e.get("args"))
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("rank 1")
        );
    }

    #[test]
    fn chrome_trace_gives_comm_lanes_their_own_threads() {
        let sink = TelemetrySink::armed();
        for r in 0..2u32 {
            let rec = sink.rank(r);
            let it = rec.begin_iteration(0);
            drop(rec.span(Phase::TopMlp));
            it.end();
        }
        sink.push_span(SpanRecord {
            rank: 1,
            lane: 1,
            iter: 0,
            phase: Phase::AlltoallFwd,
            start_ns: 0,
            end_ns: 1,
        });

        let text = sink.export_chrome_trace().unwrap_or_default();
        let doc = json::parse(&text).unwrap_or(Json::Null);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .cloned()
            .unwrap_or_default();
        // world = 2, so rank 1 lane 1 lands on tid 2*1 + 1 = 3
        let lane_meta = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("thread_name")
                    && e.get("tid").and_then(Json::as_f64) == Some(3.0)
            })
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str);
        assert_eq!(lane_meta, Some("rank 1 comm lane 1"));
        let lane_span = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("alltoall_fwd"));
        assert_eq!(
            lane_span.and_then(|e| e.get("tid")).and_then(Json::as_f64),
            Some(3.0)
        );
        // lane-0 spans keep tid = rank
        let main_span = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("top_mlp"));
        assert_eq!(
            main_span.and_then(|e| e.get("tid")).and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn summary_json_carries_percentiles() {
        let sink = TelemetrySink::armed();
        for v in [4u64, 5, 6, 7] {
            sink.histogram_observe(Metric::DataioBatchBuildNs, v);
        }
        let text = sink.export_json().unwrap_or_default();
        let doc = json::parse(&text).unwrap_or(Json::Null);
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("dataio.batch_build.ns"));
        let p50 = hist.and_then(|h| h.get("p50")).and_then(Json::as_f64);
        assert_eq!(p50, Some(5.5));
        for key in ["p95", "p99"] {
            let v = hist.and_then(|h| h.get(key)).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| (4.0..=7.0).contains(&v)), "{key}: {v:?}");
        }
    }
}
