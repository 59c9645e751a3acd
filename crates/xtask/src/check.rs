//! `neo-xtask check <files...>`: the one validator for every artifact the
//! workspace writes (ci.sh gate 6). It takes no flags and
//! dispatches per file. A `.jsonl` file is a `neo-monitor` event log; any
//! other file must parse as JSON and is dispatched on its root `schema`
//! tag, or on `traceEvents` for the Chrome trace, the one third-party
//! format. An unknown or missing tag is a failure. The rules:
//!
//! - event log: every line is a `frame` or `event` of the writer's
//!   [`neo_monitor::eventlog::SCHEMA_VERSION`], frames count 0, 1, 2, …,
//!   timestamps never run backwards, each rank's heartbeat's `beats`/`iter` never decrease, states and event kinds
//!   are known, at least one frame exists and no health event was raised
//!   (a clean run).
//! - `neo-telemetry/1`: every span name is a [`Phase`], at least
//!   [`MIN_PHASES`] distinct ones appear, and spans on one `(rank, lane)`
//!   only nest. Posted collectives' in-flight spans interleave with
//!   compute legally because they are recorded on their own lane, where
//!   the LIFO waits keep them nested.
//! - `neo-workload/2`: pooling mass, bags and shard lookups (replicated
//!   for column slices) are conserved against each table's lookups;
//!   unique rows are bounded; a table's top rows are ordered by hits
//!   descending (row ascending on ties), each hits value lies in
//!   `1..=lookups` and they sum to at most `lookups`, there are at most
//!   `min(unique_rows, TOP_ROWS)` of them, and each row lies inside the
//!   table; model-parallel index traffic fits inside the `comm.*` byte
//!   counters.
//! - Chrome trace: every event has a name and phase, every "X" event a
//!   [`Phase`] name, a `ts` and a `dur`, and `process_name` / `thread_name`
//!   metadata events label the process and every span's thread.

use std::fs;
use std::path::Path;

use neo_monitor::eventlog::SCHEMA_VERSION;
use neo_telemetry::json::{self, Json};
use neo_telemetry::Phase;
use neo_workload::{ShardKind, TableWorkload, WorkloadReport, TOP_ROWS};

use crate::USAGE;

/// Fewest distinct span phases a telemetry summary may carry.
const MIN_PHASES: usize = 8;

/// Checks every file, printing one `ok` line or its problems per file;
/// returns the number of problems found.
pub fn run_check(files: &[String]) -> Result<usize, String> {
    if files.is_empty() || files.iter().any(|f| f.starts_with("--")) {
        return Err(format!("check takes artifact files and no flags ({USAGE})"));
    }
    let mut problems = 0;
    for file in files {
        match check_file(Path::new(file)) {
            Ok(summary) => println!("{file}: ok ({summary})"),
            Err(found) => {
                for p in &found {
                    println!("{file}: {p}");
                }
                problems += found.len();
            }
        }
    }
    Ok(problems)
}

/// One artifact's result: a summary when clean, else every problem found.
type Verdict = Result<String, Vec<String>>;

fn verdict(problems: Vec<String>, summary: String) -> Verdict {
    if problems.is_empty() {
        Ok(summary)
    } else {
        Err(problems)
    }
}

fn check_file(path: &Path) -> Verdict {
    let text = fs::read_to_string(path).map_err(|e| vec![format!("cannot read: {e}")])?;
    if path.extension().is_some_and(|e| e == "jsonl") {
        return monitor_log(&text);
    }
    let doc = json::parse(&text).map_err(|e| vec![format!("invalid JSON: {e}")])?;
    match string(&doc, "schema") {
        Some("neo-telemetry/1") => telemetry_summary(&doc),
        Some("neo-workload/2") => workload(&text),
        Some(tag) => Err(vec![format!("unknown schema `{tag}`")]),
        None => match doc.get("traceEvents").and_then(Json::as_array) {
            Some(events) => chrome_trace(events),
            None => Err(vec!["no root `schema` tag, and not a Chrome trace".into()]),
        },
    }
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

fn string<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    j.get(key).and_then(Json::as_str)
}

/// One problem per distinct span name outside the [`Phase`] vocabulary.
fn unknown_phases<'a>(names: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut unknown: Vec<&str> = names.filter(|n| Phase::from_name(n).is_none()).collect();
    unknown.sort_unstable();
    unknown.dedup();
    unknown
        .iter()
        .map(|n| format!("span name `{n}` is not a phase"))
        .collect()
}

fn telemetry_summary(doc: &Json) -> Verdict {
    let Some(spans) = doc.get("spans").and_then(Json::as_array) else {
        return Err(vec!["no `spans` array".into()]);
    };
    let mut names: Vec<&str> = spans.iter().filter_map(|s| string(s, "name")).collect();
    let mut bad = unknown_phases(names.iter().copied());
    names.sort_unstable();
    names.dedup();
    if names.len() < MIN_PHASES {
        bad.push(format!(
            "only {} distinct span phase(s), need at least {MIN_PHASES}",
            names.len()
        ));
    }
    let tangled = tangled_spans(spans);
    if tangled > 0 {
        bad.push(format!(
            "{tangled} span pair(s) partially overlap on the same (rank, lane); spans \
             may only nest within a lane (posted collectives' in-flight spans belong \
             on their own lane)"
        ));
    }
    let (phases, spans) = (names.len(), spans.len());
    let summary = format!("{phases} distinct phases across {spans} spans");
    verdict(bad, summary)
}

/// Counts span pairs that *partially* overlap while sharing a `(rank,
/// lane)`: one starts inside the other and ends after it.
fn tangled_spans(spans: &[Json]) -> usize {
    type LaneIntervals = Vec<((f64, f64), Vec<(f64, f64)>)>;
    let mut by_lane: LaneIntervals = Vec::new();
    for s in spans {
        let key = (num(s, "rank").unwrap_or(0.0), num(s, "lane").unwrap_or(0.0));
        let (Some(start), Some(end)) = (num(s, "start_ns"), num(s, "end_ns")) else {
            continue;
        };
        match by_lane.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push((start, end)),
            None => by_lane.push((key, vec![(start, end)])),
        }
    }
    let mut tangled = 0;
    for (_, mut iv) in by_lane {
        // sort by start ascending, longest first on ties so parents precede
        iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<f64> = Vec::new();
        for (start, end) in iv {
            while open.last().is_some_and(|&e| e <= start) {
                open.pop();
            }
            if open.last().is_some_and(|&e| end > e) {
                tangled += 1;
            }
            open.push(end);
        }
    }
    tangled
}

fn chrome_trace(events: &[Json]) -> Verdict {
    fn ph(e: &Json) -> Option<&str> {
        string(e, "ph")
    }
    let spans = || events.iter().filter(|e| ph(e) == Some("X"));
    let meta = |name: &'static str| {
        let is = move |e: &&Json| ph(e) == Some("M") && string(e, "name") == Some(name);
        events.iter().filter(is)
    };
    let mut bad = unknown_phases(spans().filter_map(|e| string(e, "name")));
    let malformed = events
        .iter()
        .filter(|e| {
            string(e, "name").is_none()
                || ph(e).is_none()
                || (ph(e) == Some("X") && (num(e, "ts").is_none() || num(e, "dur").is_none()))
        })
        .count();
    if malformed > 0 {
        bad.push(format!(
            "{malformed} trace event(s) missing name/ph (or ts/dur on \"X\" events)"
        ));
    }
    if meta("process_name").next().is_none() {
        bad.push("no process_name metadata event".into());
    }
    let labelled: Vec<f64> = meta("thread_name").filter_map(|e| num(e, "tid")).collect();
    let unlabelled = spans()
        .filter_map(|e| num(e, "tid"))
        .filter(|tid| !labelled.contains(tid))
        .count();
    if unlabelled > 0 {
        bad.push(format!(
            "{unlabelled} span event(s) on threads without a thread_name metadata event"
        ));
    }
    verdict(bad, format!("{} trace events", events.len()))
}

fn monitor_log(text: &str) -> Verdict {
    let count = |j: &Json, key: &str| num(j, key).map(|v| v as u64);
    let mut bad = Vec::new();
    let (mut frames, mut last_t_ns) = (0u64, 0u64);
    // per rank: (beats, iter) at the previous frame
    let mut slots: Vec<(u64, (u64, u64))> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("line {}", i + 1);
        let doc = match json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                bad.push(format!("{at}: invalid JSON: {e}"));
                continue;
            }
        };
        if count(&doc, "v") != Some(SCHEMA_VERSION) {
            bad.push(format!("{at}: schema version is not {SCHEMA_VERSION}"));
            continue;
        }
        match count(&doc, "t_ns") {
            Some(t) if t >= last_t_ns => last_t_ns = t,
            Some(t) => bad.push(format!("{at}: t_ns {t} runs backwards (< {last_t_ns})")),
            None => bad.push(format!("{at}: missing t_ns")),
        }
        match string(&doc, "kind") {
            Some("frame") => {
                if count(&doc, "frame") != Some(frames) {
                    bad.push(format!("{at}: expected frame number {frames}"));
                }
                frames += 1;
                let Some(hbs) = doc.get("heartbeats").and_then(Json::as_array) else {
                    bad.push(format!("{at}: frame without heartbeats array"));
                    continue;
                };
                for h in hbs {
                    let (Some(rank), Some(iter), Some(beats)) =
                        (count(h, "rank"), count(h, "iter"), count(h, "beats"))
                    else {
                        bad.push(format!("{at}: heartbeat missing rank/iter/beats"));
                        continue;
                    };
                    let state = string(h, "state").unwrap_or("");
                    if !["idle", "iterating", "span", "exchange"].contains(&state) {
                        bad.push(format!("{at}: unknown heartbeat state `{state}`"));
                    }
                    match slots.iter_mut().find(|(k, _)| *k == rank) {
                        Some((_, prev)) => {
                            if beats < prev.0 || iter < prev.1 {
                                bad.push(format!(
                                    "{at}: heartbeat of rank {rank} went \
                                     backwards: beats {} -> {beats}, iter {} -> {iter}",
                                    prev.0, prev.1
                                ));
                            }
                            *prev = (beats, iter);
                        }
                        None => slots.push((rank, (beats, iter))),
                    }
                }
            }
            Some("event") => {
                let kind = string(&doc, "event").unwrap_or("");
                if !["stall", "hang", "straggler"].contains(&kind) {
                    bad.push(format!("{at}: unknown event kind `{kind}`"));
                }
                if count(&doc, "rank").is_none() {
                    bad.push(format!("{at}: event without a rank"));
                }
                bad.push(format!("{at}: health event on a clean run: {line}"));
            }
            other => bad.push(format!("{at}: unknown line kind {other:?}")),
        }
    }
    if frames == 0 {
        bad.push("no frames recorded".into());
    }
    let summary = format!("{frames} frame(s), {} heartbeat slot(s)", slots.len());
    verdict(bad, summary)
}

fn workload(text: &str) -> Verdict {
    let report = WorkloadReport::parse(text).map_err(|e| vec![e])?;
    let mut bad = Vec::new();
    for t in &report.tables {
        let TableWorkload {
            table,
            rows,
            lookups,
            bags,
            unique_rows,
            ..
        } = *t;
        let (mass, samples) = (t.pooling.sum, t.pooling.total);
        let tag = format!("table {table}");
        if mass != lookups {
            bad.push(format!("{tag}: pooling mass {mass} != lookups {lookups}"));
        }
        if samples != bags {
            bad.push(format!("{tag}: pooling samples {samples} != bags {bags}"));
        }
        if unique_rows > lookups.min(rows) {
            bad.push(format!(
                "{tag}: unique_rows {unique_rows} exceeds min(lookups {lookups}, rows {rows})"
            ));
        }
        if lookups > 0 && unique_rows == 0 {
            bad.push(format!("{tag}: traffic recorded but no unique rows"));
        }
        bad.extend(top_rows(&tag, t));
        // column slices each see the identical replicated index stream;
        // every other kind partitions it
        let shards: Vec<_> = report.shards.iter().filter(|s| s.table == table).collect();
        if shards.is_empty() {
            bad.push(format!("{tag}: no shard samples"));
        } else if shards.iter().any(|s| s.kind == ShardKind::Col) {
            for s in shards.iter().filter(|s| s.lookups != lookups) {
                bad.push(format!(
                    "{tag}: column slice {} saw {} lookups, table saw {lookups} \
                     (replicated streams must match)",
                    s.shard, s.lookups
                ));
            }
        } else {
            let sum: u64 = shards.iter().map(|s| s.lookups).sum();
            if sum != lookups {
                bad.push(format!(
                    "{tag}: shard lookups sum to {sum}, table saw {lookups} \
                     (partitioned streams must conserve)"
                ));
            }
        }
    }
    // Every model-parallel lookup moved one u64 index over the wire, so the
    // comm.* byte counters bound the index traffic from below (they also
    // carry pooled embeddings and gradients; equality is not expected).
    let mp = report.shards.iter().filter(|s| s.kind != ShardKind::Dp);
    let mp_index_bytes: u64 = mp.map(|s| s.lookups * 8).sum();
    if report.comm_bytes > 0 && mp_index_bytes > report.comm_bytes {
        bad.push(format!(
            "index traffic {mp_index_bytes} B exceeds total collective traffic {} B",
            report.comm_bytes
        ));
    }
    let (tables, shards) = (report.tables.len(), report.shards.len());
    let imbalance = report.imbalance().lookup_max_over_mean;
    let summary = format!("{tables} table(s), {shards} shard(s), lookup imbalance {imbalance:.3}");
    verdict(bad, summary)
}

/// The problems with one table's exact hottest rows.
fn top_rows(tag: &str, t: &TableWorkload) -> Vec<String> {
    let (top, lookups, rows) = (&t.top_rows, t.lookups, t.rows);
    let mut bad = Vec::new();
    let most = t.unique_rows.min(TOP_ROWS as u64);
    if top.len() as u64 > most {
        bad.push(format!(
            "{tag}: {} top rows, more than min(unique_rows, {TOP_ROWS}) = {most}",
            top.len()
        ));
    }
    for w in top.windows(2) {
        let ((r0, h0), (r1, h1)) = (w[0], w[1]);
        if h1 > h0 || (h1 == h0 && r1 <= r0) {
            bad.push(format!(
                "{tag}: top rows ({r0}, {h0}) then ({r1}, {h1}) are out of order \
                 (hits descending, row ascending on ties)"
            ));
        }
    }
    for &(row, hits) in top {
        if hits == 0 || hits > lookups {
            bad.push(format!(
                "{tag}: top row {row} has {hits} hits, outside 1..={lookups}"
            ));
        }
        if row >= rows {
            bad.push(format!(
                "{tag}: top row {row} outside the table (rows {rows})"
            ));
        }
    }
    let sum: u64 = top.iter().map(|&(_, hits)| hits).sum();
    if sum > lookups {
        bad.push(format!(
            "{tag}: top rows' hits sum to {sum}, more than lookups {lookups}"
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_monitor::eventlog::{event_json, frame_json};
    use neo_monitor::HealthEvent;
    use neo_telemetry::{HeartbeatSample, HeartbeatState, MetricsSample, TelemetrySink};
    use neo_workload::{ShardCollector, TableMeta};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Writes `files` (name, text) into a fresh directory and checks the
    /// first one.
    fn check(files: &[(&str, &str)]) -> Verdict {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "neo-xtask-check-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        for (name, text) in files {
            fs::write(dir.join(name), text).unwrap();
        }
        let verdict = check_file(&dir.join(files[0].0));
        fs::remove_dir_all(&dir).unwrap();
        verdict
    }

    #[track_caller]
    fn assert_ok(verdict: Verdict) {
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[track_caller]
    fn assert_flags(verdict: Verdict, needle: &str) {
        let problems = verdict.expect_err("must fail");
        assert!(
            problems.iter().any(|p| p.contains(needle)),
            "{needle:?} not in {problems:?}"
        );
    }

    #[test]
    fn parse_errors_and_schema_tags() {
        assert_flags(check(&[("a.json", "{not json")]), "invalid JSON");
        assert_flags(check(&[("a.json", "01")]), "invalid JSON");
        assert_flags(
            check(&[("a.json", r#"{"schema": "neo-other/9"}"#)]),
            "unknown schema `neo-other/9`",
        );
        assert_flags(check(&[("a.json", r#"{"spans": []}"#)]), "no root `schema`");
        assert!(run_check(&[]).is_err(), "usage error without a file");
        assert!(
            run_check(&["--expect-clean".into()]).is_err(),
            "no flags are accepted"
        );
    }

    /// A summary with one rank's spans `(lane, name, start_ns, end_ns)`.
    fn summary(spans: &[(u32, &str, u64, u64)]) -> String {
        let spans = spans.iter().map(|&(lane, name, start, end)| {
            Json::object([
                ("rank", 0u32.into()),
                ("lane", lane.into()),
                ("iter", 0u32.into()),
                ("name", name.into()),
                ("start_ns", start.into()),
                ("end_ns", end.into()),
            ])
        });
        let doc = Json::object([
            ("schema", "neo-telemetry/1".into()),
            ("spans", Json::Array(spans.collect())),
        ]);
        format!("{doc:#}")
    }

    #[test]
    fn telemetry_summary_needs_eight_phases_that_nest_per_lane() {
        let sink = TelemetrySink::armed();
        let rec = sink.rank(1);
        let it = rec.begin_iteration(0);
        for &p in &Phase::ALL[..MIN_PHASES] {
            drop(rec.span(p));
        }
        it.end();
        assert_ok(check(&[("t.json", &sink.export_json().unwrap())]));
        assert_ok(check(&[(
            "t.trace.json",
            &sink.export_chrome_trace().unwrap(),
        )]));

        let eight: Vec<(u32, &str, u64, u64)> = (Phase::ALL[..MIN_PHASES].iter())
            .zip(0u64..)
            .map(|(p, i)| (0, p.as_str(), 10 * i, 10 * i + 5))
            .collect();
        assert_ok(check(&[("t.json", &summary(&eight))]));
        assert_flags(
            check(&[("t.json", &summary(&eight[..7]))]),
            "only 7 distinct span phase(s)",
        );
        // a comm-lane span crossing two lane-0 spans is legal...
        let mut lanes = eight.clone();
        lanes.push((1, "alltoall_fwd", 3, 14));
        assert_ok(check(&[("t.json", &summary(&lanes))]));
        // ...and the same span on lane 0 is not
        let mut tangled = eight.clone();
        tangled.push((0, "alltoall_fwd", 3, 14));
        assert_flags(
            check(&[("t.json", &summary(&tangled))]),
            "partially overlap",
        );
    }

    #[test]
    fn span_names_outside_the_phase_vocabulary_are_rejected() {
        let mut warmup: Vec<(u32, &str, u64, u64)> = (Phase::ALL.iter())
            .zip(0u64..)
            .map(|(p, i)| (0, p.as_str(), 10 * i, 10 * i + 5))
            .collect();
        warmup.push((0, "warmup", 500, 505));
        assert_flags(
            check(&[("t.json", &summary(&warmup))]),
            "span name `warmup` is not a phase",
        );
        let process = r#"{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "x"}}"#;
        let thread =
            r#"{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "rank 0"}}"#;
        let span = r#"{"name": "warmup", "ph": "X", "ts": 0, "dur": 5, "pid": 0, "tid": 0}"#;
        let trace = format!(r#"{{"traceEvents": [{process}, {thread}, {span}]}}"#);
        assert_flags(
            check(&[("t.json", &trace)]),
            "span name `warmup` is not a phase",
        );
    }

    #[test]
    fn chrome_trace_needs_well_formed_labelled_events() {
        let process = r#"{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "x"}}"#;
        let thread =
            r#"{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "rank 0"}}"#;
        let span = r#"{"name": "iteration", "ph": "X", "ts": 0, "dur": 5, "pid": 0, "tid": 0}"#;
        let trace = |events: &[&str]| format!(r#"{{"traceEvents": [{}]}}"#, events.join(", "));
        assert_ok(check(&[("t.json", &trace(&[process, thread, span]))]));
        let no_ph = r#"{"name": "iteration", "ts": 0, "dur": 5, "tid": 0}"#;
        assert_flags(
            check(&[("t.json", &trace(&[process, thread, no_ph]))]),
            "missing name/ph",
        );
        let no_dur = r#"{"name": "iteration", "ph": "X", "ts": 0, "tid": 0}"#;
        assert_flags(
            check(&[("t.json", &trace(&[process, thread, no_dur]))]),
            "or ts/dur",
        );
        assert_flags(
            check(&[("t.json", &trace(&[thread, span]))]),
            "no process_name",
        );
        assert_flags(
            check(&[("t.json", &trace(&[process, span]))]),
            "without a thread_name",
        );
    }

    fn frame(n: u64, t_ns: u64, beats: u64, iter: u64) -> String {
        let slot = HeartbeatSample {
            rank: 0,
            iter,
            state: HeartbeatState::Iterating,
            phase: None,
            beats,
            last_beat_ns: t_ns,
            last_iter_ns: 5,
        };
        frame_json(n, t_ns, &[slot], &MetricsSample::default())
    }

    fn log(lines: &[String]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn monitor_log_must_be_a_clean_monotone_frame_stream() {
        let clean = log(&[frame(0, 10, 3, 1), frame(1, 20, 5, 2)]);
        assert_ok(check(&[("m.jsonl", &clean)]));
        assert_flags(check(&[("m.jsonl", "{\n")]), "line 1: invalid JSON");
        assert_flags(
            check(&[("m.jsonl", &log(&[frame(7, 10, 1, 1)]))]),
            "expected frame number 0",
        );
        assert_flags(
            check(&[("m.jsonl", &log(&[frame(0, 20, 1, 1), frame(1, 10, 2, 2)]))]),
            "runs backwards",
        );
        assert_flags(
            check(&[("m.jsonl", &log(&[frame(0, 10, 5, 2), frame(1, 20, 3, 1)]))]),
            "went backwards",
        );
        let bogus = frame(0, 10, 1, 1).replace("iterating", "bogus");
        assert_flags(
            check(&[("m.jsonl", &log(&[bogus]))]),
            "unknown heartbeat state `bogus`",
        );
        assert_flags(check(&[("m.jsonl", "")]), "no frames recorded");
        let stall = HealthEvent::Stall {
            rank: 1,
            iter: 4,
            phase: Some(Phase::AllreduceTop),
            quiet_ms: 300,
        };
        let stalled = log(&[frame(0, 10, 3, 1), event_json(90, &stall)]);
        assert_flags(
            check(&[("m.jsonl", &stalled)]),
            "health event on a clean run",
        );
    }

    #[test]
    fn monitor_log_of_another_schema_version_is_rejected() {
        let current = frame(0, 10, 3, 1);
        let v1 = current.replace(&format!("\"v\":{SCHEMA_VERSION}"), "\"v\":1");
        assert_ne!(v1, current, "the frame carries the writer's version");
        assert_flags(
            check(&[("m.jsonl", &log(&[v1]))]),
            "line 1: schema version is not 2",
        );
    }

    #[test]
    fn workload_must_conserve_counts_and_bound_traffic() {
        // one table, two row shards partitioning a 64-row space at row 32
        let mut lo = ShardCollector::new(0, 0, 0, ShardKind::Row, 8, 0, 32);
        lo.record(&[2, 1], &[0, 1, 0]);
        let mut hi = ShardCollector::new(1, 0, 1, ShardKind::Row, 8, 32, 32);
        hi.record(&[1, 1], &[0, 5]); // global rows 32 and 37
        let samples = vec![lo.finish(32 * 8 * 4), hi.finish(32 * 8 * 4)];
        let meta = [TableMeta { rows: 64, dim: 8 }];
        let report = WorkloadReport::from_samples(2, 1, 4, 4096, &meta, samples);
        let top = [(0, 2), (1, 1), (32, 1), (37, 1)];
        assert_eq!(report.tables[0].top_rows, top);
        assert_ok(check(&[("w.json", &report.to_json())]));

        let v1 = report
            .to_json()
            .replace("\"neo-workload/2\"", "\"neo-workload/1\"");
        assert_flags(check(&[("w.json", &v1)]), "unknown schema `neo-workload/1`");

        let mut broken = report.clone();
        broken.tables[0].lookups += 1;
        assert_flags(check(&[("w.json", &broken.to_json())]), "pooling mass");
        assert_flags(check(&[("w.json", &broken.to_json())]), "shard lookups sum");

        // each rule of the top rows, broken alone: exactly one problem
        let mutants: [(&[(u64, u64)], &str); 6] = [
            (&[(1, 1), (0, 2), (32, 1), (37, 1)], "out of order"),
            (&[(0, 2), (32, 1), (1, 1), (37, 1)], "out of order"),
            (&[(0, 2), (1, 1), (32, 1), (37, 0)], "outside 1..=5"),
            (&[(0, 3), (1, 1), (32, 1), (37, 1)], "sum to 6"),
            (
                &[(0, 1), (1, 1), (32, 1), (37, 1), (38, 1)],
                "more than min",
            ),
            (&[(0, 2), (1, 1), (32, 1), (64, 1)], "outside the table"),
        ];
        for (rows, needle) in mutants {
            let mut mutant = report.clone();
            mutant.tables[0].top_rows = rows.to_vec();
            let problems = check(&[("w.json", &mutant.to_json())]).expect_err(needle);
            assert!(
                problems.len() == 1 && problems[0].contains(needle),
                "{needle:?}: {problems:?}"
            );
        }

        let mut starved = report;
        starved.comm_bytes = 8;
        assert_flags(
            check(&[("w.json", &starved.to_json())]),
            "exceeds total collective traffic",
        );
    }
}
