//! Metrics registry and per-iteration span timeline for the Neo training stack.
//!
//! This crate is deliberately free of external dependencies (std plus the
//! equally std-only `neo-sync` lock wrappers) so every other crate in the
//! workspace can depend on it without cycles or build-cost creep. It
//! provides:
//!
//! - a thread-safe metrics registry: monotonically increasing **counters**,
//!   per-iteration **gauge series**, and **histograms** with fixed log2
//!   buckets ([`Histogram`]), each named by a [`Metric`];
//! - a **span recorder** capturing nested [`Phase`]s per rank per
//!   iteration via owned RAII guards ([`RankRecorder::begin_iteration`] /
//!   [`IterationGuard`], [`RankRecorder::span`] / [`SpanGuard`]);
//! - exporters for the `neo-telemetry/1` **JSON summary** and the **Chrome
//!   trace-event format** (loadable in `chrome://tracing` / Perfetto);
//! - the closed **span and metric vocabularies** ([`Phase`], [`Metric`]),
//!   shared by the live trainer instrumentation and the `perfmodel`
//!   simulator, so simulated and measured timelines are diffable;
//! - the workspace's one JSON value type ([`json`]): the writer every
//!   artifact is printed by, and the parser tooling reads them back with.
//!
//! The whole API is driven through a cloneable [`TelemetrySink`] handle.
//! A disabled sink (the default) is a true no-op: no timing syscalls, no
//! allocation, no locking on any hot path.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod export;
pub mod heartbeat;
pub mod json;
pub mod metric;
mod metrics;
pub mod phase;
pub mod stats;
mod summary;

pub use export::Snapshot;
pub use heartbeat::{HeartbeatSample, HeartbeatState};
pub use metric::Metric;
pub use metrics::{Histogram, MetricsSample, NUM_BUCKETS};
pub use phase::Phase;
pub use summary::TelemetrySummary;

use heartbeat::Heartbeat;
use metrics::Store;
use neo_sync::{OrderedMutex, OrderedMutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded phase interval: rank + iteration + phase + wall-clock bounds.
///
/// Timestamps are nanoseconds since the owning sink was armed, so records
/// from different ranks share a clock and can be merged into one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Rank that recorded the span.
    pub rank: u32,
    /// Execution lane within the rank: `0` is the main compute thread;
    /// higher lanes are auxiliary threads (e.g. the nonblocking-collective
    /// comm lane), whose spans may legally overlap lane-0 spans in time.
    pub lane: u32,
    /// Training iteration the span belongs to.
    pub iter: u64,
    /// The phase the span measured.
    pub phase: Phase,
    /// Start, nanoseconds since the sink was armed.
    pub start_ns: u64,
    /// End, nanoseconds since the sink was armed.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    store: OrderedMutex<Store>,
    /// Heartbeat slot registry, one slot per `(rank, lane)` ever handed
    /// out. The lock guards only find-or-insert at recorder creation;
    /// publication and sampling go through the slot's atomics.
    heartbeats: OrderedMutex<Vec<Arc<Heartbeat>>>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn store(&self) -> OrderedMutexGuard<'_, Store> {
        // A panic while holding the lock only loses telemetry, never
        // correctness; OrderedMutex recovers from the poison itself.
        self.store.lock()
    }

    fn heartbeat(&self, rank: u32, lane: u32) -> Arc<Heartbeat> {
        let mut slots = self.heartbeats.lock();
        // lint: allow(lock_order) — same-name merge: h.rank() is Heartbeat::rank (an atomic getter), not TelemetrySink::rank, so no second acquire occurs
        if let Some(h) = slots.iter().find(|h| h.rank() == rank && h.lane() == lane) {
            return Arc::clone(h);
        }
        let h = Arc::new(Heartbeat::new(rank, lane));
        slots.push(Arc::clone(&h));
        h
    }
}

/// Cloneable handle to a telemetry collector, or to nothing at all.
///
/// [`TelemetrySink::disabled`] (also the `Default`) carries no storage: every
/// recording method returns immediately without reading the clock, locking,
/// or allocating. [`TelemetrySink::armed`] allocates shared storage; clones
/// record into the same registry, which is how one sink is threaded through
/// every rank of a training job.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.inner.is_some() {
            "armed"
        } else {
            "disabled"
        };
        write!(f, "TelemetrySink({state})")
    }
}

impl TelemetrySink {
    /// A sink that records nothing. All operations are no-ops.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live sink with fresh, empty storage. The clock starts now.
    pub fn armed() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "span timestamps are offsets from this epoch; measuring is the sink's job"
                )]
                epoch: Instant::now(),
                store: OrderedMutex::new("telemetry.store", Store::default()),
                heartbeats: OrderedMutex::new("telemetry.heartbeats", Vec::new()),
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the monotonic counter `metric`.
    ///
    /// ```
    /// use neo_telemetry::{Metric, TelemetrySink};
    /// TelemetrySink::armed().counter_add(Metric::EmbLookupRows, 1);
    /// ```
    ///
    /// A metric is named by the vocabulary, never inline:
    ///
    /// ```compile_fail
    /// neo_telemetry::TelemetrySink::armed().counter_add("inline_metric_name", 1);
    /// ```
    pub fn counter_add(&self, metric: Metric, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.store().counter_add(metric, delta);
        }
    }

    /// Append one `(iteration, value)` point to the gauge series `metric`.
    pub fn gauge_push(&self, metric: Metric, iter: u64, value: f64) {
        if let Some(inner) = &self.inner {
            inner.store().gauge_push(metric, iter, value);
        }
    }

    /// Raise the running-max gauge `metric` to `value` if it exceeds the
    /// current maximum (recording `iter` as where the peak occurred).
    ///
    /// Unlike [`TelemetrySink::gauge_push`], which appends a point per
    /// observation, a running-max gauge keeps exactly one point — the peak
    /// — so peak queue depth / peak memory survive any later sampling or
    /// summarization instead of being averaged away. Use one style or the
    /// other per gauge, not both.
    pub fn gauge_set_max(&self, metric: Metric, iter: u64, value: f64) {
        if let Some(inner) = &self.inner {
            inner.store().gauge_set_max(metric, iter, value);
        }
    }

    /// Record one observation into the log2-bucket histogram `metric`.
    pub fn histogram_observe(&self, metric: Metric, value: u64) {
        if let Some(inner) = &self.inner {
            inner.store().histogram_observe(metric, value);
        }
    }

    /// Nanoseconds since this sink was armed; `None` when disabled.
    pub fn now_ns(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.now_ns())
    }

    /// Create the per-rank span recorder for `rank` (main lane 0).
    pub fn rank(&self, rank: u32) -> RankRecorder {
        self.rank_lane(rank, 0)
    }

    /// Create a span recorder for an auxiliary execution lane of `rank`.
    ///
    /// Lane 0 is the main compute thread ([`TelemetrySink::rank`]); higher
    /// lanes belong to helper threads of the same rank — e.g. the
    /// nonblocking-collective comm lane — whose spans may legally overlap
    /// lane-0 spans on the merged timeline.
    pub fn rank_lane(&self, rank: u32, lane: u32) -> RankRecorder {
        let live = self.inner.as_ref().map(|inner| {
            Arc::new(Live {
                hb: inner.heartbeat(rank, lane),
                inner: Arc::clone(inner),
                iter: AtomicU64::new(0),
                active: AtomicBool::new(false),
            })
        });
        RankRecorder {
            sink: self.clone(),
            rank,
            lane,
            live,
        }
    }

    /// Consistent copy of everything recorded so far; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|i| i.store().snapshot())
    }

    /// Cheap point-in-time metrics sample: final counter values plus the
    /// latest point of every gauge series. Unlike [`TelemetrySink::snapshot`]
    /// this clones no spans and no histograms, so a monitor can call it
    /// every few milliseconds without stretching the store lock's hold
    /// time. `None` when disabled.
    pub fn sample(&self) -> Option<MetricsSample> {
        self.inner.as_ref().map(|i| i.store().sample())
    }

    /// Sampled copies of every heartbeat slot, `(rank, lane)`-ascending.
    /// Empty when the sink is disabled (a disabled sink has no slots).
    pub fn heartbeats(&self) -> Vec<HeartbeatSample> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<HeartbeatSample> =
            inner.heartbeats.lock().iter().map(|h| h.sample()).collect();
        out.sort_by_key(|s| (s.rank, s.lane));
        out
    }

    /// JSON summary document (counters, gauges, histograms, spans).
    ///
    /// Returns `None` when the sink is disabled.
    pub fn export_json(&self) -> Option<String> {
        self.snapshot().map(|s| s.to_json())
    }

    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    ///
    /// Returns `None` when the sink is disabled.
    pub fn export_chrome_trace(&self) -> Option<String> {
        self.snapshot().map(|s| s.to_chrome_trace())
    }

    /// Aggregate per-phase summary; `None` when the sink is disabled.
    pub fn summary(&self) -> Option<TelemetrySummary> {
        self.snapshot().map(|s| TelemetrySummary::from_snapshot(&s))
    }
}

/// Recording state of one armed [`RankRecorder`], shared with the guards it
/// hands out so that no guard borrows the recorder. The recorder and its
/// guards live on one thread and the fields publish no other data, so
/// every access is `Relaxed`.
#[derive(Debug)]
struct Live {
    inner: Arc<Inner>,
    /// Heartbeat slot for the recorder's `(rank, lane)`.
    hb: Arc<Heartbeat>,
    /// Iteration stamped onto spans.
    iter: AtomicU64,
    /// Whether an iteration is open; spans record only inside one.
    active: AtomicBool,
}

/// Per-rank span recorder. Spans are only captured while an
/// [`IterationGuard`] from [`RankRecorder::begin_iteration`] is open, so
/// evaluation / probe passes reusing the same code paths stay silent.
#[derive(Debug)]
pub struct RankRecorder {
    sink: TelemetrySink,
    rank: u32,
    lane: u32,
    /// `None` on a disabled sink, which keeps the disabled path free of
    /// clock reads, allocations and atomic stores.
    live: Option<Arc<Live>>,
}

impl RankRecorder {
    /// Recorder that never records (for tests and defaults).
    pub fn disabled() -> Self {
        TelemetrySink::disabled().rank(0)
    }

    /// Rank this recorder stamps onto its spans.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Execution lane this recorder stamps onto its spans (0 = main).
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The sink this recorder feeds.
    pub fn sink(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Whether this recorder's sink is armed.
    pub fn enabled(&self) -> bool {
        self.live.is_some()
    }

    /// The recording state while an iteration is open.
    fn open(&self) -> Option<&Arc<Live>> {
        self.live
            .as_ref()
            .filter(|l| l.active.load(Ordering::Relaxed))
    }

    /// Start training iteration `iter`: spans opened until the returned
    /// guard ends are recorded and stamped with `iter`. On an armed sink
    /// this also beats the `(rank, lane)` heartbeat slot.
    ///
    /// The guard is fully owned, like [`SpanGuard`], so the iteration can
    /// stay open across `&mut self` calls on the structure that owns the
    /// recorder; consuming it with [`IterationGuard::end`] makes a second
    /// end impossible.
    pub fn begin_iteration(&self, iter: u64) -> IterationGuard {
        let Some(live) = &self.live else {
            return IterationGuard { open: None };
        };
        let start_ns = live.inner.now_ns();
        live.iter.store(iter, Ordering::Relaxed);
        live.active.store(true, Ordering::Relaxed);
        live.hb.publish_iter_begin(iter, start_ns);
        IterationGuard {
            open: Some((Arc::clone(live), start_ns)),
        }
    }

    /// Publish an *exchange* heartbeat: this thread has arrived at a
    /// collective rendezvous and is about to block on its peers. A slot
    /// that goes quiet in this state is waiting on someone else, so the
    /// stall watchdog blames the peer that never arrived instead of the
    /// threads parked here. No-op when the sink is disabled or no
    /// iteration is open.
    pub fn mark_exchange(&self) {
        if let Some(live) = self.open() {
            live.hb.publish_exchange(live.inner.now_ns());
        }
    }

    /// Open a span of `phase`. The returned guard records the interval
    /// when it is dropped (or via [`SpanGuard::end`]). When the sink is
    /// disabled or no iteration is open this reads no clock and allocates
    /// nothing.
    ///
    /// The guard is fully owned (it holds a clone of the recording state,
    /// not a borrow of `self`), so it can stay live across `&mut self`
    /// calls on the structure that owns the recorder.
    ///
    /// ```
    /// use neo_telemetry::{Phase, TelemetrySink};
    /// let rec = TelemetrySink::armed().rank(0);
    /// let it = rec.begin_iteration(0);
    /// let sp = rec.span(Phase::TopMlp);
    /// drop(sp);
    /// it.end();
    /// ```
    ///
    /// A span is named by the vocabulary, never inline:
    ///
    /// ```compile_fail
    /// let rec = neo_telemetry::TelemetrySink::armed().rank(0);
    /// let _sp = rec.span("inline");
    /// ```
    ///
    /// and a guard dropped on the line that opens it is a zero-length span,
    /// which `deny(warnings)` rejects:
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// use neo_telemetry::{Phase, TelemetrySink};
    /// let rec = TelemetrySink::armed().rank(0);
    /// rec.span(Phase::TopMlp);
    /// ```
    pub fn span(&self, phase: Phase) -> SpanGuard {
        let Some(live) = self.open() else {
            return SpanGuard { live: None };
        };
        let start_ns = live.inner.now_ns();
        live.hb.publish_span_open(phase, start_ns);
        SpanGuard {
            live: Some(SpanLive {
                state: Arc::clone(live),
                rank: self.rank,
                lane: self.lane,
                iter: live.iter.load(Ordering::Relaxed),
                phase,
                start_ns,
            }),
        }
    }
}

/// RAII guard for one open training iteration, from
/// [`RankRecorder::begin_iteration`].
///
/// Dropping it without [`IterationGuard::end`] — a rank returning `Err`
/// mid-step — only stops recording: the heartbeat slot stays mid-work, so
/// the watchdog still blames that rank.
#[must_use = "an iteration must be closed with `end`; dropping the guard leaves the heartbeat mid-work"]
#[derive(Debug)]
pub struct IterationGuard {
    /// The recording state and the iteration's start; `None` when the sink
    /// is disabled.
    open: Option<(Arc<Live>, u64)>,
}

impl IterationGuard {
    /// End the iteration: later spans are ignored until the next
    /// [`RankRecorder::begin_iteration`]. On an armed sink this beats the
    /// heartbeat slot back to idle and publishes the iteration's duration
    /// for online straggler attribution.
    pub fn end(mut self) {
        if let Some((live, start_ns)) = self.open.take() {
            live.active.store(false, Ordering::Relaxed);
            let now = live.inner.now_ns();
            live.hb.publish_iter_end(now.saturating_sub(start_ns), now);
        }
    }
}

impl Drop for IterationGuard {
    fn drop(&mut self) {
        if let Some((live, _)) = &self.open {
            live.active.store(false, Ordering::Relaxed);
        }
    }
}

struct SpanLive {
    state: Arc<Live>,
    rank: u32,
    lane: u32,
    iter: u64,
    phase: Phase,
    start_ns: u64,
}

/// RAII guard for one phase interval; records on drop.
///
/// Inactive guards (disabled sink, or no iteration in progress) are inert.
#[must_use = "dropping immediately records a zero-length span; bind it with `let`"]
pub struct SpanGuard {
    live: Option<SpanLive>,
}

impl SpanGuard {
    /// Close the span now, returning its duration in nanoseconds
    /// (`None` when the guard is inert).
    pub fn end(mut self) -> Option<u64> {
        self.finish()
    }

    /// Whether this guard will record anything.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    fn finish(&mut self) -> Option<u64> {
        let live = self.live.take()?;
        let end_ns = live.state.inner.now_ns();
        live.state.hb.publish_span_close(end_ns);
        let rec = SpanRecord {
            rank: live.rank,
            lane: live.lane,
            iter: live.iter,
            phase: live.phase,
            start_ns: live.start_ns,
            end_ns,
        };
        let dur = rec.duration_ns();
        live.state.inner.store().push_span(rec);
        Some(dur)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.live.is_some() {
            "recording"
        } else {
            "inert"
        };
        write!(f, "SpanGuard({state})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.enabled());
        sink.counter_add(Metric::MonitorSamples, 1);
        sink.gauge_push(Metric::TrainLoss, 0, 1.0);
        sink.histogram_observe(Metric::DataioBatchBuildNs, 7);
        let rec = sink.rank(0);
        assert!(!rec.enabled());
        let it = rec.begin_iteration(0);
        let sp = rec.span(Phase::Iteration);
        assert!(!sp.is_recording());
        assert_eq!(sp.end(), None);
        it.end();
        assert!(sink.snapshot().is_none());
        assert!(sink.export_json().is_none());
        assert!(sink.export_chrome_trace().is_none());
        assert!(sink.summary().is_none());
    }

    #[test]
    fn spans_outside_iterations_are_ignored() {
        let sink = TelemetrySink::armed();
        let rec = sink.rank(0);
        // No begin_iteration yet.
        assert!(!rec.span(Phase::EmbLookup).is_recording());
        let it = rec.begin_iteration(3);
        let sp = rec.span(Phase::EmbLookup);
        assert!(sp.is_recording());
        drop(sp);
        it.end();
        assert!(!rec.span(Phase::TopMlp).is_recording());
        let snap = sink.snapshot().filter(|s| s.spans.len() == 1);
        let snap = snap.as_ref().map(|s| &s.spans[0]);
        assert_eq!(
            snap.map(|s| (s.phase, s.iter, s.rank)),
            Some((Phase::EmbLookup, 3, 0))
        );
    }

    #[test]
    fn clones_share_storage() {
        let sink = TelemetrySink::armed();
        let other = sink.clone();
        other.counter_add(Metric::EmbOptimRows, 2);
        sink.counter_add(Metric::EmbOptimRows, 3);
        let snap = sink.snapshot();
        let counters = snap.map(|s| s.counters).unwrap_or_default();
        assert_eq!(counters, vec![("emb.optim.rows".to_string(), 5)]);
    }

    #[test]
    fn span_end_returns_duration_and_records() {
        let sink = TelemetrySink::armed();
        let rec = sink.rank(2);
        let it = rec.begin_iteration(7);
        let sp = rec.span(Phase::AlltoallFwd);
        let dur = sp.end();
        assert!(dur.is_some());
        it.end();
        let snap = sink.snapshot();
        let spans = snap.map(|s| s.spans).unwrap_or_default();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].rank, 2);
        assert_eq!(spans[0].iter, 7);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn lane_recorder_stamps_lane_and_rank() {
        let sink = TelemetrySink::armed();
        let rec = sink.rank_lane(1, 2);
        assert_eq!((rec.rank(), rec.lane()), (1, 2));
        let it = rec.begin_iteration(5);
        let sp = rec.span(Phase::AlltoallFwd);
        drop(sp);
        it.end();
        let spans = sink.snapshot().map(|s| s.spans).unwrap_or_default();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].rank, spans[0].lane, spans[0].iter), (1, 2, 5));
        // the plain rank() recorder is lane 0
        assert_eq!(sink.rank(3).lane(), 0);
    }

    #[test]
    fn heartbeats_publish_at_iteration_and_span_boundaries() {
        let sink = TelemetrySink::armed();
        assert!(sink.heartbeats().is_empty(), "no recorders yet, no slots");
        let rec = sink.rank_lane(1, 0);
        let lane = sink.rank_lane(1, 1);
        let slots = sink.heartbeats();
        assert_eq!(slots.len(), 2);
        assert_eq!((slots[0].rank, slots[0].lane), (1, 0));
        assert_eq!((slots[1].rank, slots[1].lane), (1, 1));
        assert_eq!(slots[0].beats, 0);

        let it = rec.begin_iteration(4);
        let sp = rec.span(Phase::EmbLookup);
        let hb = &sink.heartbeats()[0];
        assert_eq!(hb.iter, 5, "iteration 4 begun => 1-based count 5");
        assert_eq!(hb.state, HeartbeatState::InSpan);
        assert_eq!(hb.phase, Some(Phase::EmbLookup));
        assert_eq!(hb.beats, 2, "iter begin + span open");
        drop(sp);
        rec.mark_exchange();
        assert_eq!(sink.heartbeats()[0].state, HeartbeatState::Exchange);
        it.end();
        let done = &sink.heartbeats()[0];
        assert_eq!(done.state, HeartbeatState::Idle);
        assert_eq!(done.beats, 5);
        // untouched lane slot never beat
        assert_eq!(sink.heartbeats()[1].beats, 0);
        drop(lane);

        // re-requesting the same (rank, lane) reuses the slot
        let again = sink.rank_lane(1, 0);
        again.begin_iteration(5).end();
        assert_eq!(sink.heartbeats().len(), 2);
        assert_eq!(sink.heartbeats()[0].beats, 7);
    }

    #[test]
    fn an_unended_iteration_stops_recording_but_stays_mid_work() {
        let sink = TelemetrySink::armed();
        let rec = sink.rank(0);
        let it = rec.begin_iteration(2);
        let sp = rec.span(Phase::TopMlp);
        drop(sp);
        drop(it); // e.g. the step returned `Err` before ending the iteration
        assert!(!rec.span(Phase::TopMlp).is_recording());
        rec.mark_exchange();
        let hb = &sink.heartbeats()[0];
        assert_eq!(
            hb.state,
            HeartbeatState::Iterating,
            "the watchdog still sees work"
        );
        assert_eq!(
            hb.beats, 3,
            "iter begin + span open + span close, nothing on drop"
        );
        assert_eq!(sink.snapshot().map(|s| s.spans.len()), Some(1));
    }

    #[test]
    fn disabled_sink_has_no_heartbeats_and_mark_exchange_is_inert() {
        let sink = TelemetrySink::disabled();
        let rec = sink.rank(0);
        let it = rec.begin_iteration(0);
        rec.mark_exchange();
        it.end();
        assert!(sink.heartbeats().is_empty());
        assert!(sink.sample().is_none());
    }

    #[test]
    fn gauge_set_max_and_sample_round_trip_through_the_sink() {
        let sink = TelemetrySink::armed();
        let peak = Metric::DataioQueuePeak;
        sink.gauge_set_max(peak, 0, 2.0);
        sink.gauge_set_max(peak, 3, 8.0);
        sink.gauge_set_max(peak, 5, 4.0);
        sink.counter_add(Metric::MonitorEvents, 1);
        let sample = sink.sample().unwrap_or_default();
        assert_eq!(
            sample.gauges,
            vec![("dataio.queue_peak".to_string(), 3, 8.0)]
        );
        assert_eq!(sample.counters, vec![("monitor.events".to_string(), 1)]);
        // disabled sinks stay inert
        TelemetrySink::disabled().gauge_set_max(peak, 0, 9.0);
    }

    #[test]
    fn sink_debug_states() {
        assert_eq!(
            format!("{:?}", TelemetrySink::disabled()),
            "TelemetrySink(disabled)"
        );
        assert_eq!(
            format!("{:?}", TelemetrySink::armed()),
            "TelemetrySink(armed)"
        );
    }
}
