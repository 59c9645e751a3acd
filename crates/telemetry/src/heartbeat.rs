//! Lock-free per-rank heartbeat slots for live health monitoring.
//!
//! Every [`crate::RankRecorder`] created from an *armed* sink owns one
//! [`Heartbeat`] slot, found-or-inserted in the sink's registry at recorder
//! creation time. The recorder publishes a beat — a handful of relaxed
//! `AtomicU64` stores, no locks — at iteration and span boundaries, reusing
//! the clock reads the span path already performs, so the hot-path cost of
//! a beat is just the stores. A monitor thread samples every slot through
//! [`Heartbeat::sample`] without ever pausing a publisher.
//!
//! The fields of a slot are sampled individually (not as one consistent
//! tuple); a torn read can pair, say, a new `beats` count with the previous
//! `state`. That is fine for health monitoring — the watchdog only acts on
//! slots that have been *quiet* for hundreds of milliseconds, far longer
//! than any tear window — and is what keeps the publish path lock-free.
//!
//! Disabled sinks hand out recorders with no slot at all, so the
//! disabled-telemetry path still performs zero clock reads, zero
//! allocations, and zero atomic stores.

use crate::Phase;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a heartbeat slot was last seen doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatState {
    /// No iteration in progress (between `train` calls, or a probe/eval
    /// pass that never calls `begin_iteration`). Never flagged stale.
    Idle,
    /// Inside an iteration, between spans.
    Iterating,
    /// Inside a named span (see [`HeartbeatSample::phase`]).
    InSpan,
    /// Arrived at a collective rendezvous; about to block on peers. A slot
    /// quiet in this state is *waiting*, not *stuck* — the watchdog blames
    /// the peer that never arrived instead.
    Exchange,
}

impl HeartbeatState {
    /// Stable lowercase name for logs and JSONL frames.
    pub fn name(self) -> &'static str {
        match self {
            HeartbeatState::Idle => "idle",
            HeartbeatState::Iterating => "iterating",
            HeartbeatState::InSpan => "span",
            HeartbeatState::Exchange => "exchange",
        }
    }
}

const KIND_IDLE: u64 = 0;
const KIND_ITERATING: u64 = 1;
const KIND_IN_SPAN: u64 = 2;
const KIND_EXCHANGE: u64 = 3;

/// Pack `(kind, phase discriminant + 1)` into one word: kind in the low 8
/// bits, the phase's discriminant plus one above (0 = no phase).
fn pack(kind: u64, phase_plus1: u64) -> u64 {
    kind | (phase_plus1 << 8)
}

fn unpack(word: u64) -> (HeartbeatState, Option<Phase>) {
    let state = match word & 0xff {
        KIND_ITERATING => HeartbeatState::Iterating,
        KIND_IN_SPAN => HeartbeatState::InSpan,
        KIND_EXCHANGE => HeartbeatState::Exchange,
        _ => HeartbeatState::Idle,
    };
    let idx = (word >> 8) as usize;
    let phase = idx.checked_sub(1).and_then(|i| Phase::ALL.get(i)).copied();
    (state, phase)
}

/// One lock-free heartbeat slot, shared between its publishing
/// [`crate::RankRecorder`] and any number of sampling monitors.
#[derive(Debug)]
pub struct Heartbeat {
    rank: u32,
    /// Iterations *begun* (1-based; 0 = none yet).
    iter: AtomicU64,
    /// Packed `(state kind, phase discriminant + 1)` word.
    state: AtomicU64,
    /// Total publications; strictly monotonic per slot.
    beats: AtomicU64,
    /// Sink-relative timestamp of the last publication, ns.
    last_beat_ns: AtomicU64,
    /// Duration of the last *completed* iteration, ns (0 until one ends).
    last_iter_ns: AtomicU64,
}

impl Heartbeat {
    pub(crate) fn new(rank: u32) -> Self {
        Self {
            rank,
            iter: AtomicU64::new(0),
            state: AtomicU64::new(pack(KIND_IDLE, 0)),
            beats: AtomicU64::new(0),
            last_beat_ns: AtomicU64::new(0),
            last_iter_ns: AtomicU64::new(0),
        }
    }

    /// Rank this slot belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    fn beat(&self, word: u64, now_ns: u64) {
        self.state.store(word, Ordering::Relaxed);
        self.last_beat_ns.store(now_ns, Ordering::Relaxed);
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Beat: iteration `iter` begins.
    pub(crate) fn publish_iter_begin(&self, iter: u64, now_ns: u64) {
        self.iter.store(iter.saturating_add(1), Ordering::Relaxed);
        self.beat(pack(KIND_ITERATING, 0), now_ns);
    }

    /// Beat: the current iteration ended after `dur_ns`.
    pub(crate) fn publish_iter_end(&self, dur_ns: u64, now_ns: u64) {
        self.last_iter_ns.store(dur_ns, Ordering::Relaxed);
        self.beat(pack(KIND_IDLE, 0), now_ns);
    }

    /// Beat: a span of `phase` opened.
    pub(crate) fn publish_span_open(&self, phase: Phase, now_ns: u64) {
        self.beat(pack(KIND_IN_SPAN, phase as u64 + 1), now_ns);
    }

    /// Beat: a span closed; back to between-spans.
    pub(crate) fn publish_span_close(&self, now_ns: u64) {
        self.beat(pack(KIND_ITERATING, 0), now_ns);
    }

    /// Beat: about to block on peers at a collective rendezvous. Only a
    /// mid-work slot publishes; returns the state word it interrupted,
    /// for [`Heartbeat::publish_resume`].
    pub(crate) fn publish_exchange(&self, now_ns: u64) -> Option<u64> {
        let word = self.state.load(Ordering::Relaxed);
        (word & 0xff != KIND_IDLE).then(|| {
            self.beat(pack(KIND_EXCHANGE, 0), now_ns);
            word
        })
    }

    /// Beat: the rendezvous completed; back to the interrupted `word`.
    pub(crate) fn publish_resume(&self, word: u64, now_ns: u64) {
        self.beat(word, now_ns);
    }

    /// Point-in-time copy of the slot (per-field atomic reads; see the
    /// module docs on tearing).
    pub fn sample(&self) -> HeartbeatSample {
        let (state, phase) = unpack(self.state.load(Ordering::Relaxed));
        HeartbeatSample {
            rank: self.rank,
            iter: self.iter.load(Ordering::Relaxed),
            state,
            phase,
            beats: self.beats.load(Ordering::Relaxed),
            last_beat_ns: self.last_beat_ns.load(Ordering::Relaxed),
            last_iter_ns: self.last_iter_ns.load(Ordering::Relaxed),
        }
    }
}

/// Sampled copy of one [`Heartbeat`] slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeartbeatSample {
    /// Rank of the publishing recorder.
    pub rank: u32,
    /// Iterations begun, 1-based (`0` = the slot never started one; `n`
    /// means iteration `n - 1` is the latest begun).
    pub iter: u64,
    /// Last-published state.
    pub state: HeartbeatState,
    /// Phase of the open span when `state` is [`HeartbeatState::InSpan`].
    pub phase: Option<Phase>,
    /// Total beats published; strictly monotonic per slot.
    pub beats: u64,
    /// Sink-relative time of the last beat, ns.
    pub last_beat_ns: u64,
    /// Duration of the last completed iteration, ns (0 until one ends).
    pub last_iter_ns: u64,
}

impl HeartbeatSample {
    /// Nanoseconds of silence as of `now_ns` (0 for a slot that has never
    /// beaten — such a slot is not yet participating).
    pub fn quiet_ns(&self, now_ns: u64) -> u64 {
        if self.beats == 0 {
            0
        } else {
            now_ns.saturating_sub(self.last_beat_ns)
        }
    }

    /// Whether the slot was mid-work at its last beat (anything but idle).
    pub fn mid_work(&self) -> bool {
        self.state != HeartbeatState::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_every_state_and_phase() {
        for (kind, state) in [
            (KIND_IDLE, HeartbeatState::Idle),
            (KIND_ITERATING, HeartbeatState::Iterating),
            (KIND_IN_SPAN, HeartbeatState::InSpan),
            (KIND_EXCHANGE, HeartbeatState::Exchange),
        ] {
            assert_eq!(unpack(pack(kind, 0)), (state, None));
        }
        for p in Phase::ALL {
            let (state, got) = unpack(pack(KIND_IN_SPAN, p as u64 + 1));
            assert_eq!((state, got), (HeartbeatState::InSpan, Some(p)));
        }
        // out-of-range phase index degrades to no phase, not a panic
        assert_eq!(unpack(pack(KIND_IN_SPAN, 9999)).1, None);
    }

    #[test]
    fn beats_are_monotonic_and_sample_reflects_publications() {
        let hb = Heartbeat::new(3);
        let s0 = hb.sample();
        assert_eq!((s0.rank, s0.iter, s0.beats), (3, 0, 0));
        assert_eq!(s0.state, HeartbeatState::Idle);
        assert!(!s0.mid_work());
        assert_eq!(s0.quiet_ns(1_000_000), 0, "never-beaten slot is not quiet");

        hb.publish_iter_begin(7, 100);
        let s1 = hb.sample();
        assert_eq!((s1.iter, s1.beats, s1.last_beat_ns), (8, 1, 100));
        assert_eq!(s1.state, HeartbeatState::Iterating);

        hb.publish_span_open(Phase::EmbLookup, 200);
        let s2 = hb.sample();
        assert_eq!(s2.state, HeartbeatState::InSpan);
        assert_eq!(s2.phase, Some(Phase::EmbLookup));
        assert!(s2.mid_work());
        assert_eq!(s2.quiet_ns(700), 500);

        let word = hb.publish_exchange(300).expect("a mid-work slot publishes");
        assert_eq!(hb.sample().state, HeartbeatState::Exchange);
        hb.publish_resume(word, 310);
        let s3 = hb.sample();
        assert_eq!((s3.state, s3.phase), (HeartbeatState::InSpan, s2.phase));

        hb.publish_span_close(400);
        assert_eq!(hb.sample().state, HeartbeatState::Iterating);

        hb.publish_iter_end(350, 450);
        let s5 = hb.sample();
        assert_eq!(s5.state, HeartbeatState::Idle);
        assert_eq!(s5.last_iter_ns, 350);
        assert_eq!(s5.beats, 6);
        assert_eq!(hb.publish_exchange(500), None, "an idle slot stays idle");
        assert_eq!(hb.sample().beats, 6);
    }
}
