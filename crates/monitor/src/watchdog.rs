//! The stall / hang / straggler classifier.
//!
//! [`Watchdog::observe`] is driven with successive heartbeat samples and a
//! sink-relative `now`; everything it decides is a pure function of that
//! input stream, so the classifier is unit-testable with synthetic samples
//! and never reads a clock itself.
//!
//! Alert taxonomy (see DESIGN.md "Live monitoring"):
//!
//! One rule over the worker slots, each a rank's compute thread, which
//! both computes and waits on its collectives:
//!
//! - **Stall** — a slot mid-work published no beat within the deadline and
//!   was *not* parked at a collective rendezvous: it is stuck inside its
//!   own work — or parked between posting a collective and arriving at
//!   it. A slot last seen *exchanging* is waiting on a peer, and blaming
//!   it would name the wrong rank.
//! - **Hang** — every quiet slot is exchanging, so no victim is in sight:
//!   the missing party never posted at all, or its slot stopped
//!   publishing. The slot that fell silent first is blamed, once. A
//!   waiter is excused while a peer may still be its victim: one that
//!   went quiet outside an exchange within a deadline of the waiter's
//!   last beat (it turns stale a deadline later at most, or beats), or
//!   one whose Stall episode closed less than a deadline ago, after the
//!   waiter's last beat (the waiter is still waking from the exchange).
//! - **Straggler** — one rank's p95 iteration time is more than
//!   `straggler_skew` times the mean p95 of the *other* ranks (exact
//!   order statistics via [`neo_telemetry::stats`], the same kernel
//!   `neo-prof` uses post-hoc), once at least `straggler_min_iters`
//!   iteration durations have been observed per rank. Excluding the
//!   candidate from the reference mean keeps the ratio unbounded — the
//!   in-mean variant `neo-prof` reports is capped at the world size, too
//!   small a range to alert on.
//!
//! Episode dedup: a (kind, rank, lane) alert fires once per quiet episode;
//! a new beat from the slot closes the episode so a later relapse can
//! alert again. Stragglers fire at most once per rank per run.

use crate::HealthEvent;
use neo_telemetry::{stats, HeartbeatSample, HeartbeatState};

/// Thresholds for the classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Silence deadline: a mid-work slot quiet longer than this is stale.
    pub stall_ms: u64,
    /// Straggler threshold on `rank p95 / mean p95 of the other ranks`.
    pub straggler_skew: f64,
    /// Minimum observed iteration durations per rank before the straggler
    /// check runs (tail statistics need samples).
    pub straggler_min_iters: usize,
}

/// Stateful classifier over a stream of heartbeat samples.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    /// Open alert episodes: `(kind, rank, lane, beats-at-alert)`. Cleared
    /// when the slot beats again.
    episodes: Vec<(&'static str, u32, u32, u64)>,
    /// When the latest Stall episode closed (sink-relative ns).
    stall_closed_ns: Option<u64>,
    /// Ranks already flagged as stragglers (once per run).
    straggler_fired: Vec<u32>,
    /// Last seen 1-based iteration count per lane-0 rank.
    iter_seen: Vec<(u32, u64)>,
    /// Observed iteration durations (ns) per rank, sampled at frame rate.
    iter_durs: Vec<(u32, Vec<u64>)>,
}

impl Watchdog {
    /// A fresh classifier with thresholds `cfg`.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Self {
            cfg,
            episodes: Vec::new(),
            stall_closed_ns: None,
            straggler_fired: Vec::new(),
            iter_seen: Vec::new(),
            iter_durs: Vec::new(),
        }
    }

    /// Feed one round of samples taken at sink-relative `now_ns`; returns
    /// newly raised events (empty on a healthy round).
    pub fn observe(&mut self, samples: &[HeartbeatSample], now_ns: u64) -> Vec<HealthEvent> {
        self.track_iterations(samples);
        let mut out = self.classify_quiet(samples, now_ns);
        out.extend(self.classify_stragglers());
        out
    }

    /// Record per-rank iteration durations as ranks complete iterations.
    fn track_iterations(&mut self, samples: &[HeartbeatSample]) {
        for s in samples.iter().filter(|s| s.lane == 0 && s.iter > 0) {
            let pos = match self.iter_seen.iter().position(|(r, _)| *r == s.rank) {
                Some(p) => p,
                None => {
                    self.iter_seen.push((s.rank, 0));
                    self.iter_seen.len() - 1
                }
            };
            if s.iter > self.iter_seen[pos].1 && s.last_iter_ns > 0 {
                self.iter_seen[pos].1 = s.iter;
                match self.iter_durs.iter_mut().find(|(r, _)| *r == s.rank) {
                    Some((_, durs)) => durs.push(s.last_iter_ns),
                    None => self.iter_durs.push((s.rank, vec![s.last_iter_ns])),
                }
            }
        }
    }

    /// Stall / hang classification over quiet slots.
    fn classify_quiet(&mut self, samples: &[HeartbeatSample], now_ns: u64) -> Vec<HealthEvent> {
        let deadline_ns = self.cfg.stall_ms.saturating_mul(1_000_000);
        let stale =
            |s: &HeartbeatSample| s.beats > 0 && s.mid_work() && s.quiet_ns(now_ns) > deadline_ns;
        // Close episodes whose slot beat again (or is no longer listed).
        let mut stall_closed = false;
        self.episodes.retain(|(kind, rank, lane, beats)| {
            let open = samples
                .iter()
                .find(|s| s.rank == *rank && s.lane == *lane)
                .is_some_and(|s| s.beats == *beats && stale(s));
            stall_closed |= !open && *kind == "stall";
            open
        });
        if stall_closed {
            self.stall_closed_ns = Some(now_ns);
        }
        // a waiter is excused while a peer may still be its victim
        let closed = self.stall_closed_ns;
        let excused = |w: &HeartbeatSample| {
            let parking = samples.iter().any(|v| {
                v.beats > 0
                    && v.mid_work()
                    && v.state != HeartbeatState::Exchange
                    && v.last_beat_ns < w.last_beat_ns.saturating_add(deadline_ns)
            });
            let waking = closed
                .is_some_and(|c| w.last_beat_ns < c && now_ns.saturating_sub(c) <= deadline_ns);
            parking || waking
        };

        let (waiting, stuck): (Vec<&HeartbeatSample>, Vec<&HeartbeatSample>) = samples
            .iter()
            .filter(|s| stale(s))
            .partition(|s| s.state == HeartbeatState::Exchange);
        let mut out = Vec::new();
        for s in &stuck {
            self.raise(&mut out, "stall", s, now_ns);
        }
        // no victim in sight: blame the slot that fell silent first
        let oldest = waiting
            .iter()
            .filter(|s| !excused(s))
            .min_by_key(|s| (s.last_beat_ns, s.rank));
        if let Some(oldest) = oldest.filter(|_| stuck.is_empty()) {
            self.raise(&mut out, "hang", oldest, now_ns);
        }
        out
    }

    /// One-shot per-rank straggler detection over iteration-duration p95s.
    fn classify_stragglers(&mut self) -> Vec<HealthEvent> {
        if self.iter_durs.len() < 2 {
            return Vec::new();
        }
        if self
            .iter_durs
            .iter()
            .any(|(_, d)| d.len() < self.cfg.straggler_min_iters)
        {
            return Vec::new();
        }
        let mut p95s: Vec<(u32, u64)> = self
            .iter_durs
            .iter()
            .map(|(rank, durs)| {
                let mut sorted = durs.clone();
                sorted.sort_unstable();
                (*rank, stats::percentile_ns(&sorted, 0.95))
            })
            .collect();
        p95s.sort_by_key(|&(r, _)| r);
        let mut out = Vec::new();
        for &(rank, p95) in &p95s {
            let others: Vec<u64> = p95s
                .iter()
                .filter(|&&(r, _)| r != rank)
                .map(|&(_, p)| p)
                .collect();
            let mean_others = stats::mean_ns(&others);
            if mean_others <= 0.0 {
                continue;
            }
            let skew = p95 as f64 / mean_others;
            if skew > self.cfg.straggler_skew && !self.straggler_fired.contains(&rank) {
                self.straggler_fired.push(rank);
                out.push(HealthEvent::Straggler {
                    rank,
                    p95_ms: p95 as f64 * 1e-6,
                    mean_p95_ms: mean_others * 1e-6,
                    skew,
                });
            }
        }
        out
    }

    /// Open an episode and emit the event, unless already open.
    fn raise(
        &mut self,
        out: &mut Vec<HealthEvent>,
        kind: &'static str,
        s: &HeartbeatSample,
        now_ns: u64,
    ) {
        if self
            .episodes
            .iter()
            .any(|(k, r, l, _)| *k == kind && *r == s.rank && *l == s.lane)
        {
            return;
        }
        self.episodes.push((kind, s.rank, s.lane, s.beats));
        let iter = s.iter.saturating_sub(1);
        let quiet_ms = s.quiet_ns(now_ns) / 1_000_000;
        out.push(match kind {
            "stall" => HealthEvent::Stall {
                rank: s.rank,
                lane: s.lane,
                iter,
                phase: s.phase,
                quiet_ms,
            },
            _ => HealthEvent::Hang {
                rank: s.rank,
                lane: s.lane,
                iter,
                quiet_ms,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            stall_ms: 100,
            straggler_skew: 2.0,
            straggler_min_iters: 4,
        }
    }

    fn slot(
        rank: u32,
        lane: u32,
        state: HeartbeatState,
        beats: u64,
        last_beat_ns: u64,
    ) -> HeartbeatSample {
        HeartbeatSample {
            rank,
            lane,
            iter: 6,
            state,
            phase: (state == HeartbeatState::InSpan).then_some(neo_telemetry::Phase::AllreduceTop),
            beats,
            last_beat_ns,
            last_iter_ns: 1_000_000,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn healthy_world_raises_nothing() {
        let mut wd = Watchdog::new(cfg());
        let samples = vec![
            slot(0, 0, HeartbeatState::Iterating, 10, 490 * MS),
            slot(1, 0, HeartbeatState::InSpan, 12, 495 * MS),
            slot(0, 1, HeartbeatState::Idle, 4, 100 * MS), // idle: never stale
        ];
        assert!(wd.observe(&samples, 500 * MS).is_empty());
        // never-beaten slots are not stale either
        let fresh = vec![slot(0, 1, HeartbeatState::Iterating, 0, 0)];
        assert!(wd.observe(&fresh, 900 * MS).is_empty());
    }

    #[test]
    fn quiet_slot_outside_an_exchange_is_the_stall_victim() {
        let mut wd = Watchdog::new(cfg());
        // rank 2 froze inside its span, short of arriving; its peers
        // arrived and wait on it (exchange), equally quiet — only rank 2
        // may be blamed.
        let samples = vec![
            slot(0, 0, HeartbeatState::Exchange, 5, 120 * MS),
            slot(1, 0, HeartbeatState::Exchange, 5, 90 * MS),
            slot(2, 0, HeartbeatState::InSpan, 5, 115 * MS),
        ];
        let events = wd.observe(&samples, 400 * MS);
        assert_eq!(events.len(), 1, "{events:?}");
        match &events[0] {
            HealthEvent::Stall {
                rank,
                lane,
                iter,
                phase,
                quiet_ms,
            } => {
                assert_eq!((*rank, *lane, *iter), (2, 0, 5));
                assert_eq!(*phase, Some(neo_telemetry::Phase::AllreduceTop));
                assert_eq!(*quiet_ms, 285);
            }
            other => panic!("expected stall, got {other:?}"),
        }
        // same episode: no duplicate on the next round
        assert!(wd.observe(&samples, 500 * MS).is_empty());
        // everyone beats again -> episode closes -> a relapse re-alerts
        let healthy = vec![
            slot(0, 0, HeartbeatState::Exchange, 6, 593 * MS),
            slot(1, 0, HeartbeatState::Exchange, 6, 594 * MS),
            slot(2, 0, HeartbeatState::Iterating, 6, 595 * MS),
        ];
        assert!(wd.observe(&healthy, 600 * MS).is_empty());
        let relapse = vec![
            slot(0, 0, HeartbeatState::Exchange, 7, 620 * MS),
            slot(1, 0, HeartbeatState::Exchange, 7, 621 * MS),
            slot(2, 0, HeartbeatState::InSpan, 8, 622 * MS),
        ];
        let again = wd.observe(&relapse, 1000 * MS);
        assert!(
            matches!(
                again.as_slice(),
                [HealthEvent::Stall {
                    rank: 2,
                    lane: 0,
                    ..
                }]
            ),
            "{again:?}"
        );
    }

    #[test]
    fn all_slots_exchanging_is_a_hang_on_the_earliest_arrival() {
        let mut wd = Watchdog::new(cfg());
        let samples = vec![
            slot(0, 0, HeartbeatState::Exchange, 5, 120 * MS),
            slot(1, 0, HeartbeatState::Exchange, 5, 90 * MS),
        ];
        let events = wd.observe(&samples, 400 * MS);
        assert!(
            matches!(
                events.as_slice(),
                [HealthEvent::Hang {
                    rank: 1,
                    lane: 0,
                    ..
                }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn slot_parked_while_peers_advance_is_a_hang() {
        let mut wd = Watchdog::new(cfg());
        let samples = vec![
            slot(0, 0, HeartbeatState::Exchange, 5, 90 * MS),
            slot(1, 0, HeartbeatState::Iterating, 50, 395 * MS), // advancing
        ];
        let events = wd.observe(&samples, 400 * MS);
        assert!(
            matches!(
                events.as_slice(),
                [HealthEvent::Hang {
                    rank: 0,
                    lane: 0,
                    ..
                }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn waiter_on_a_parked_peer_is_not_a_hang_until_a_deadline_passes() {
        let mut wd = Watchdog::new(cfg());
        // rank 0 arrives at the exchange at 150 ms; rank 1 posts at 159 ms
        // and parks short of it
        let parked = vec![
            slot(0, 0, HeartbeatState::Exchange, 5, 150 * MS),
            slot(1, 0, HeartbeatState::InSpan, 5, 159 * MS),
        ];
        // rank 0 crosses the deadline first, but rank 1 may be its victim
        let events = wd.observe(&parked, 251 * MS);
        assert!(events.is_empty(), "{events:?}");
        // rank 1 crosses it too: only rank 1 is blamed
        let events = wd.observe(&parked, 260 * MS);
        assert!(
            matches!(events.as_slice(), [HealthEvent::Stall { rank: 1, .. }]),
            "{events:?}"
        );
        // rank 1 resumed and beats; rank 0, quiet for 1,203 ms, is still
        // waking from the exchange: no event
        let released = vec![
            slot(0, 0, HeartbeatState::Exchange, 5, 150 * MS),
            slot(1, 0, HeartbeatState::Iterating, 9, 1350 * MS),
        ];
        let events = wd.observe(&released, 1353 * MS);
        assert!(events.is_empty(), "{events:?}");
        // one deadline after the close rank 0 is still quiet: a hang
        let still = vec![
            slot(0, 0, HeartbeatState::Exchange, 5, 150 * MS),
            slot(1, 0, HeartbeatState::Iterating, 12, 1450 * MS),
        ];
        let events = wd.observe(&still, 1454 * MS);
        assert!(
            matches!(
                events.as_slice(),
                [HealthEvent::Hang {
                    rank: 0,
                    lane: 0,
                    quiet_ms: 1304,
                    ..
                }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn every_quiet_slot_outside_an_exchange_is_indicted() {
        let mut wd = Watchdog::new(cfg());
        let samples = vec![
            slot(0, 0, HeartbeatState::Iterating, 9, 120 * MS),
            slot(1, 0, HeartbeatState::InSpan, 9, 80 * MS),
            slot(2, 0, HeartbeatState::Iterating, 9, 390 * MS), // fresh
        ];
        let events = wd.observe(&samples, 400 * MS);
        let stalled: Vec<u32> = events
            .iter()
            .map(|e| match e {
                HealthEvent::Stall { rank, lane: 0, .. } => *rank,
                other => panic!("expected stalls, got {other:?}"),
            })
            .collect();
        assert_eq!(stalled, [0, 1]);
    }

    #[test]
    fn straggler_fires_once_after_enough_samples() {
        let mut wd = Watchdog::new(WatchdogConfig {
            stall_ms: 100,
            straggler_skew: 4.0,
            straggler_min_iters: 4,
        });
        // rank 1 three times slower; feed 5 completed iterations per rank
        for k in 1..=5u64 {
            let samples = vec![
                HeartbeatSample {
                    rank: 0,
                    lane: 0,
                    iter: k,
                    state: HeartbeatState::Idle,
                    phase: None,
                    beats: 2 * k,
                    last_beat_ns: k * 10 * MS,
                    last_iter_ns: MS,
                },
                HeartbeatSample {
                    rank: 1,
                    lane: 0,
                    iter: k,
                    state: HeartbeatState::Idle,
                    phase: None,
                    beats: 2 * k,
                    last_beat_ns: k * 10 * MS,
                    last_iter_ns: 3 * MS,
                },
            ];
            let events = wd.observe(&samples, k * 10 * MS + 1);
            if k < 4 {
                assert!(events.is_empty(), "min_iters not reached at k={k}");
            } else {
                // p95(rank1)=3ms vs mean-of-others 1ms -> skew 3.0 < 4.0: ok
                assert!(events.is_empty(), "{events:?}");
            }
        }
        // widen the gap: one more round with a 9ms iteration on rank 1
        let samples = vec![
            HeartbeatSample {
                rank: 0,
                lane: 0,
                iter: 6,
                state: HeartbeatState::Idle,
                phase: None,
                beats: 12,
                last_beat_ns: 60 * MS,
                last_iter_ns: MS,
            },
            HeartbeatSample {
                rank: 1,
                lane: 0,
                iter: 6,
                state: HeartbeatState::Idle,
                phase: None,
                beats: 12,
                last_beat_ns: 60 * MS,
                last_iter_ns: 9 * MS,
            },
        ];
        let events = wd.observe(&samples, 60 * MS + 1);
        match events.as_slice() {
            [HealthEvent::Straggler {
                rank, skew, p95_ms, ..
            }] => {
                assert_eq!(*rank, 1);
                assert!((*skew - 9.0).abs() < 1e-9, "skew {skew}");
                assert!((*p95_ms - 9.0).abs() < 1e-9);
            }
            other => panic!("expected one straggler, got {other:?}"),
        }
        // once per run: repeating the same picture stays silent
        assert!(wd.observe(&samples, 61 * MS).is_empty());
    }
}
