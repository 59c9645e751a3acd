//! Step boundaries recovered from `train_stream`'s `make(k)` callback —
//! the only hook a caller of the trainer has.
//!
//! Every rank calls `make(k)` once per step. The serial schedule calls it
//! at the top of iteration `k`; the overlapped schedule calls `make(0)`
//! and `make(1)` at the top of iteration 0 and `make(k + 1)` at the top of
//! iteration `k` after that. Either way successive arrivals are one
//! iteration apart once the pipeline head is past, and the head falls in
//! the warm-up that is dropped anyway. The boundary of step `k` is the
//! *last* rank's arrival (a synchronous step is over when the slowest
//! rank is); last minus first arrival is the rank skew.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Lock-free arrival recorder: two atomics per step, nanoseconds since
/// [`StepClock::new`].
pub struct StepClock {
    epoch: Instant,
    first: Vec<AtomicU64>,
    last: Vec<AtomicU64>,
    /// Summed time ranks spent inside `make(k)` after arriving.
    make_ns: AtomicU64,
}

impl StepClock {
    /// A clock for `steps` steps whose epoch is now.
    pub fn new(steps: usize) -> Self {
        Self {
            epoch: Instant::now(),
            first: (0..steps).map(|_| AtomicU64::new(u64::MAX)).collect(),
            last: (0..steps).map(|_| AtomicU64::new(0)).collect(),
            make_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one rank's arrival at `make(k)` at time `ns`. The values
    /// are statistics that publish no other data, so `Relaxed` suffices;
    /// they are read only after the trainer's threads have been joined.
    pub fn record(&self, k: usize, ns: u64) {
        if let (Some(first), Some(last)) = (self.first.get(k), self.last.get(k)) {
            first.fetch_min(ns, Ordering::Relaxed);
            last.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Adds `ns` spent producing a batch inside `make`.
    pub fn add_make_ns(&self, ns: u64) {
        self.make_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total time all ranks spent inside `make`.
    pub fn make_ns(&self) -> u64 {
        self.make_ns.load(Ordering::Relaxed)
    }

    /// `(first, last)` arrival of every step some rank reached: the
    /// prefix of steps with a recorded arrival.
    fn arrivals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.first
            .iter()
            .zip(&self.last)
            .map(|(f, l)| (f.load(Ordering::Relaxed), l.load(Ordering::Relaxed)))
            .take_while(|(f, _)| *f != u64::MAX)
    }

    /// Boundaries of the reached steps, in step order.
    pub fn boundaries(&self) -> Vec<u64> {
        self.arrivals().map(|(_, l)| l).collect()
    }

    /// Last minus first arrival per reached step.
    pub fn skews(&self) -> Vec<u64> {
        self.arrivals().map(|(f, l)| l.saturating_sub(f)).collect()
    }
}

/// Index of the first measured boundary: the first 10% of steps are
/// warm-up (caches fill, the overlapped pipeline primes) and are dropped.
pub fn warmup_steps(steps: usize) -> usize {
    steps.div_ceil(10)
}

/// Durations between successive measured boundaries.
pub fn step_durations(boundaries: &[u64]) -> Vec<u64> {
    let from = warmup_steps(boundaries.len());
    boundaries
        .get(from..)
        .unwrap_or(&[])
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a 2-rank run where iteration `i` starts at `i * 1000` on
    /// rank 0 and `skew` later on rank 1, with the given `make` pattern.
    fn replay(steps: usize, overlapped: bool, skew: u64) -> StepClock {
        let clock = StepClock::new(steps);
        for rank in 0..2u64 {
            for iter in 0..steps {
                let t = iter as u64 * 1000 + rank * skew;
                if !overlapped {
                    clock.record(iter, t);
                } else {
                    if iter == 0 {
                        clock.record(0, t);
                    }
                    if iter + 1 < steps {
                        clock.record(iter + 1, t + 1);
                    }
                }
            }
        }
        clock
    }

    #[test]
    fn serial_pattern_boundary_is_last_arrival() {
        let clock = replay(20, false, 30);
        let b = clock.boundaries();
        assert_eq!(b.len(), 20);
        assert_eq!(b[0], 30);
        assert_eq!(b[7], 7030);
        assert!(clock.skews().iter().all(|&s| s == 30));
        // 20 steps: 2 warm-up, boundaries 2..=19 give 17 durations
        let d = step_durations(&b);
        assert_eq!(d.len(), 17);
        assert!(d.iter().all(|&x| x == 1000));
    }

    #[test]
    fn overlapped_pattern_shifts_by_one_iteration() {
        let clock = replay(20, true, 30);
        let b = clock.boundaries();
        assert_eq!(b.len(), 20);
        // make(0) and make(1) both arrive at the top of iteration 0
        assert_eq!(b[0], 30);
        assert_eq!(b[1], 31);
        // make(k + 1) arrives at the top of iteration k
        assert_eq!(b[8], 7031);
        // the degenerate head interval is inside the dropped warm-up
        let d = step_durations(&b);
        assert_eq!(d.len(), 17);
        assert!(d.iter().all(|&x| x == 1000));
    }

    #[test]
    fn unreached_steps_are_not_boundaries() {
        let clock = StepClock::new(10);
        for k in 0..4 {
            clock.record(k, 100 * k as u64);
        }
        assert_eq!(clock.boundaries().len(), 4);
        assert_eq!(clock.skews().len(), 4);
        clock.record(99, 5); // out of range: ignored, not a panic
        assert_eq!(clock.boundaries().len(), 4);
    }

    #[test]
    fn warmup_is_a_tenth_rounded_up() {
        assert_eq!(warmup_steps(4000), 400);
        assert_eq!(warmup_steps(30), 3);
        assert_eq!(warmup_steps(5), 1);
        assert_eq!(warmup_steps(0), 0);
        assert!(step_durations(&[]).is_empty());
        assert!(step_durations(&[1]).is_empty());
    }
}
