//! Opt-in netsim-derived latency injection for collectives.
//!
//! The thread-backed collectives in this crate move data through shared
//! memory, so on the wall clock they cost microseconds where the real
//! ZionEX fabric costs hundreds. That makes overlap experiments (§4.3)
//! meaningless: there is nothing to hide. [`CommDelay`] restores a
//! realistic wire cost of `latency + bytes / bandwidth` per collective,
//! priced from a [`ClusterTopology`] link, as a *deadline*: a post stamps
//! when its payload would be off the wire, and the wait sleeps only for
//! what is left of it, yielding the last tens of microseconds so the
//! kernel's timer slack does not overrun it. Compute between post and
//! wait therefore hides the modelled wire exactly, with no thread
//! sleeping on it. Injected latency is wall-clock only and never
//! touches the exchanged values, so bitwise determinism is unaffected.

use std::time::{Duration, Instant};

use neo_netsim::topology::LinkSpec;
use neo_netsim::ClusterTopology;

/// Per-operation latency injector derived from a netsim link model.
///
/// Attached to a `Communicator` via `set_comm_delay`, every collective
/// completes no earlier than the α–β transfer time of its payload after
/// its post. Off by default; a communicator without a delay reads no
/// clock and sleeps nowhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommDelay {
    link: LinkSpec,
    scale: f64,
}

impl CommDelay {
    /// Delay model over an explicit link: `bandwidth` bytes/sec and
    /// `latency_s` seconds of fixed per-op latency.
    pub fn new(bandwidth: f64, latency_s: f64) -> Self {
        Self {
            link: LinkSpec {
                bandwidth,
                latency_s,
            },
            scale: 1.0,
        }
    }

    /// Delay model priced from a cluster topology's scale-out (RoCE) link
    /// — the link that bounds AlltoAll in the paper (Fig. 20).
    pub fn from_topology(topo: &ClusterTopology) -> Self {
        Self {
            link: topo.scale_out,
            scale: 1.0,
        }
    }

    /// Multiplies every injected delay by `factor` (e.g. to emulate a
    /// slower fabric or congestion). Returns the adjusted model.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        self.scale *= factor.max(0.0);
        self
    }

    /// The sleep charged for moving `bytes` through the modeled link.
    pub fn cost(&self, bytes: u64) -> Duration {
        let secs = self.link.transfer_time(bytes as f64) * self.scale;
        Duration::from_secs_f64(secs.max(0.0))
    }

    /// When a payload of `bytes` posted now is off the modelled wire.
    pub(crate) fn deadline(&self, bytes: u64) -> Instant {
        now() + self.cost(bytes)
    }
}

/// How far a short `std::thread::sleep` overruns its request on Linux:
/// the kernel's default 50 µs timer slack plus a few µs of wake-up.
const SLEEP_OVERRUN: Duration = Duration::from_micros(60);

/// One step of a wait for a deadline.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// The deadline has passed.
    Done,
    /// Sleep this long; the overrun still lands before the deadline.
    Sleep(Duration),
    /// Too little is left for a sleep to land in time: give the core
    /// away and look again.
    Yield,
}

/// What a wait does with `left` until its deadline: it sleeps only while
/// more than a sleep's overrun is left, and yields the rest.
fn step(left: Duration) -> Step {
    if left.is_zero() {
        Step::Done
    } else if left > SLEEP_OVERRUN {
        Step::Sleep(left - SLEEP_OVERRUN)
    } else {
        Step::Yield
    }
}

/// Waits out what is left until `deadline`; returns at once once it has
/// passed. It yields rather than spins near the deadline, so a rank
/// sharing its core with a peer hands the core over. It lands on the
/// deadline only while the threads sharing its core block: a yield to one
/// that busy-loops gives up a whole scheduler slice.
pub(crate) fn sleep_until(deadline: Instant) {
    loop {
        match step(deadline.saturating_duration_since(now())) {
            Step::Done => return,
            Step::Sleep(d) => std::thread::sleep(d),
            Step::Yield => std::thread::yield_now(),
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the injected wire cost is wall-clock by definition; read only when a delay is attached"
)]
fn now() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_alpha_beta() {
        let d = CommDelay::new(1e9, 10e-6);
        let c = d.cost(1_000_000);
        // 10 µs latency + 1 MB / (1 GB/s) = 1.01 ms
        assert!((c.as_secs_f64() - 1.01e-3).abs() < 1e-9, "{c:?}");
    }

    #[test]
    fn scaling_multiplies_cost() {
        let d = CommDelay::new(1e9, 0.0).scaled(4.0);
        assert_eq!(d.cost(1_000_000), Duration::from_secs_f64(4e-3));
        let zero = CommDelay::new(1e9, 1e-3).scaled(0.0);
        assert_eq!(zero.cost(u64::MAX), Duration::ZERO);
    }

    #[test]
    fn topology_uses_scale_out_link() {
        let topo = ClusterTopology::zionex_prototype(2);
        let d = CommDelay::from_topology(&topo);
        let want = topo.scale_out.transfer_time(4096.0);
        // Duration quantizes to whole nanoseconds.
        assert!((d.cost(4096).as_secs_f64() - want).abs() < 1e-9);
    }

    #[test]
    fn a_wait_sleeps_while_more_than_an_overrun_is_left_then_yields() {
        let us = Duration::from_micros;
        assert_eq!(step(Duration::ZERO), Step::Done);
        assert_eq!(step(Duration::from_nanos(1)), Step::Yield);
        assert_eq!(step(SLEEP_OVERRUN), Step::Yield);
        assert_eq!(
            step(SLEEP_OVERRUN + Duration::from_nanos(1)),
            Step::Sleep(Duration::from_nanos(1))
        );
        assert_eq!(step(us(100)), Step::Sleep(us(40)));
    }

    #[test]
    fn sleeping_until_a_deadline_pays_only_what_is_left() {
        let d = CommDelay::new(1e9, 2e-3); // 2 ms fixed latency
        let deadline = d.deadline(0);
        sleep_until(deadline);
        let t1 = now();
        assert!(t1 >= deadline);
        sleep_until(deadline); // already passed: no sleep
        assert!(t1.elapsed() < Duration::from_millis(2));
    }
}
