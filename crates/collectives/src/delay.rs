//! Opt-in netsim-derived latency injection for collectives.
//!
//! The thread-backed collectives in this crate move data through shared
//! memory, so on the wall clock they cost microseconds where the real
//! ZionEX fabric costs hundreds. That makes overlap experiments (§4.3)
//! meaningless: there is nothing to hide. [`CommDelay`] restores a
//! realistic wire cost by sleeping `latency + bytes / bandwidth` per
//! collective, priced from a [`ClusterTopology`] link, without touching
//! the exchanged values — injected latency is wall-clock only, so
//! bitwise determinism is unaffected.

use std::time::Duration;

use neo_netsim::topology::LinkSpec;
use neo_netsim::ClusterTopology;

/// Per-operation latency injector derived from a netsim link model.
///
/// Attached to a `Communicator` via `set_comm_delay`, every collective
/// sleeps for the α–β transfer time of its payload before the rendezvous.
/// Off by default; a communicator without a delay reads no clock and
/// sleeps nowhere.
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

    /// Sleeps for [`CommDelay::cost`] of `bytes` on the calling thread.
    pub fn inject(&self, bytes: u64) {
        let d = self.cost(bytes);
        if !d.is_zero() {
            std::thread::sleep(d); // lint: allow(comm_lane_blocking) — deliberate fault injection: modeling link latency by parking the caller is this function's contract
        }
    }
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
    fn injecting_sleeps_at_least_the_cost() {
        let d = CommDelay::new(1e9, 2e-3); // 2 ms fixed latency
        #[expect(
            clippy::disallowed_methods,
            reason = "the test times the injected delay"
        )]
        let t0 = std::time::Instant::now();
        d.inject(0);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
