//! The metric vocabulary: every counter, gauge and histogram as one enum.
//!
//! Names are dotted lowercase, `<subsystem>.<what>[.<unit>]`. Collectives
//! metrics come per operation (`comm.<op>.bytes`, `.calls`, `.ns`,
//! `.wait_ns`); cache bridges emit `<prefix>.cache_hit` / `cache_miss` /
//! `cache_evict` / `cache_writeback`.

use std::borrow::Cow;

/// One metric a [`crate::TelemetrySink`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Gauge: globally reduced training loss per iteration (rank 0 only).
    TrainLoss,
    /// Gauge: global samples/sec derived from the iteration span (rank 0
    /// only).
    TrainThroughput,
    /// Counter: embedding rows gathered during forward lookups.
    EmbLookupRows,
    /// Counter: embedding rows updated by the sparse optimizer.
    EmbOptimRows,
    /// Histogram: nanoseconds spent building one input batch.
    DataioBatchBuildNs,
    /// Gauge: prefetch queue depth observed at each consumer receive.
    DataioQueueDepth,
    /// Running-max gauge: peak prefetch queue depth over the run (survives
    /// sampling, unlike the per-receive [`Metric::DataioQueueDepth`]).
    DataioQueuePeak,
    /// Counter: telemetry frames written by the live monitor's sampler.
    MonitorSamples,
    /// Counter: health events raised by the live monitor's watchdog.
    MonitorEvents,
    /// Counter: bytes moved by collective `op`, `comm.<op>.bytes`.
    CommBytes(&'static str),
    /// Counter: invocations of collective `op`, `comm.<op>.calls`.
    CommCalls(&'static str),
    /// Histogram: latency of `op` from post to completed wait,
    /// `comm.<op>.ns`.
    CommNs(&'static str),
    /// Histogram: how long the caller blocked in `CommHandle::wait` for a
    /// posted `op`, `comm.<op>.wait_ns` — the exposed part of the op, as
    /// opposed to its whole [`Metric::CommNs`].
    CommWaitNs(&'static str),
    /// Counter: cache hits under a prefix, `<prefix>.cache_hit`.
    CacheHit(&'static str),
    /// Counter: cache misses under a prefix, `<prefix>.cache_miss`.
    CacheMiss(&'static str),
    /// Counter: cache evictions under a prefix, `<prefix>.cache_evict`.
    CacheEvict(&'static str),
    /// Counter: dirty writebacks under a prefix, `<prefix>.cache_writeback`.
    CacheWriteback(&'static str),
}

impl Metric {
    /// The metric's name in every artifact. Borrowed for the fixed names;
    /// the parametrised families format theirs.
    pub fn name(self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            Metric::TrainLoss => "train.loss",
            Metric::TrainThroughput => "train.throughput_samples_per_sec",
            Metric::EmbLookupRows => "emb.lookup.rows",
            Metric::EmbOptimRows => "emb.optim.rows",
            Metric::DataioBatchBuildNs => "dataio.batch_build.ns",
            Metric::DataioQueueDepth => "dataio.queue_depth",
            Metric::DataioQueuePeak => "dataio.queue_peak",
            Metric::MonitorSamples => "monitor.samples",
            Metric::MonitorEvents => "monitor.events",
            Metric::CommBytes(op) => return format!("comm.{op}.bytes").into(),
            Metric::CommCalls(op) => return format!("comm.{op}.calls").into(),
            Metric::CommNs(op) => return format!("comm.{op}.ns").into(),
            Metric::CommWaitNs(op) => return format!("comm.{op}.wait_ns").into(),
            Metric::CacheHit(p) => return format!("{p}.cache_hit").into(),
            Metric::CacheMiss(p) => return format!("{p}.cache_miss").into(),
            Metric::CacheEvict(p) => return format!("{p}.cache_evict").into(),
            Metric::CacheWriteback(p) => return format!("{p}.cache_writeback").into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_format_their_parameter_into_the_name() {
        assert_eq!(Metric::TrainLoss.name(), "train.loss");
        assert_eq!(
            Metric::CommWaitNs("all_reduce").name(),
            "comm.all_reduce.wait_ns"
        );
        assert_eq!(
            Metric::CacheWriteback("emb.t0").name(),
            "emb.t0.cache_writeback"
        );
    }
}
