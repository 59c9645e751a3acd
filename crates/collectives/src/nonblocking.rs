//! Split-phase collectives: a `post` / [`CommHandle::wait`] split
//! (§4.3, Fig. 9). A post *arrives* at the group's ring and returns; the
//! wait *completes* the collective once every rank has arrived. Compute
//! placed between the two overlaps the peers' arrival and any modelled
//! wire time, on the caller's own thread. All ranks must issue the same
//! collectives, posted or blocking, in the same order; waits may come in
//! any order. A posted collective's wait records `comm.<op>.wait_ns`, the
//! op's *exposed* remainder, and its in-flight span on [`COMM_LANE`].

use std::sync::Arc;
use std::time::Instant;

use neo_sync::chaos;
use neo_telemetry::{Metric, Phase, SpanRecord};

use crate::delay;
use crate::group::{CollectiveError, Communicator, Endpoint, Op};
use crate::quant::QuantMode;
use crate::ring::Deposit;

/// Telemetry lane of posted collectives' in-flight spans (0 = compute).
pub const COMM_LANE: u32 = 1;

/// What a wait does with the deposits of every rank.
pub(crate) type Read<R> = Box<dyn FnOnce(Vec<Deposit>) -> Result<R, CollectiveError> + Send>;

/// Pending result of a posted collective. Obtain via the `post_*` methods
/// on [`Communicator`]; redeem with [`CommHandle::wait`].
#[must_use = "a posted collective must be waited on; dropping the handle discards its result"]
pub struct CommHandle<R> {
    pub(crate) ep: Arc<Endpoint>,
    pub(crate) epoch: u64,
    pub(crate) op: Op,
    /// Sink time of the post; `None` when telemetry is off.
    pub(crate) posted_ns: Option<u64>,
    /// When the modelled wire delivers; `None` without a delay.
    pub(crate) ready_at: Option<Instant>,
    /// `(span name, iteration)` labelling a posted collective's in-flight
    /// span, a [`Phase::as_str`] name resolved only when telemetry is
    /// armed; `None` for a blocking one.
    pub(crate) track: Option<(&'static str, u64)>,
    pub(crate) read: Read<R>,
}

impl<R> std::fmt::Debug for CommHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommHandle")
            .field("op", &self.op)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl<R> CommHandle<R> {
    /// Blocks until every rank has posted this collective, sleeps out any
    /// modelled wire time still left, and returns the result. When
    /// telemetry is armed, the time spent here is recorded as
    /// `comm.<op>.wait_ns` — zero when compute fully hid the exchange,
    /// the op's exposed remainder otherwise.
    ///
    /// # Errors
    ///
    /// The collective's [`CollectiveError`], e.g. a payload of the wrong
    /// type or a failed wire conversion.
    pub fn wait(self) -> Result<R, CollectiveError> {
        chaos::yield_point(chaos::site::WAIT);
        let (ep, op) = (&self.ep, self.op);
        let tel = &ep.telemetry;
        let waited_ns = self.track.and(tel.now_ns());
        if let Some(at) = self.ready_at {
            delay::sleep_until(at);
        }
        let res = ep
            .ring
            .complete(self.epoch, ep.rank, op, || ep.beat.mark_exchange())
            .and_then(self.read);
        if let (Some(t0), Some(t1)) = (self.posted_ns, tel.now_ns()) {
            tel.counter_add(Metric::CommCalls(op.name()), 1);
            tel.histogram_observe(Metric::CommNs(op.name()), t1.saturating_sub(t0));
            if let (Some((name, iter)), Some(tw)) = (self.track, waited_ns) {
                tel.histogram_observe(Metric::CommWaitNs(op.name()), t1.saturating_sub(tw));
                if let Some(phase) = Phase::from_name(name) {
                    tel.push_span(SpanRecord {
                        rank: ep.rank as u32,
                        lane: COMM_LANE,
                        iter,
                        phase,
                        start_ns: t0,
                        end_ns: t1,
                    });
                }
            }
        }
        res
    }
}

impl Communicator {
    /// Nonblocking [`Communicator::all_to_all_shared`]: deposits `world`
    /// [`Arc`] pointers and returns at once; `span_name` / `iter` label
    /// the in-flight span. Panics, on the caller, if `sends.len() != world`.
    pub fn post_all_to_all_shared<T: Send + Sync + 'static>(
        &mut self,
        sends: Vec<Arc<Vec<T>>>,
        span_name: &'static str,
        iter: u64,
    ) -> CommHandle<Vec<Arc<Vec<T>>>> {
        CommHandle {
            track: Some((span_name, iter)),
            ..self.start_all_to_all(sends, std::mem::size_of::<T>(), Ok)
        }
    }

    /// Nonblocking [`Communicator::all_to_all_shared_quant`]: the encode
    /// runs at post and the decode at wait, both on the caller. Panics, on
    /// the caller, if `sends.len() != world`.
    pub fn post_all_to_all_shared_quant(
        &mut self,
        sends: Vec<Arc<Vec<f32>>>,
        mode: QuantMode,
        span_name: &'static str,
        iter: u64,
    ) -> CommHandle<Vec<Arc<Vec<f32>>>> {
        CommHandle {
            track: Some((span_name, iter)),
            ..self.start_all_to_all_quant(sends, mode)
        }
    }

    /// Nonblocking [`Communicator::all_reduce_shared`]: the posted
    /// deposit moves one [`Arc`] pointer instead of copying the buffer.
    /// Accumulation stays in rank order and is element-wise, so posting
    /// disjoint pieces of a buffer separately is bitwise-identical to one
    /// blocking AllReduce of their concatenation.
    pub fn post_all_reduce_shared(
        &mut self,
        input: Arc<Vec<f32>>,
        span_name: &'static str,
        iter: u64,
    ) -> CommHandle<Arc<Vec<f32>>> {
        CommHandle {
            track: Some((span_name, iter)),
            ..self.start_all_reduce(input)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProcessGroup;
    use crate::CommDelay;
    use neo_telemetry::TelemetrySink;
    use std::thread;

    fn run<R: Send + 'static>(
        world: usize,
        f: impl Fn(usize, &mut Communicator) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = ProcessGroup::new(world)
            .into_iter()
            .map(|mut c| {
                let f = Arc::clone(&f);
                thread::spawn(move || f(c.rank(), &mut c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    }

    /// `world` single-element send lists, `Arc`-wrapped.
    fn sends_of<T: Copy>(v: T, world: usize) -> Vec<Arc<Vec<T>>> {
        (0..world).map(|_| Arc::new(vec![v])).collect()
    }

    #[test]
    fn posted_alltoall_matches_blocking() {
        let out = run(3, |rank, c| {
            let sends: Vec<Arc<Vec<u64>>> = (0..3)
                .map(|j| Arc::new(vec![(rank * 10 + j) as u64]))
                .collect();
            let handle = c.post_all_to_all_shared(sends.clone(), Phase::InputA2a.as_str(), 0);
            let posted = handle.wait().unwrap();
            let blocking = c.all_to_all_shared(sends).unwrap();
            (posted, blocking)
        });
        for (j, (posted, blocking)) in out.into_iter().enumerate() {
            assert_eq!(posted, blocking);
            // and both are the transpose: rank j holds i*10 + j from rank i
            for (i, msg) in posted.iter().enumerate() {
                assert_eq!(**msg, vec![(i * 10 + j) as u64]);
            }
        }
    }

    #[test]
    fn split_allreduce_equals_whole() {
        let out = run(4, |rank, c| {
            let full: Vec<f32> = (0..32)
                .map(|i| ((rank * 32 + i) as f32 * 0.3).cos())
                .collect();
            let whole = c.all_reduce_shared(Arc::new(full.clone())).unwrap();
            let bot = c.post_all_reduce_shared(
                Arc::new(full[..20].to_vec()),
                Phase::AllreduceBot.as_str(),
                0,
            );
            let top = c.post_all_reduce_shared(
                Arc::new(full[20..].to_vec()),
                Phase::AllreduceTop.as_str(),
                0,
            );
            let mut halves = bot.wait().unwrap().as_ref().clone();
            halves.extend(top.wait().unwrap().iter());
            (whole, halves)
        });
        for (whole, halves) in out {
            assert_eq!(*whole, halves, "split halves must be bitwise identical");
        }
    }

    #[test]
    fn posted_ops_overlap_blocking_main_lane_ops() {
        // Post, then run a *different* blocking collective before
        // waiting: each takes the next epoch of the ring, so the two never
        // cross-match.
        let out = run(2, |rank, c| {
            let h = c.post_all_to_all_shared(sends_of(rank as u32, 2), Phase::InputA2a.as_str(), 0);
            let v = c
                .all_reduce_shared(Arc::new(vec![rank as f32 + 1.0]))
                .unwrap();
            let recv = h.wait().unwrap();
            (v[0], recv)
        });
        for (sum, recv) in out {
            assert_eq!(sum, 3.0);
            assert_eq!(recv, vec![Arc::new(vec![0]), Arc::new(vec![1])]);
        }
    }

    #[test]
    fn quantized_post_matches_blocking_quant() {
        let out = run(2, |rank, c| {
            let payload: Vec<f32> = (0..64).map(|i| (i as f32 + rank as f32) * 0.17).collect();
            let sends = vec![Arc::new(payload.clone()), Arc::new(payload)];
            let h = c.post_all_to_all_shared_quant(
                sends.clone(),
                QuantMode::Bf16,
                Phase::AlltoallFwd.as_str(),
                1,
            );
            let posted = h.wait().unwrap();
            let blocking = c.all_to_all_shared_quant(sends, QuantMode::Bf16).unwrap();
            (posted, blocking, c.stats())
        });
        let bytes0 = out[0].2.bytes_sent;
        assert_eq!(bytes0, 2 * (2 * 64 * 2), "two bf16 exchanges of 2x64 elems");
        for (posted, blocking, stats) in out {
            assert_eq!(posted, blocking, "lane quantization must match main-lane");
            assert_eq!(stats.bytes_sent, bytes0);
            assert_eq!(stats.ops, 2);
        }
    }

    #[test]
    fn wait_records_wait_histogram_and_lane_span() {
        let sink = TelemetrySink::armed();
        let per_rank_sink = sink.clone();
        let out = run(2, move |_rank, c| {
            c.set_telemetry(per_rank_sink.clone());
            let h = c.post_all_to_all_shared(sends_of(1u8, 2), Phase::InputA2a.as_str(), 4);
            h.wait().unwrap()
        });
        assert_eq!(out.len(), 2);
        let snap = sink.snapshot().expect("armed");
        let wait = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "comm.all_to_all_v.wait_ns")
            .map(|(_, h)| h.total());
        assert_eq!(wait, Some(2), "one wait observation per rank");
        let lane_spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.lane == COMM_LANE && s.phase == Phase::InputA2a)
            .collect();
        assert_eq!(lane_spans.len(), 2, "one lane span per rank");
        assert!(lane_spans.iter().all(|s| s.iter == 4));
    }

    #[test]
    #[should_panic(expected = "world send lists")]
    fn malformed_post_panics_on_the_caller() {
        let mut comms = ProcessGroup::new(1);
        let c = &mut comms[0];
        let h = c.post_all_to_all_shared(sends_of(0u32, 3), Phase::InputA2a.as_str(), 0);
        h.wait().ok();
    }

    #[test]
    fn delay_injection_is_wall_clock_only() {
        let baseline = run(2, |rank, c| {
            c.all_reduce_shared(Arc::new(vec![rank as f32 * 0.25; 16]))
                .unwrap()
        });
        let delayed = run(2, |rank, c| {
            c.set_comm_delay(Some(CommDelay::new(1e9, 1e-3)));
            #[expect(
                clippy::disallowed_methods,
                reason = "the test times the injected delay"
            )]
            let t0 = std::time::Instant::now();
            let v = c
                .all_reduce_shared(Arc::new(vec![rank as f32 * 0.25; 16]))
                .unwrap();
            assert!(
                t0.elapsed() >= std::time::Duration::from_millis(1),
                "delay must be injected on the wall clock"
            );
            v
        });
        assert_eq!(baseline, delayed, "injected delay must not change values");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test times the injected delay"
    )]
    fn delay_is_a_deadline_that_compute_pays_down() {
        use std::time::{Duration, Instant};
        const COST: Duration = Duration::from_millis(20);
        let input = |rank: usize| Arc::new(vec![rank as f32 * 0.25 - 0.1; 16]);
        let baseline = run(2, move |rank, c| c.all_reduce_shared(input(rank)).unwrap());
        let out = run(2, move |rank, c| {
            c.set_comm_delay(Some(CommDelay::new(1e9, COST.as_secs_f64())));
            let t0 = Instant::now();
            let h = c.post_all_to_all_shared(sends_of(rank as u32, 2), Phase::InputA2a.as_str(), 0);
            let post = t0.elapsed();
            std::thread::sleep(COST + Duration::from_millis(5)); // other work
            let t1 = Instant::now();
            let recv = h.wait().unwrap();
            let wait = t1.elapsed();
            let t2 = Instant::now();
            let sum = c.all_reduce_shared(input(rank)).unwrap();
            (post, wait, t2.elapsed(), recv, sum)
        });
        for ((post, wait, blocking, recv, sum), want) in out.into_iter().zip(baseline) {
            assert!(post < Duration::from_millis(15), "post slept ({post:?})");
            assert!(
                wait < Duration::from_millis(15),
                "a wait after the cost has passed slept again ({wait:?})"
            );
            assert!(blocking >= COST, "blocking paid only {blocking:?}");
            assert_eq!(recv, vec![Arc::new(vec![0]), Arc::new(vec![1])]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&sum),
                bits(&want),
                "injected delay must not change values"
            );
        }
    }
}
