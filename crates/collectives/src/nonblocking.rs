//! Nonblocking collectives: a `post` / [`CommHandle::wait`] split.
//!
//! The paper's pipelining optimizations (§4.3, Fig. 9) require collectives
//! that make progress while the issuing thread computes. Here each rank
//! owns a dedicated **comm lane**: a thread driving a second, independent
//! rendezvous group, so posted exchanges overlap both the caller's compute
//! and any blocking collectives issued concurrently on the main lane.
//!
//! Contract: all ranks must post the same nonblocking collectives in the
//! same order (they rendezvous FIFO on the lane), exactly as blocking
//! collectives must be issued in the same order on the main thread. The
//! result arrives through a [`CommHandle`], whose `wait` records a
//! `comm.<op>.wait_ns` histogram — the *exposed* remainder of the op,
//! as opposed to the in-collective time measured on the lane.

use std::any::Any;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use neo_sync::chaos;
use neo_telemetry::{Metric, Phase, RankRecorder, TelemetrySink};

use crate::delay::CommDelay;
use crate::group::{CollectiveError, Communicator, Shared};
use crate::quant::QuantMode;

/// Telemetry lane index comm-lane spans are recorded on (0 = main thread).
pub const COMM_LANE: u32 = 1;

/// Jobs queued per lane before `post` blocks; posts are waited within an
/// iteration so the queue never builds more than a few entries.
const LANE_QUEUE: usize = 32;

type Job = Box<dyn FnOnce(&mut LaneCtx) -> LaneStatus + Send>;

/// Whether the lane thread can keep serving jobs after the one it just ran.
enum LaneStatus {
    Ok,
    /// The job's collective panicked. The lane-side rendezvous may be
    /// desynchronized mid-exchange, so the thread stops taking work;
    /// later waits on this rank observe [`CollectiveError::LaneClosed`].
    Failed,
}

/// Renders a captured panic payload (the `catch_unwind` error value) for
/// [`CollectiveError::LaneFailed`]. `panic!` with a literal yields `&str`,
/// formatted panics yield `String`; anything else is opaque.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State owned by one rank's comm-lane thread.
struct LaneCtx {
    comm: Communicator,
    rec: RankRecorder,
}

/// Handle to one rank's comm-lane thread.
pub(crate) struct Lane {
    tx: Sender<Job>,
}

impl Lane {
    /// Spawns the lane thread for `rank` over the lane-side rendezvous
    /// state. The thread exits when the owning [`Communicator`] is
    /// dropped (the job channel disconnects).
    pub(crate) fn spawn(rank: usize, shared: Arc<Shared>) -> Self {
        let (tx, rx) = bounded::<Job>(LANE_QUEUE);
        std::thread::spawn(move || {
            // Positional identity for the chaos stall injector: lets a
            // seeded test park exactly one lane to provoke a detectable
            // stall. A pair of thread-local stores when disarmed.
            chaos::set_thread_tag(rank as u64);
            let mut ctx = LaneCtx {
                comm: Communicator::lane_endpoint(rank, shared),
                rec: RankRecorder::disabled(),
            };
            // The job-queue recv IS the lane's idle state: it blocks only
            // when there is no posted collective to overlap.
            // lint: allow(comm_lane_blocking) — idle-state job-queue recv
            while let Ok(job) = rx.recv() {
                if matches!(job(&mut ctx), LaneStatus::Failed) {
                    // The lane-side rendezvous may be desynchronized
                    // mid-exchange, so stop *running* jobs — but keep
                    // draining the queue until the owner drops the
                    // sender: dropping an unrun job drops its result
                    // sender, so its waiter observes LaneClosed instead
                    // of blocking on a message that never comes.
                    // lint: allow(comm_lane_blocking) — post-failure drain; the lane is already dead, blocking cannot cost overlap
                    while let Ok(dead) = rx.recv() {
                        drop(dead);
                    }
                    break;
                }
            }
        });
        Self { tx }
    }

    fn send(&self, job: Job) {
        // A failed send means the lane thread is gone; the poster's
        // CommHandle will surface LaneClosed at wait time.
        self.tx.send(job).ok();
    }

    /// Point the lane's telemetry at `sink`; lane spans land on
    /// `(rank, COMM_LANE)`.
    pub(crate) fn set_telemetry(&self, sink: TelemetrySink) {
        self.send(Box::new(move |ctx| {
            ctx.rec = sink.rank_lane(ctx.comm.rank as u32, COMM_LANE);
            ctx.comm.set_telemetry(sink);
            LaneStatus::Ok
        }));
    }

    /// Forward the latency injector to the lane endpoint, so posted ops
    /// pay the modeled wire time on the lane thread (overlappable) rather
    /// than on the caller.
    pub(crate) fn set_comm_delay(&self, delay: Option<CommDelay>) {
        self.send(Box::new(move |ctx| {
            ctx.comm.set_comm_delay(delay);
            LaneStatus::Ok
        }));
    }
}

/// Pending result of a posted collective. Obtain via the `post_*` methods
/// on [`Communicator`]; redeem with [`CommHandle::wait`].
#[must_use = "a posted collective must be waited on; dropping the handle discards its result"]
pub struct CommHandle<R> {
    rx: Receiver<Result<R, CollectiveError>>,
    op: &'static str,
    telemetry: TelemetrySink,
}

impl<R> std::fmt::Debug for CommHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommHandle").field("op", &self.op).finish()
    }
}

impl<R> CommHandle<R> {
    /// Blocks until the posted collective completes and returns its
    /// result. When telemetry is armed, the time spent blocked here is
    /// recorded as `comm.<op>.wait_ns` — zero when compute fully hid the
    /// exchange, the op's exposed remainder otherwise.
    ///
    /// # Errors
    ///
    /// Returns the posted collective's error —
    /// [`CollectiveError::LaneFailed`] if the lane worker panicked while
    /// running it — or [`CollectiveError::LaneClosed`] if the lane died
    /// before delivering.
    pub fn wait(self) -> Result<R, CollectiveError> {
        chaos::yield_point(chaos::site::WAIT);
        let t0 = self.telemetry.now_ns();
        // wait() is the caller-side rendezvous by contract: the trainer
        // invokes it at the last overlap point, off the lane thread.
        // lint: allow(comm_lane_blocking) — caller-side rendezvous, not on the lane
        let res = match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(CollectiveError::LaneClosed { op: self.op }),
        };
        if let (Some(t0), Some(t1)) = (t0, self.telemetry.now_ns()) {
            self.telemetry
                .histogram_observe(Metric::CommWaitNs(self.op), t1.saturating_sub(t0));
        }
        res
    }
}

impl Communicator {
    /// Ship `run` to the comm lane, returning the handle its result will
    /// arrive through. The lane brackets the exchange in a span of the
    /// [`Phase`] named `span_name`, attributed to `iter` on telemetry lane
    /// [`COMM_LANE`]. The name stays a string for the standalone
    /// `benchmark/` package, which posts by phase name; the lane resolves
    /// it only when its recorder is armed.
    ///
    /// `bytes` is the op's logical wire payload: caller-side accounting
    /// mirrors the blocking path so [`CommStats`](crate::CommStats) are
    /// identical whichever path a schedule takes; telemetry counters and
    /// the injected delay are the lane's (single) copy.
    fn post<R: Send + 'static>(
        &mut self,
        op: &'static str,
        span_name: &'static str,
        iter: u64,
        bytes: usize,
        run: impl FnOnce(&mut Communicator) -> Result<R, CollectiveError> + Send + 'static,
    ) -> CommHandle<R> {
        self.stats.ops += 1;
        self.stats.bytes_sent += bytes as u64;
        let (tx, rx) = bounded(1);
        let handle = CommHandle {
            rx,
            op,
            telemetry: self.telemetry.clone(),
        };
        if let Some(lane) = &self.lane {
            chaos::yield_point(chaos::site::POST);
            lane.send(Box::new(move |ctx| {
                chaos::yield_point(chaos::site::LANE_ENTER);
                let it = ctx.rec.begin_iteration(iter);
                let phase = ctx.rec.enabled().then(|| Phase::from_name(span_name));
                let sp = phase.flatten().map(|p| ctx.rec.span(p));
                // Stall injection sits between the span-open beat and the
                // exchange beat: a parked victim is last seen *in the
                // span* (it never reached the rendezvous), while its
                // blocked peers are last seen *exchanging* — exactly the
                // distinction the monitor's watchdog keys on.
                chaos::stall_point();
                ctx.rec.mark_exchange();
                // AssertUnwindSafe: on panic the lane stops serving jobs
                // (LaneStatus::Failed breaks its loop), so any state the
                // unwound exchange left mid-invariant is never touched
                // again — the panic surfaces as a typed LaneFailed on the
                // handle instead of killing a detached thread.
                let res =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ctx.comm)));
                drop(sp);
                it.end();
                chaos::yield_point(chaos::site::LANE_EXIT);
                match res {
                    Ok(res) => {
                        tx.send(res).ok();
                        LaneStatus::Ok
                    }
                    Err(payload) => {
                        tx.send(Err(CollectiveError::LaneFailed {
                            op,
                            message: panic_message(payload.as_ref()),
                        }))
                        .ok();
                        LaneStatus::Failed
                    }
                }
            }));
        }
        handle
    }

    /// Nonblocking [`Communicator::all_to_all_shared`]: posts `world`
    /// [`Arc`] pointers to the comm lane and returns immediately — the
    /// payload buffers are never copied onto the lane, only their
    /// refcounts move. `span_name` / `iter` label the lane-side telemetry
    /// span (a [`Phase::as_str`] name).
    ///
    /// All ranks must post the same lane collectives in the same order.
    ///
    /// A contract violation (e.g. `sends.len() != world`) panics the
    /// exchange *on the lane thread*; the panic is captured and surfaces
    /// as [`CollectiveError::LaneFailed`] at [`CommHandle::wait`].
    pub fn post_all_to_all_shared<T: Send + Sync + 'static>(
        &mut self,
        sends: Vec<Arc<Vec<T>>>,
        span_name: &'static str,
        iter: u64,
    ) -> CommHandle<Vec<Arc<Vec<T>>>> {
        let total: usize = sends.iter().map(|v| v.len()).sum();
        let bytes = total * std::mem::size_of::<T>();
        self.post("all_to_all_v", span_name, iter, bytes, move |c| {
            c.all_to_all_shared(sends)
        })
    }

    /// Nonblocking [`Communicator::all_to_all_shared_quant`]:
    /// quantization, pointer exchange, and dequantization all run on the
    /// comm lane.
    ///
    /// All ranks must post the same lane collectives in the same order.
    pub fn post_all_to_all_shared_quant(
        &mut self,
        sends: Vec<Arc<Vec<f32>>>,
        mode: QuantMode,
        span_name: &'static str,
        iter: u64,
    ) -> CommHandle<Vec<Arc<Vec<f32>>>> {
        let total: usize = sends.iter().map(|v| v.len()).sum();
        let bytes = total * mode.wire_bytes();
        self.post("all_to_all_v", span_name, iter, bytes, move |c| {
            c.all_to_all_shared_quant(sends, mode)
        })
    }

    /// Nonblocking [`Communicator::all_reduce_shared`]: the posted
    /// deposit moves one [`Arc`] pointer instead of copying the buffer.
    /// Accumulation stays in rank order and is element-wise, so posting
    /// disjoint pieces of a buffer separately is bitwise-identical to one
    /// blocking AllReduce of their concatenation.
    ///
    /// All ranks must post the same lane collectives in the same order.
    pub fn post_all_reduce_shared(
        &mut self,
        input: Arc<Vec<f32>>,
        span_name: &'static str,
        iter: u64,
    ) -> CommHandle<Arc<Vec<f32>>> {
        let bytes = input.len() * 4;
        self.post("all_reduce", span_name, iter, bytes, move |c| {
            c.all_reduce_shared(input)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProcessGroup;
    use neo_telemetry::Phase;
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
        // Post on the lane, then run a *different* blocking collective on
        // the main lane before waiting: with a single rendezvous state
        // this would cross-match ops and panic; with the second lane it
        // must complete cleanly.
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
    fn lane_panic_surfaces_as_typed_lane_failed() {
        // Every rank posts a malformed exchange (wrong sends.len()), so
        // every lane worker trips the world-size assert *before* its
        // rendezvous deposit — each rank must get the captured panic back
        // as LaneFailed rather than hanging or unwinding the caller.
        let out = run(2, |rank, c| {
            let bad =
                c.post_all_to_all_shared(sends_of(rank as u32, 3), Phase::InputA2a.as_str(), 0);
            let err = bad.wait().expect_err("malformed exchange must fail");
            // The lane is now out of service: later posts observe a
            // closed lane at wait, not a hang.
            let after =
                c.post_all_to_all_shared(sends_of(rank as u32, 2), Phase::InputA2a.as_str(), 1);
            (err, after.wait().expect_err("lane must be closed"))
        });
        for (err, after) in out {
            match err {
                CollectiveError::LaneFailed { op, message } => {
                    assert_eq!(op, "all_to_all_v");
                    assert!(
                        message.contains("world send lists"),
                        "captured payload should carry the assert text, got {message:?}"
                    );
                }
                other => panic!("expected LaneFailed, got {other:?}"),
            }
            assert_eq!(
                after,
                CollectiveError::LaneClosed { op: "all_to_all_v" },
                "post-failure ops must observe a closed lane"
            );
        }
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
    fn delayed_posted_op_sleeps_on_the_lane_not_the_caller() {
        let out = run(2, |rank, c| {
            c.set_comm_delay(Some(CommDelay::new(1e9, 20e-3)));
            #[expect(
                clippy::disallowed_methods,
                reason = "the test times the injected delay"
            )]
            let t0 = std::time::Instant::now();
            let h = c.post_all_to_all_shared(sends_of(rank as u32, 2), Phase::InputA2a.as_str(), 0);
            let post_cost = t0.elapsed();
            let recv = h.wait().unwrap();
            (post_cost, recv)
        });
        for (post_cost, recv) in out {
            assert!(
                post_cost < std::time::Duration::from_millis(15),
                "post must return before the injected 20ms delay elapses ({post_cost:?})"
            );
            assert_eq!(recv, vec![Arc::new(vec![0]), Arc::new(vec![1])]);
        }
    }
}
