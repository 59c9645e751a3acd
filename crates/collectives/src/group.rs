//! The thread-backed process group and its collectives.

use std::any::Any;
use std::sync::Arc;

use neo_sync::{OrderedBarrier, OrderedMutex};
use neo_telemetry::{Metric, TelemetrySink};

use crate::delay::CommDelay;
use crate::nonblocking::Lane;
use crate::quant::{QuantError, QuantMode};

/// Error from a collective operation.
///
/// These are contract violations between ranks (a missing deposit or a
/// payload of the wrong type) or a quantization misuse, surfaced as typed
/// errors so trainers can shut a job down cleanly instead of unwinding
/// through a panic on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// A rank's deposit slot was empty when results were read.
    MissingDeposit {
        /// The collective being executed.
        op: &'static str,
    },
    /// A rank deposited a payload of a different type than expected.
    PayloadTypeMismatch {
        /// The collective being executed.
        op: &'static str,
    },
    /// A quantized collective was asked for an impossible wire conversion.
    Quant(QuantError),
    /// A nonblocking collective's comm lane shut down before delivering
    /// the result (the group was torn down mid-flight).
    LaneClosed {
        /// The collective being executed.
        op: &'static str,
    },
    /// The comm-lane worker panicked while running a posted collective;
    /// the panic payload is captured here instead of unwinding the caller.
    LaneFailed {
        /// The collective being executed.
        op: &'static str,
        /// The panic message the lane worker died with.
        message: String,
    },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::MissingDeposit { op } => {
                write!(
                    f,
                    "missing deposit in collective {op}: not all ranks arrived"
                )
            }
            CollectiveError::PayloadTypeMismatch { op } => {
                write!(f, "payload type mismatch in collective {op}")
            }
            CollectiveError::Quant(e) => write!(f, "quantized collective: {e}"),
            CollectiveError::LaneClosed { op } => {
                write!(f, "comm lane closed before {op} completed")
            }
            CollectiveError::LaneFailed { op, message } => {
                write!(f, "comm lane worker panicked during {op}: {message}")
            }
        }
    }
}

impl std::error::Error for CollectiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectiveError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QuantError> for CollectiveError {
    fn from(e: QuantError) -> Self {
        CollectiveError::Quant(e)
    }
}

/// Per-rank traffic counters, updated by every collective call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Payload bytes this rank contributed to collectives (after any
    /// quantization).
    pub bytes_sent: u64,
    /// Number of collective operations issued.
    pub ops: u64,
}

struct Deposit {
    op: &'static str,
    payload: Box<dyn Any + Send>,
}

pub(crate) struct Shared {
    world: usize,
    barrier: OrderedBarrier,
    slots: OrderedMutex<Vec<Option<Deposit>>>,
}

impl Shared {
    /// `slots_name`/`barrier_name` are this instance's nodes in the
    /// workspace lock hierarchy (DESIGN.md): the main and lane copies
    /// get distinct names so the sanitize-mode order graph can tell a
    /// legal main-vs-lane interleaving from a true inversion.
    fn new(world: usize, slots_name: &'static str, barrier_name: &'static str) -> Arc<Self> {
        Arc::new(Shared {
            world,
            barrier: OrderedBarrier::new(barrier_name, world),
            slots: OrderedMutex::new(slots_name, (0..world).map(|_| None).collect()),
        })
    }
}

/// Factory for the per-rank [`Communicator`] handles of a group.
///
/// See the crate-level example for typical usage.
#[derive(Debug)]
pub struct ProcessGroup;

impl ProcessGroup {
    /// Creates `world` communicators that rendezvous with each other.
    /// Hand one to each worker thread.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[expect(
        clippy::new_ret_no_self,
        reason = "deliberately a factory: one handle per rank"
    )]
    pub fn new(world: usize) -> Vec<Communicator> {
        assert!(world > 0, "process group needs at least one rank");
        let shared = Shared::new(world, "collectives.main.slots", "collectives.main.barrier");
        // Nonblocking collectives rendezvous through a second, independent
        // shared state so an in-flight posted op can never cross-match a
        // blocking op issued concurrently on the main thread.
        let lane_shared = Shared::new(world, "collectives.lane.slots", "collectives.lane.barrier");
        (0..world)
            .map(|rank| Communicator {
                rank,
                shared: Arc::clone(&shared),
                stats: CommStats::default(),
                telemetry: TelemetrySink::disabled(),
                delay: None,
                lane: Some(Lane::spawn(rank, Arc::clone(&lane_shared))),
                wire: Vec::new(),
            })
            .collect()
    }
}

/// One rank's handle into the collective group.
///
/// Every collective is a synchronous rendezvous: *all* ranks must call the
/// same operation (enforced at runtime — a mismatch panics with the two
/// operation names). Calls block until every rank has arrived.
pub struct Communicator {
    pub(crate) rank: usize,
    shared: Arc<Shared>,
    pub(crate) stats: CommStats,
    pub(crate) telemetry: TelemetrySink,
    delay: Option<CommDelay>,
    pub(crate) lane: Option<Lane>,
    /// 16-bit wire buffers of the last quantized AlltoAll, one per
    /// destination, recycled by the next one once no peer holds them.
    wire: Vec<Arc<Vec<u16>>>,
}

impl Communicator {
    /// A communicator over `shared` with no comm lane of its own — the
    /// endpoint a [`Lane`] thread drives on behalf of its owning rank.
    pub(crate) fn lane_endpoint(rank: usize, shared: Arc<Shared>) -> Self {
        Communicator {
            rank,
            shared,
            stats: CommStats::default(),
            telemetry: TelemetrySink::disabled(),
            delay: None,
            lane: None,
            wire: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("world", &self.shared.world)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Communicator {
    /// This rank's id in `0..world`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    #[inline]
    pub fn world(&self) -> usize {
        self.shared.world
    }

    /// Traffic counters for this rank.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Attach a telemetry sink: every collective then also feeds
    /// `comm.<op>.bytes` / `comm.<op>.calls` counters and a
    /// `comm.<op>.ns` latency histogram (which includes rendezvous wait,
    /// i.e. the *exposed* cost of the collective on this rank).
    /// Nonblocking collectives additionally record their exchange span on
    /// the rank's comm lane (lane 1) and a `comm.<op>.wait_ns` histogram
    /// at [`crate::CommHandle::wait`].
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink.clone();
        if let Some(lane) = &self.lane {
            lane.set_telemetry(sink);
        }
    }

    /// Attach (or with `None` detach) an opt-in latency injector: every
    /// collective then sleeps the modeled wire time of its payload before
    /// the rendezvous, on whichever thread runs the exchange — the caller
    /// for blocking collectives, the comm lane for posted ones. Off by
    /// default; when off this costs nothing (no clock reads, no sleeps)
    /// and injected delay never changes exchanged values.
    pub fn set_comm_delay(&mut self, delay: Option<CommDelay>) {
        self.delay = delay;
        if let Some(lane) = &self.lane {
            lane.set_comm_delay(delay);
        }
    }

    /// Account payload bytes to [`CommStats`] and, when armed, to the
    /// per-op telemetry counter; then inject the modeled wire latency for
    /// the payload if a [`CommDelay`] is attached.
    fn note_bytes(&mut self, op: &'static str, bytes: u64) {
        self.stats.bytes_sent += bytes;
        self.telemetry.counter_add(Metric::CommBytes(op), bytes);
        if let Some(d) = &self.delay {
            d.inject(bytes);
        }
    }

    /// Blocks until every rank reaches the barrier.
    pub fn barrier(&mut self) {
        self.stats.ops += 1;
        self.shared.barrier.wait();
    }

    /// Averages `buf` across ranks: [`Communicator::all_reduce_shared`]'s
    /// rank-ordered sum, scaled by `1/world`.
    ///
    /// # Errors
    ///
    /// Propagates any [`CollectiveError`] from the underlying AllReduce.
    pub fn all_reduce_mean(&mut self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        let sum = self.all_reduce_shared(Arc::new(buf.to_vec()))?;
        let inv = 1.0 / self.world() as f32;
        for (v, s) in buf.iter_mut().zip(sum.iter()) {
            *v = s * inv;
        }
        Ok(())
    }

    /// Splits each rank's `input` (length `world * chunk`) into `world`
    /// chunks, sums chunk `r` across ranks and returns it to rank `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type or a slot was empty at read time.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` is not divisible by `world`.
    pub fn reduce_scatter(&mut self, input: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        let world = self.world();
        assert_eq!(
            input.len() % world,
            0,
            "reduce_scatter length not divisible by world"
        );
        let chunk = input.len() / world;
        let my = self.rank;
        self.note_bytes("reduce_scatter", (input.len() * 4) as u64);
        self.exchange("reduce_scatter", input.to_vec(), |slots| {
            let mut acc = vec![0.0f32; chunk];
            for slot in slots {
                let contrib = payload_ref::<Vec<f32>>(slot, "reduce_scatter")?;
                assert_eq!(
                    contrib.len(),
                    chunk * world,
                    "reduce_scatter length mismatch"
                );
                for (a, b) in acc.iter_mut().zip(&contrib[my * chunk..(my + 1) * chunk]) {
                    *a += b;
                }
            }
            Ok(acc)
        })
    }

    /// Concatenates every rank's `input` in rank order; all ranks get the
    /// full result.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type or a slot was empty at read time.
    pub fn all_gather(&mut self, input: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        self.note_bytes("all_gather", (input.len() * 4) as u64);
        self.exchange("all_gather", input.to_vec(), |slots| {
            let mut out = Vec::new();
            for slot in slots {
                out.extend_from_slice(payload_ref::<Vec<f32>>(slot, "all_gather")?);
            }
            Ok(out)
        })
    }

    /// Personalized exchange: `sends[j]` goes to rank `j`; returns `recvs`
    /// where `recvs[i]` came from rank `i`. This is the collective on the
    /// critical path of DLRM training (index and pooled-embedding
    /// exchange, §3).
    ///
    /// Zero-copy: the send lists are handed over as [`Arc`]s, so the
    /// deposit moves `world` pointers instead of copying buffers, and
    /// `recvs[i]` aliases what rank `i` sent — a receiver that needs to
    /// mutate takes the copy-on-write branch via [`Arc::make_mut`], which
    /// clones only while the buffer is still shared.
    ///
    /// Accounting is of the *logical* payload size (summed element bytes,
    /// not pointer bytes): that is what feeds [`CommStats::bytes_sent`]
    /// and the `comm.all_to_all_v.bytes` counter, so telemetry reports
    /// what a real wire would carry.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type or a slot was empty at read time.
    ///
    /// # Panics
    ///
    /// Panics if `sends.len() != world` or ranks disagree on the operation.
    pub fn all_to_all_shared<T: Send + Sync + 'static>(
        &mut self,
        sends: Vec<Arc<Vec<T>>>,
    ) -> Result<Vec<Arc<Vec<T>>>, CollectiveError> {
        assert_eq!(
            sends.len(),
            self.world(),
            "all_to_all_shared needs world send lists"
        );
        let total: usize = sends.iter().map(|v| v.len()).sum();
        self.note_bytes("all_to_all_v", (total * std::mem::size_of::<T>()) as u64);
        let my = self.rank;
        self.exchange("all_to_all_v", sends, |slots| {
            let mut out = Vec::with_capacity(slots.len());
            for slot in slots {
                let matrix = payload_ref::<Vec<Arc<Vec<T>>>>(slot, "all_to_all_v")?;
                out.push(Arc::clone(&matrix[my]));
            }
            Ok(out)
        })
    }

    /// Quantized f32 AlltoAllv (§5.3.2): [`QuantMode::Fp32`] short-circuits
    /// to [`Communicator::all_to_all_shared`] (no wire conversion, no
    /// copies at all); the 16-bit modes encode into wire buffers whose
    /// *pointers* are exchanged, then decode at the receiver, exercising
    /// real precision loss and halving [`CommStats::bytes_sent`].
    ///
    /// Neither side allocates in the steady state. The wire buffers are
    /// this communicator's, reused once [`Arc::get_mut`] shows no peer
    /// still holds the last call's. Each received buffer is decoded into
    /// the consumed `sends` buffer at the same index, recovered with
    /// [`Arc::try_unwrap`] and resized. Whenever either buffer is still
    /// shared, a fresh one takes its place, so a caller that kept a clone
    /// of its sends never sees it written.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type, a slot was empty, or the wire conversion fails.
    ///
    /// # Panics
    ///
    /// Panics if `sends.len() != world`.
    pub fn all_to_all_shared_quant(
        &mut self,
        sends: Vec<Arc<Vec<f32>>>,
        mode: QuantMode,
    ) -> Result<Vec<Arc<Vec<f32>>>, CollectiveError> {
        if mode == QuantMode::Fp32 {
            return self.all_to_all_shared(sends);
        }
        assert_eq!(
            sends.len(),
            self.world(),
            "all_to_all_shared_quant needs world send lists"
        );
        self.wire.resize_with(sends.len(), Arc::default);
        let mut wire = Vec::with_capacity(sends.len());
        for (slot, src) in self.wire.iter_mut().zip(&sends) {
            if Arc::get_mut(slot).is_none() {
                *slot = Arc::default(); // a peer still reads the last one
            }
            let buf = Arc::make_mut(slot); // unique: never clones
            buf.resize(src.len(), 0);
            mode.encode_into(src, buf)?;
            wire.push(Arc::clone(slot));
        }
        let recv = self.all_to_all_shared(wire)?;
        recv.iter()
            .zip(sends)
            .map(|(bits, send)| {
                let mut out = Arc::try_unwrap(send).unwrap_or_default();
                out.resize(bits.len(), 0.0);
                mode.decode_into(bits, &mut out)?;
                Ok(Arc::new(out))
            })
            .collect()
    }

    /// Sums `input` element-wise across all ranks; every rank ends with
    /// the total. Ranks exchange [`Arc`] pointers to their contributions
    /// (the deposit moves one pointer, not the buffer) and each rank
    /// materializes the sum by accumulating every contribution in rank
    /// order from a zero accumulator, so the result is bit-wise
    /// deterministic, element-wise (reducing a buffer whole or in
    /// disjoint pieces gives the same bits), and the same expression
    /// [`Communicator::reduce_scatter`] evaluates per chunk.
    ///
    /// The accumulator itself takes the copy-on-write branch only when
    /// the reference count demands it: at `world == 1` with no retained
    /// sender clone, [`Arc::make_mut`] recycles the caller's buffer in
    /// place; any sharing forces the single clone it requires.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type or a slot was empty at read time.
    ///
    /// # Panics
    ///
    /// Panics if ranks disagree on the operation or buffer length.
    pub fn all_reduce_shared(
        &mut self,
        input: Arc<Vec<f32>>,
    ) -> Result<Arc<Vec<f32>>, CollectiveError> {
        let n = input.len();
        self.note_bytes("all_reduce", (n * 4) as u64);
        let contribs = self.exchange("all_reduce", input, |slots| {
            let mut out = Vec::with_capacity(slots.len());
            for slot in slots {
                let contrib = payload_ref::<Arc<Vec<f32>>>(slot, "all_reduce")?;
                assert_eq!(contrib.len(), n, "all_reduce length mismatch");
                out.push(Arc::clone(contrib));
            }
            Ok(out)
        })?;
        let mut contribs = contribs.into_iter();
        let Some(first) = contribs.next() else {
            return Err(CollectiveError::MissingDeposit { op: "all_reduce" });
        };
        let mut acc_arc = first;
        let acc = Arc::make_mut(&mut acc_arc);
        // `x + 0.0` is bitwise-equal to `0.0 + x` for every f32, so this
        // pass turns the recycled rank-0 buffer into exactly a
        // zero-initialized accumulator after its first addition —
        // including the negative-zero lanes it normalizes to +0.0.
        for a in acc.iter_mut() {
            *a += 0.0;
        }
        for contrib in contribs {
            for (a, b) in acc.iter_mut().zip(contrib.iter()) {
                *a += b;
            }
        }
        Ok(acc_arc)
    }

    /// Core rendezvous: deposit a payload, wait for everyone, compute this
    /// rank's result from all deposits, wait again, and let the leader
    /// clear the slots. A failed read still walks every barrier so the
    /// other ranks are never left deadlocked by this rank's early error.
    fn exchange<P: Send + 'static, R>(
        &mut self,
        op: &'static str,
        payload: P,
        read: impl FnOnce(&[Option<Deposit>]) -> Result<R, CollectiveError>,
    ) -> Result<R, CollectiveError> {
        self.stats.ops += 1;
        // None when disabled: the hot path makes no clock syscall.
        let t0 = self.telemetry.now_ns();
        {
            let mut slots = self.shared.slots.lock();
            debug_assert!(
                slots[self.rank].is_none(),
                "rank {} double deposit",
                self.rank
            );
            slots[self.rank] = Some(Deposit {
                op,
                payload: Box::new(payload),
            });
        }
        self.shared.barrier.wait(); // lint: allow(comm_lane_blocking) — rendezvous barrier is the collective itself; the lane exists to overlap it with compute, not to remove it
        let result = {
            let slots = self.shared.slots.lock();
            let mut verified = Ok(());
            for (r, slot) in slots.iter().enumerate() {
                let Some(d) = slot.as_ref() else {
                    verified = Err(CollectiveError::MissingDeposit { op });
                    break;
                };
                assert_eq!(
                    d.op, op,
                    "collective mismatch: rank {} called {} while rank {r} called {}",
                    self.rank, op, d.op
                );
            }
            verified.and_then(|()| read(&slots))
        };
        let leader = self.shared.barrier.wait(); // lint: allow(comm_lane_blocking) — second rendezvous: every rank must deposit before any rank reads
        if leader.is_leader() {
            let mut slots = self.shared.slots.lock();
            for slot in slots.iter_mut() {
                *slot = None;
            }
        }
        self.shared.barrier.wait(); // lint: allow(comm_lane_blocking) — final rendezvous: slots must be cleared before the next collective reuses them
        if let (Some(t0), Some(t1)) = (t0, self.telemetry.now_ns()) {
            self.telemetry.counter_add(Metric::CommCalls(op), 1);
            self.telemetry
                .histogram_observe(Metric::CommNs(op), t1.saturating_sub(t0));
        }
        result
    }
}

fn payload_ref<'a, T: 'static>(
    slot: &'a Option<Deposit>,
    op: &'static str,
) -> Result<&'a T, CollectiveError> {
    let deposit = slot
        .as_ref()
        .ok_or(CollectiveError::MissingDeposit { op })?;
    deposit
        .payload
        .downcast_ref::<T>()
        .ok_or(CollectiveError::PayloadTypeMismatch { op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Runs `f(rank, comm)` on `world` threads and collects the results in
    /// rank order.
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

    /// Arc-wraps per-destination send lists for the zero-copy exchange.
    fn arcs<T>(sends: Vec<Vec<T>>) -> Vec<Arc<Vec<T>>> {
        sends.into_iter().map(Arc::new).collect()
    }

    /// Unwraps received buffers back to plain vectors for comparison.
    fn plain<T: Clone>(recv: Vec<Arc<Vec<T>>>) -> Vec<Vec<T>> {
        recv.iter().map(|v| v.as_ref().clone()).collect()
    }

    #[test]
    fn all_reduce_sums() {
        let out = run(4, |rank, c| {
            c.all_reduce_shared(Arc::new(vec![rank as f32, 1.0]))
                .unwrap()
        });
        for v in out {
            assert_eq!(*v, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn all_reduce_mean_averages() {
        let out = run(4, |rank, c| {
            let mut v = vec![rank as f32];
            c.all_reduce_mean(&mut v).unwrap();
            v[0]
        });
        for v in out {
            assert_eq!(v, 1.5);
        }
    }

    #[test]
    fn reduce_scatter_matches_manual() {
        let out = run(2, |rank, c| {
            // rank r contributes [r, r, r+10, r+10]
            let input = vec![
                rank as f32,
                rank as f32,
                rank as f32 + 10.0,
                rank as f32 + 10.0,
            ];
            c.reduce_scatter(&input).unwrap()
        });
        assert_eq!(out[0], vec![1.0, 1.0]); // 0+1
        assert_eq!(out[1], vec![21.0, 21.0]); // 10+11
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let out = run(3, |rank, c| c.all_gather(&[rank as f32 * 2.0]).unwrap());
        for v in out {
            assert_eq!(v, vec![0.0, 2.0, 4.0]);
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        let out = run(4, |rank, c| {
            let input: Vec<f32> = (0..8).map(|i| (rank * 8 + i) as f32).collect();
            let ar = c.all_reduce_shared(Arc::new(input.clone())).unwrap();
            let rs = c.reduce_scatter(&input).unwrap();
            let ag = c.all_gather(&rs).unwrap();
            (ar, ag)
        });
        for (ar, ag) in out {
            assert_eq!(*ar, ag);
        }
    }

    #[test]
    fn all_to_all_routes_and_transposes() {
        let out = run(3, |rank, c| {
            // rank r sends vec![r*10 + j] to rank j
            let sends: Vec<Vec<u64>> = (0..3).map(|j| vec![(rank * 10 + j) as u64]).collect();
            c.all_to_all_shared(arcs(sends)).unwrap()
        });
        // rank j receives from rank i: i*10 + j
        for (j, recvs) in out.iter().enumerate() {
            for (i, msg) in recvs.iter().enumerate() {
                assert_eq!(**msg, vec![(i * 10 + j) as u64]);
            }
        }
    }

    #[test]
    fn all_to_all_with_ragged_sizes() {
        let out = run(2, |rank, c| {
            let sends: Vec<Vec<f32>> = if rank == 0 {
                vec![vec![], vec![1.0, 2.0, 3.0]]
            } else {
                vec![vec![9.0], vec![]]
            };
            plain(c.all_to_all_shared(arcs(sends)).unwrap())
        });
        assert_eq!(out[0], vec![vec![], vec![9.0]]);
        assert_eq!(out[1], vec![vec![1.0, 2.0, 3.0], vec![]]);
    }

    #[test]
    fn quantized_alltoall_halves_bytes_and_approximates() {
        let out = run(2, |_rank, c| {
            let payload: Vec<f32> = (0..256).map(|i| (i as f32) * 0.37 - 40.0).collect();
            let sends = arcs(vec![payload.clone(), payload.clone()]);
            let recv = c.all_to_all_shared_quant(sends, QuantMode::Fp16).unwrap();
            (recv, c.stats().bytes_sent, payload)
        });
        for (recv, bytes, original) in out {
            assert_eq!(bytes, 2 * 256 * 2, "fp16 wire format is 2 bytes/elem");
            for row in recv {
                for (got, want) in row.iter().zip(&original) {
                    assert!((got - want).abs() <= want.abs() * 1e-3 + 1e-3);
                }
            }
        }
    }

    #[test]
    fn fp32_mode_is_exact() {
        let out = run(2, |rank, c| {
            let sends = arcs(vec![vec![0.1f32, 0.2], vec![rank as f32 + 0.5]]);
            plain(c.all_to_all_shared_quant(sends, QuantMode::Fp32).unwrap())
        });
        // rank 0 receives sends[0] from both ranks; rank 1 receives sends[1]
        assert_eq!(out[0], vec![vec![0.1, 0.2], vec![0.1, 0.2]]);
        assert_eq!(out[1], vec![vec![0.5], vec![1.5]]);
    }

    #[test]
    fn repeated_collectives_reuse_slots() {
        let out = run(3, |rank, c| {
            let mut acc = 0.0;
            for step in 0..10 {
                let v = c
                    .all_reduce_shared(Arc::new(vec![(rank + step) as f32]))
                    .unwrap();
                acc += v[0];
            }
            acc
        });
        // sum over steps of (0+1+2 + 3*step) = 3 + 3*step
        let want: f32 = (0..10).map(|s| 3.0 + 3.0 * s as f32).sum();
        for v in out {
            assert_eq!(v, want);
        }
    }

    #[test]
    fn stats_count_ops() {
        let out = run(2, |_r, c| {
            c.barrier();
            c.all_reduce_shared(Arc::new(vec![1.0f32; 8])).unwrap();
            c.stats()
        });
        for s in out {
            assert_eq!(s.ops, 2);
            assert_eq!(s.bytes_sent, 32);
        }
    }

    #[test]
    fn world_one_is_trivial() {
        let out = run(1, |_r, c| {
            let v = c.all_reduce_shared(Arc::new(vec![5.0f32])).unwrap();
            let ag = c.all_gather(&[7.0]).unwrap();
            (v[0], ag)
        });
        assert_eq!(out[0], (5.0, vec![7.0]));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_group_rejected() {
        ProcessGroup::new(0);
    }

    #[test]
    fn determinism_across_runs() {
        // identical inputs produce bit-identical outputs regardless of
        // thread scheduling, because accumulation is in rank order
        let run_once = || {
            run(4, |rank, c| {
                let v: Vec<f32> = (0..64)
                    .map(|i| ((rank * 64 + i) as f32 * 0.1).sin() * 1e-3)
                    .collect();
                c.all_reduce_shared(Arc::new(v)).unwrap()
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }
}
