//! The process group and its collectives, each a post and a wait on the
//! group's [`Ring`].

use std::sync::Arc;

use neo_sync::chaos;
use neo_telemetry::{Metric, RankRecorder, TelemetrySink};

use crate::delay::CommDelay;
use crate::nonblocking::CommHandle;
use crate::quant::{QuantError, QuantMode};
use crate::ring::{Deposit, Ring};

/// The collectives of the paper's §5.3, one variant per kind of
/// rendezvous on the group's ring. All ranks must issue the same `Op` at
/// the same epoch; the ring panics on a mismatch, naming both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Personalized exchange, plain or quantized
    /// ([`Communicator::all_to_all_shared`]).
    AllToAll,
    /// Rank-ordered element-wise sum ([`Communicator::all_reduce_shared`]).
    AllReduce,
    /// Chunk-wise sum ([`Communicator::reduce_scatter`]).
    ReduceScatter,
    /// Rank-ordered concatenation ([`Communicator::all_gather`]).
    AllGather,
    /// Payload-free rendezvous ([`Communicator::barrier`]).
    Barrier,
}

impl Op {
    /// Every op, each once.
    pub const ALL: [Op; 5] = [
        Op::AllToAll,
        Op::AllReduce,
        Op::ReduceScatter,
        Op::AllGather,
        Op::Barrier,
    ];

    /// The op's name in the `comm.<op>.*` telemetry keys and in error and
    /// mismatch messages.
    pub const fn name(self) -> &'static str {
        match self {
            Op::AllToAll => "all_to_all_v",
            Op::AllReduce => "all_reduce",
            Op::ReduceScatter => "reduce_scatter",
            Op::AllGather => "all_gather",
            Op::Barrier => "barrier",
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from a collective operation.
///
/// These are contract violations between ranks (a missing deposit or a
/// payload of the wrong type) or a quantization misuse, surfaced as typed
/// errors so trainers can shut a job down cleanly instead of unwinding
/// through a panic on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// A rank's deposit was missing when results were read.
    MissingDeposit {
        /// The collective being executed.
        op: Op,
    },
    /// A rank deposited a payload of a different type than expected.
    PayloadTypeMismatch {
        /// The collective being executed.
        op: Op,
    },
    /// A quantized collective was asked for an impossible wire conversion.
    Quant(QuantError),
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

/// One rank's end of the group, shared by its [`Communicator`] and every
/// [`CommHandle`] it has posted.
pub(crate) struct Endpoint {
    pub(crate) rank: usize,
    pub(crate) ring: Arc<Ring>,
    pub(crate) telemetry: TelemetrySink,
    /// A recorder on the rank's heartbeat slot, where a wait that has to
    /// park marks the exchange.
    pub(crate) beat: RankRecorder,
}

impl Endpoint {
    fn new(rank: usize, ring: Arc<Ring>, telemetry: TelemetrySink) -> Arc<Self> {
        let beat = telemetry.rank(rank as u32);
        Arc::new(Endpoint {
            rank,
            ring,
            telemetry,
            beat,
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
        let ring = Arc::new(Ring::new(world));
        (0..world)
            .map(|rank| Communicator {
                ep: Endpoint::new(rank, Arc::clone(&ring), TelemetrySink::disabled()),
                epoch: 0,
                stats: CommStats::default(),
                delay: None,
                wire: Vec::new(),
            })
            .collect()
    }
}

/// One rank's handle into the collective group.
///
/// Every collective is a post and a wait on the group's ring: *all* ranks
/// must issue the same collectives in the same order, posted or blocking
/// (enforced at runtime — a mismatch panics with the two operation
/// names). A blocking call is its own post followed at once by its wait.
pub struct Communicator {
    ep: Arc<Endpoint>,
    /// This rank's next collective; equal on every rank, since all issue
    /// the same sequence.
    epoch: u64,
    stats: CommStats,
    delay: Option<CommDelay>,
    /// 16-bit wire buffers of the last quantized AlltoAll, one per
    /// destination, recycled by the next one once no peer holds them.
    wire: Vec<Arc<Vec<u16>>>,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.ep.rank)
            .field("world", &self.world())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Communicator {
    /// This rank's id in `0..world`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.ep.rank
    }

    /// Number of ranks in the group.
    #[inline]
    pub fn world(&self) -> usize {
        self.ep.ring.world()
    }

    /// Traffic counters for this rank.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Attach a telemetry sink: every collective then also feeds
    /// `comm.<op>.bytes` / `comm.<op>.calls` counters and a
    /// `comm.<op>.ns` histogram from post to completed wait, and a wait
    /// that has to park marks an exchange on the rank's lane-0 heartbeat
    /// slot. A posted collective additionally records a
    /// `comm.<op>.wait_ns` histogram at [`CommHandle::wait`] and its
    /// in-flight span, post to completed wait, on lane
    /// [`COMM_LANE`](crate::COMM_LANE).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.ep = Endpoint::new(self.ep.rank, Arc::clone(&self.ep.ring), sink);
    }

    /// Attach (or with `None` detach) an opt-in latency injector: every
    /// collective then completes no earlier than the modelled wire time
    /// of its payload after its post. A blocking collective pays it in
    /// full; a posted one only for what is left when it is waited on.
    /// Off by default; when off this costs nothing (no clock reads, no
    /// sleeps) and injected delay never changes exchanged values.
    pub fn set_comm_delay(&mut self, delay: Option<CommDelay>) {
        self.delay = delay;
    }

    /// Blocks until every rank reaches the barrier.
    pub fn barrier(&mut self) {
        self.post(Op::Barrier, 0, (), |_| Ok(())).wait().ok();
    }

    /// Splits each rank's `input` (length `world * chunk`) into `world`
    /// chunks, sums chunk `r` across ranks and returns it to rank `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type.
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
        let my = self.rank();
        self.post(
            Op::ReduceScatter,
            input.len() * 4,
            input.to_vec(),
            move |deposits| {
                let mut acc = vec![0.0f32; chunk];
                for d in &deposits {
                    let contrib = payload_ref::<Vec<f32>>(d, Op::ReduceScatter)?;
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
            },
        )
        .wait()
    }

    /// Concatenates every rank's `input` in rank order; all ranks get the
    /// full result.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError`] if a rank deposited a payload of the
    /// wrong type.
    pub fn all_gather(&mut self, input: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        self.post(Op::AllGather, input.len() * 4, input.to_vec(), |deposits| {
            let mut out = Vec::new();
            for d in &deposits {
                out.extend_from_slice(payload_ref::<Vec<f32>>(d, Op::AllGather)?);
            }
            Ok(out)
        })
        .wait()
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
    /// wrong type.
    ///
    /// # Panics
    ///
    /// Panics if `sends.len() != world` or ranks disagree on the operation.
    pub fn all_to_all_shared<T: Send + Sync + 'static>(
        &mut self,
        sends: Vec<Arc<Vec<T>>>,
    ) -> Result<Vec<Arc<Vec<T>>>, CollectiveError> {
        self.start_all_to_all(sends, std::mem::size_of::<T>(), Ok)
            .wait()
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
    /// wrong type or the wire conversion fails.
    ///
    /// # Panics
    ///
    /// Panics if `sends.len() != world`.
    pub fn all_to_all_shared_quant(
        &mut self,
        sends: Vec<Arc<Vec<f32>>>,
        mode: QuantMode,
    ) -> Result<Vec<Arc<Vec<f32>>>, CollectiveError> {
        self.start_all_to_all_quant(sends, mode).wait()
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
    /// wrong type.
    ///
    /// # Panics
    ///
    /// Panics if ranks disagree on the operation or buffer length.
    pub fn all_reduce_shared(
        &mut self,
        input: Arc<Vec<f32>>,
    ) -> Result<Arc<Vec<f32>>, CollectiveError> {
        self.start_all_reduce(input).wait()
    }

    /// The one post every collective goes through: account `bytes` of
    /// logical payload, stamp the wire deadline, deposit `payload` into
    /// this rank's next ring entry and arrive without waiting. `read`
    /// turns every rank's deposit into this rank's result at wait.
    fn post<P: Send + Sync + 'static, R>(
        &mut self,
        op: Op,
        bytes: usize,
        payload: P,
        read: impl FnOnce(Vec<Deposit>) -> Result<R, CollectiveError> + Send + 'static,
    ) -> CommHandle<R> {
        chaos::yield_point(chaos::site::POST);
        let bytes = bytes as u64;
        self.stats.ops += 1;
        self.stats.bytes_sent += bytes;
        let ep = Arc::clone(&self.ep);
        ep.telemetry
            .counter_add(Metric::CommBytes(op.name()), bytes);
        let epoch = self.epoch;
        self.epoch += 1;
        let handle = CommHandle {
            posted_ns: ep.telemetry.now_ns(),
            ready_at: self.delay.map(|d| d.deadline(bytes)),
            ep,
            epoch,
            op,
            track: None,
            read: Box::new(read),
        };
        // a stalled poster is parked here, posted but not yet arrived
        chaos::stall_point(self.rank() as u64);
        chaos::yield_point(chaos::site::ARRIVE);
        handle
            .ep
            .ring
            .arrive(epoch, self.rank(), op, Arc::new(payload));
        handle
    }

    /// Posts the pointer exchange of `sends` (`elem` bytes per element on
    /// the wire); `then` finishes the received row at wait.
    pub(crate) fn start_all_to_all<T: Send + Sync + 'static, R: 'static>(
        &mut self,
        sends: Vec<Arc<Vec<T>>>,
        elem: usize,
        then: impl FnOnce(Vec<Arc<Vec<T>>>) -> Result<R, CollectiveError> + Send + 'static,
    ) -> CommHandle<R> {
        assert_eq!(
            sends.len(),
            self.world(),
            "all_to_all_shared needs world send lists"
        );
        let bytes = sends.iter().map(|v| v.len()).sum::<usize>() * elem;
        let my = self.rank();
        self.post(Op::AllToAll, bytes, sends, move |deposits| {
            let mut recv = Vec::with_capacity(deposits.len());
            for d in &deposits {
                let matrix = payload_ref::<Vec<Arc<Vec<T>>>>(d, Op::AllToAll)?;
                recv.push(Arc::clone(&matrix[my]));
            }
            drop(deposits);
            then(recv)
        })
    }

    /// Posts [`Communicator::all_to_all_shared_quant`]: the encode runs
    /// here, on the caller, and the decode at wait.
    pub(crate) fn start_all_to_all_quant(
        &mut self,
        sends: Vec<Arc<Vec<f32>>>,
        mode: QuantMode,
    ) -> CommHandle<Vec<Arc<Vec<f32>>>> {
        if mode == QuantMode::Fp32 {
            return self.start_all_to_all(sends, mode.wire_bytes(), Ok);
        }
        assert_eq!(
            sends.len(),
            self.world(),
            "all_to_all_shared_quant needs world send lists"
        );
        self.wire.resize_with(sends.len(), Arc::default);
        let mut wire = Vec::with_capacity(sends.len());
        let mut encoded = Ok(());
        for (slot, src) in self.wire.iter_mut().zip(&sends) {
            if Arc::get_mut(slot).is_none() {
                *slot = Arc::default(); // a peer still reads the last one
            }
            let buf = Arc::make_mut(slot); // unique: never clones
            buf.resize(src.len(), 0);
            encoded = encoded.and(mode.encode_into(src, buf));
            wire.push(Arc::clone(slot));
        }
        // a failed encode still posts, so no peer is left parked
        self.start_all_to_all(wire, mode.wire_bytes(), move |recv| {
            encoded?;
            recv.iter()
                .zip(sends)
                .map(|(bits, send)| {
                    let mut out = Arc::try_unwrap(send).unwrap_or_default();
                    out.resize(bits.len(), 0.0);
                    mode.decode_into(bits, &mut out)?;
                    Ok(Arc::new(out))
                })
                .collect()
        })
    }

    /// Posts [`Communicator::all_reduce_shared`].
    pub(crate) fn start_all_reduce(&mut self, input: Arc<Vec<f32>>) -> CommHandle<Arc<Vec<f32>>> {
        let n = input.len();
        self.post(Op::AllReduce, n * 4, input, move |deposits| {
            let mut contribs = Vec::with_capacity(deposits.len());
            for d in &deposits {
                let contrib = payload_ref::<Arc<Vec<f32>>>(d, Op::AllReduce)?;
                assert_eq!(contrib.len(), n, "all_reduce length mismatch");
                contribs.push(Arc::clone(contrib));
            }
            // the deposits go first, so an unshared contribution (world 1)
            // is recycled in place below
            drop(deposits);
            let mut contribs = contribs.into_iter();
            let Some(mut acc_arc) = contribs.next() else {
                return Err(CollectiveError::MissingDeposit { op: Op::AllReduce });
            };
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
        })
    }
}

fn payload_ref<T: 'static>(d: &Deposit, op: Op) -> Result<&T, CollectiveError> {
    d.downcast_ref::<T>()
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
    fn mismatched_collectives_panic_on_every_rank() {
        // the same payload type, so only the op-name check can tell
        let handles: Vec<_> = ProcessGroup::new(2)
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    if c.rank() == 0 {
                        c.all_gather(&[1.0]).ok();
                    } else {
                        c.reduce_scatter(&[1.0, 2.0]).ok();
                    }
                })
            })
            .collect();
        for h in handles {
            let payload = h.join().expect_err("a mismatch must panic every rank");
            let msg = payload
                .downcast::<String>()
                .map_or_else(|_| String::new(), |s| *s);
            assert!(msg.contains("collective mismatch"), "{msg}");
        }
    }

    #[test]
    fn op_all_lists_each_variant_once_with_distinct_names() {
        // no wildcard: a new variant fails to compile until it has a slot
        let slot = |op: Op| match op {
            Op::AllToAll => 0,
            Op::AllReduce => 1,
            Op::ReduceScatter => 2,
            Op::AllGather => 3,
            Op::Barrier => 4,
        };
        let mut seen = [false; Op::ALL.len()];
        for op in Op::ALL {
            assert!(!std::mem::replace(&mut seen[slot(op)], true), "{op} twice");
        }
        assert!(seen.iter().all(|&s| s), "Op::ALL misses a variant");
        let names: std::collections::BTreeSet<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(names.len(), Op::ALL.len(), "Op names collide");
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
