//! Property tests for the collective algebra.
//!
//! Every `pub fn` of the [`neo_collectives::Communicator`] /
//! [`ProcessGroup`] surface is exercised here — `neo-xtask lint`
//! (rule `props_cover`) enforces that this stays true as the API grows.

use neo_collectives::{CommDelay, ProcessGroup, QuantMode};
use neo_telemetry::{Metric, TelemetrySink};
use neo_tensor::{Bf16, F16};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

fn run_group<R: Send + 'static>(
    world: usize,
    f: impl Fn(usize, &mut neo_collectives::Communicator) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let f = Arc::new(f);
    ProcessGroup::new(world)
        .into_iter()
        .map(|mut c| {
            let f = Arc::clone(&f);
            thread::spawn(move || f(c.rank(), &mut c))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("worker"))
        .collect()
}

/// Rank `rank`'s deterministic pseudo-random input of length `n`.
fn input(seed: u64, rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((seed + rank as u64 * 29 + i as u64 * 3) % 19) as f32) * 0.125 - 1.0)
        .collect()
}

/// Test-local AllReduce oracle: per element, a zero accumulator with every
/// rank's contribution added in rank order.
fn oracle_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    (0..inputs[0].len())
        .map(|i| inputs.iter().fold(0.0f32, |acc, v| acc + v[i]))
        .collect()
}

fn arcs<T>(sends: Vec<Vec<T>>) -> Vec<Arc<Vec<T>>> {
    sends.into_iter().map(Arc::new).collect()
}

fn plain<T: Clone>(recv: &[Arc<Vec<T>>]) -> Vec<Vec<T>> {
    recv.iter().map(|v| v.as_ref().clone()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What rank `src` addresses to rank `dest` on call `call`: `n` values,
/// alternately arbitrary bit patterns (NaN, inf, subnormals, overflow)
/// and moderate values that round on the wire.
fn wire_payload(seed: u64, call: usize, src: usize, dest: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (seed ^ (call * 131 + src * 17 + dest * 5 + i * 1009) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if i % 2 == 0 {
                f32::from_bits((h >> 32) as u32)
            } else {
                (h >> 44) as f32 * 0.0137 - 137.0
            }
        })
        .collect()
}

/// The element-wise wire round trip, `decode(encode(x))`.
fn round_trip(mode: QuantMode, v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|&x| match mode {
            QuantMode::Fp16 => F16::from_f32(x).to_f32().to_bits(),
            QuantMode::Bf16 => Bf16::from_f32(x).to_f32().to_bits(),
            QuantMode::Fp32 => x.to_bits(),
        })
        .collect()
}

proptest! {
    // thread-spawning cases are expensive; keep the count tight
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// AlltoAll is a matrix transpose (rank `j` receives from rank `i`
    /// exactly what `i` addressed to `j`, ragged sizes included), so
    /// applied twice (send back what you received) it restores every
    /// rank's original sends.
    #[test]
    fn alltoall_transposes_and_is_self_inverse(
        world in 1usize..5,
        payload_len in 0usize..6,
    ) {
        // src -> dest payload; its length varies per pair (ragged)
        let msg = move |src: usize, dest: usize| -> Vec<u64> {
            (0..(payload_len + src + dest) % 6)
                .map(|k| (src * 1000 + dest * 10 + k) as u64)
                .collect()
        };
        let out = run_group(world, move |rank, comm| {
            let sends = arcs((0..world).map(|dest| msg(rank, dest)).collect());
            let recv = comm.all_to_all_shared(sends.clone()).expect("alltoall");
            let back = comm.all_to_all_shared(recv.clone()).expect("alltoall back");
            (sends, recv, back)
        });
        for (rank, (sends, recv, back)) in out.into_iter().enumerate() {
            let want: Vec<Vec<u64>> = (0..world).map(|src| msg(src, rank)).collect();
            prop_assert_eq!(plain(&recv), want);
            prop_assert_eq!(sends, back);
        }
    }

    /// AllReduce equals the rank-ordered scalar sum bit for bit, and
    /// ReduceScatter then AllGather equals AllReduce, for arbitrary
    /// inputs.
    #[test]
    fn allreduce_is_rank_ordered_sum_and_rs_ag_agrees(
        world in 1usize..5,
        chunk in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n = world * chunk;
        let out = run_group(world, move |rank, comm| {
            let input = input(seed, rank, n);
            let ar = comm.all_reduce_shared(Arc::new(input.clone())).expect("all_reduce_shared");
            let rs = comm.reduce_scatter(&input).expect("reduce_scatter");
            let ag = comm.all_gather(&rs).expect("all_gather");
            (ar, ag)
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|rank| input(seed, rank, n)).collect();
        let want = oracle_sum(&inputs);
        for (ar, ag) in out {
            prop_assert_eq!(ar.as_ref(), &want);
            prop_assert_eq!(ag, want.clone());
        }
    }

    /// AllReduce-mean equals the rank-ordered sum scaled by `1/world`.
    #[test]
    fn mean_agrees_with_scalar_math(
        world in 1usize..5,
        n in 1usize..5,
        seed in 0u64..1000,
    ) {
        let out = run_group(world, move |rank, comm| {
            let mut mean = input(seed, rank, n);
            comm.all_reduce_mean(&mut mean).expect("all_reduce_mean");
            mean
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|rank| input(seed, rank, n)).collect();
        // the collective scales by 1/world; mirror that exactly
        // (f32 `* (1/w)` and `/ w` round differently)
        let want: Vec<f32> = oracle_sum(&inputs)
            .iter()
            .map(|s| s * (1.0 / world as f32))
            .collect();
        for mean in out {
            prop_assert_eq!(mean, want.clone());
        }
    }

    /// Quantized AlltoAll preserves values representable in the wire format
    /// exactly, for both 16-bit modes.
    #[test]
    fn quantized_alltoall_exact_on_representable(
        world in 1usize..4,
        // half-integers up to 127.5 use <= 8 significant bits: exact in
        // both FP16 (11-bit significand) and BF16 (8-bit significand)
        ints in proptest::collection::vec(-255i32..256, 1..5),
        bf16 in any::<bool>(),
    ) {
        let mode = if bf16 { QuantMode::Bf16 } else { QuantMode::Fp16 };
        let payload: Vec<f32> = ints.iter().map(|&i| i as f32 * 0.5).collect();
        let expect = payload.clone();
        let out = run_group(world, move |_rank, comm| {
            let sends = arcs(vec![payload.clone(); world]);
            comm.all_to_all_shared_quant(sends, mode).expect("quantized alltoall")
        });
        for recvs in out {
            for r in recvs {
                prop_assert_eq!(r.as_ref(), &expect);
            }
        }
    }

    /// The quantized AlltoAll recycles its wire and decode buffers from
    /// call to call without changing a bit. Over 3–5 calls whose per-pair
    /// lengths grow, shrink and hit zero, every received buffer is the
    /// element-wise `decode(encode(x))`; a rank that kept a clone of its
    /// sends finds it unchanged; and a rank that did not gets each answer
    /// back in its own send allocation wherever that one was long enough.
    /// Covers world 1–3 × both 16-bit modes × blocking and posted.
    #[test]
    fn quantized_alltoall_recycles_buffers_bitwise(
        calls in 3usize..6,
        lens in collection::vec(0usize..40, 45),
        keep in collection::vec(any::<bool>(), 5),
        seed in 0u64..1000,
    ) {
        let pair_len = move |call: usize, src: usize, dest: usize| lens[(call * 3 + src) * 3 + dest];
        for (world, mode, posted) in (1..=3).flat_map(|w| {
            [QuantMode::Fp16, QuantMode::Bf16]
                .into_iter()
                .flat_map(move |m| [(w, m, false), (w, m, true)])
        }) {
            let (keep, len_of) = (keep.clone(), pair_len.clone());
            let out = run_group(world, move |rank, comm| {
                let mut log = Vec::new();
                for (call, &keep) in keep.iter().enumerate().take(calls) {
                    let sends: Vec<Arc<Vec<f32>>> = (0..world)
                        .map(|dest| {
                            let n = len_of(call, rank, dest);
                            Arc::new(wire_payload(seed, call, rank, dest, n))
                        })
                        .collect();
                    let kept = (keep != (rank % 2 == 1))
                        .then(|| (sends.clone(), sends.iter().map(|v| bits(v)).collect::<Vec<_>>()));
                    let spans: Vec<(usize, usize)> =
                        sends.iter().map(|v| (v.as_ptr() as usize, v.len())).collect();
                    let recv = if posted {
                        comm.post_all_to_all_shared_quant(sends, mode, "alltoall_fwd", call as u64)
                            .wait()
                    } else {
                        comm.all_to_all_shared_quant(sends, mode)
                    };
                    // an error is logged, not raised: every rank must keep
                    // calling, or its peers park in the rendezvous
                    log.push(recv.map(|recv| {
                        let untouched = kept.as_ref().is_none_or(|(held, golden)| {
                            held.iter().map(|v| bits(v)).eq(golden.iter().cloned())
                        });
                        let in_place = kept.is_some()
                            || recv.iter().zip(&spans).all(|(r, &(ptr, len))| {
                                r.is_empty() || r.len() > len || r.as_ptr() as usize == ptr
                            });
                        (recv.iter().map(|r| bits(r)).collect::<Vec<_>>(), untouched, in_place)
                    }));
                }
                log
            });
            for (rank, log) in out.into_iter().enumerate() {
                for (call, entry) in log.into_iter().enumerate() {
                    let want: Vec<Vec<u32>> = (0..world)
                        .map(|src| {
                            let n = pair_len(call, src, rank);
                            round_trip(mode, &wire_payload(seed, call, src, rank, n))
                        })
                        .collect();
                    let case = format!("world {world} {mode} posted {posted} rank {rank} call {call}");
                    let (recv, untouched, in_place) =
                        entry.map_err(|e| TestCaseError::Fail(format!("{case}: {e}")))?;
                    prop_assert_eq!(recv, want, "{}", case);
                    prop_assert!(untouched, "kept sends written: {}", case);
                    prop_assert!(in_place, "decode allocated past a free send buffer: {}", case);
                }
            }
        }
    }

    /// Group bookkeeping: `ProcessGroup::new` hands out `world` handles
    /// with ranks `0..world`, `rank()`/`world()` report them, `barrier()`
    /// and the collectives bump `stats().ops` identically on every rank,
    /// and `stats().bytes_sent` reflects the payload size.
    #[test]
    fn bookkeeping_rank_world_stats_barrier(world in 1usize..5, n in 1usize..5) {
        let comms = ProcessGroup::new(world);
        prop_assert_eq!(comms.len(), world);
        let ranks: Vec<usize> = comms.iter().map(|c| c.rank()).collect();
        prop_assert_eq!(ranks, (0..world).collect::<Vec<_>>());
        for c in &comms {
            prop_assert_eq!(c.world(), world);
            prop_assert_eq!(c.stats().ops, 0);
        }
        let out = run_group(world, move |_rank, comm| {
            comm.barrier();
            comm.all_reduce_shared(Arc::new(vec![1.0f32; n])).expect("all_reduce_shared");
            comm.barrier();
            comm.stats()
        });
        for stats in out {
            prop_assert_eq!(stats.ops, 3, "2 barriers + 1 all_reduce");
            prop_assert_eq!(stats.bytes_sent, (n * 4) as u64);
        }
    }

    /// With a shared sink attached via `set_telemetry`, the per-op byte
    /// counters agree exactly with the summed `CommStats` of all ranks,
    /// and each op's call counter equals `world` (every rank calls once).
    #[test]
    fn set_telemetry_counters_match_comm_stats(
        world in 1usize..5,
        n in 1usize..5,
    ) {
        let sink = TelemetrySink::armed();
        let worker_sink = sink.clone();
        let out = run_group(world, move |rank, comm| {
            comm.set_telemetry(worker_sink.clone());
            let v = comm
                .all_reduce_shared(Arc::new(vec![rank as f32; n]))
                .expect("all_reduce_shared");
            let _ = comm.all_gather(&v).expect("all_gather");
            comm.stats()
        });
        let total_bytes: u64 = out.iter().map(|s| s.bytes_sent).sum();
        let snap = sink.snapshot().expect("armed sink has a snapshot");
        let counter = |m: Metric| {
            snap.counters
                .iter()
                .find(|(k, _)| *k == m.name())
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let telemetry_bytes =
            counter(Metric::CommBytes("all_reduce")) + counter(Metric::CommBytes("all_gather"));
        prop_assert_eq!(telemetry_bytes, total_bytes);
        prop_assert_eq!(counter(Metric::CommCalls("all_reduce")), world as u64);
        prop_assert_eq!(counter(Metric::CommCalls("all_gather")), world as u64);
        // Latency histograms recorded one observation per rank per op.
        for op in ["all_reduce", "all_gather"] {
            let hist = snap
                .histograms
                .iter()
                .find(|(k, _)| *k == Metric::CommNs(op).name())
                .map(|(_, h)| h.total());
            prop_assert_eq!(hist, Some(world as u64), "latency histogram for {}", op);
        }
    }

    /// Nonblocking collectives (`post_all_to_all_shared`,
    /// `post_all_to_all_shared_quant`, `post_all_reduce_shared` + `wait`)
    /// agree with their blocking forms for arbitrary payloads, world
    /// sizes and wire modes, with or without an attached `set_comm_delay`
    /// injector, and account the same *logical* byte volume: a posted
    /// AlltoAll waits into the same routing, and a split posted AllReduce
    /// is bitwise-identical to one blocking AllReduce of the whole buffer
    /// — which is itself the rank-ordered scalar sum.
    #[test]
    fn posted_collectives_match_blocking(
        world in 1usize..5,
        n in 1usize..6,
        split_pick in 0usize..8,
        seed in 0u64..1000,
        delayed in any::<bool>(),
        bf16 in any::<bool>(),
    ) {
        let split = split_pick % (n + 1);
        let mode = if bf16 { QuantMode::Bf16 } else { QuantMode::Fp32 };
        let out = run_group(world, move |rank, comm| {
            if delayed {
                comm.set_comm_delay(Some(CommDelay::new(64e9, 20e-6)));
            }
            let buf = input(seed, rank, n);
            let sends = arcs(
                (0..world)
                    .map(|dest| buf.iter().map(|v| v + dest as f32).collect())
                    .collect(),
            );
            let whole = comm.all_reduce_shared(Arc::new(buf.clone())).expect("all_reduce_shared");
            let plain = comm.all_to_all_shared(sends.clone()).expect("all_to_all_shared");
            let quant = comm
                .all_to_all_shared_quant(sends.clone(), mode)
                .expect("all_to_all_shared_quant");
            let bytes_blocking = comm.stats().bytes_sent;

            // posted forms run the same three exchanges on the comm lane
            let bot = comm.post_all_reduce_shared(Arc::new(buf[..split].to_vec()), "allreduce_bot", 0);
            let top = comm.post_all_reduce_shared(Arc::new(buf[split..].to_vec()), "allreduce_top", 0);
            let mut halves = bot.wait().expect("bot wait").as_ref().clone();
            halves.extend(top.wait().expect("top wait").iter());
            let posted_plain = comm
                .post_all_to_all_shared(sends.clone(), "input_a2a", 0)
                .wait()
                .expect("post_all_to_all_shared");
            let posted_quant = comm
                .post_all_to_all_shared_quant(sends, mode, "alltoall_fwd", 0)
                .wait()
                .expect("post_all_to_all_shared_quant");
            let bytes_posted = comm.stats().bytes_sent - bytes_blocking;
            (whole, halves, plain, posted_plain, quant, posted_quant, bytes_blocking, bytes_posted)
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|rank| input(seed, rank, n)).collect();
        let want = oracle_sum(&inputs);
        let logical = (n * 4 + world * n * 4 + world * n * mode.wire_bytes()) as u64;
        for (whole, halves, plain, posted_plain, quant, posted_quant, blocking, posted) in out {
            prop_assert_eq!(whole.as_ref(), &want);
            prop_assert_eq!(halves, want.clone());
            prop_assert_eq!(plain, posted_plain);
            prop_assert_eq!(quant, posted_quant);
            prop_assert_eq!(blocking, logical, "logical payload bytes, not pointer bytes");
            prop_assert_eq!(posted, blocking, "posted forms must account identical bytes");
        }
    }
}

/// Zero-copy regression: the `Arc` hand-off aliases the sender's buffer
/// (no hidden copy on the exchange path), and copy-on-write isolates both
/// directions — a receiver mutating a still-shared buffer clones and
/// leaves the sender's retained copy intact, while a uniquely-held
/// received buffer is mutated in place with no clone at all.
#[test]
fn shared_handoff_aliases_and_cow_isolates() {
    let mut out = run_group(2, |rank, comm| {
        // each rank sends a distinct buffer per peer and RETAINS a clone
        // of the one bound for the other rank
        let sends: Vec<Arc<Vec<f32>>> = (0..2)
            .map(|dest| Arc::new(vec![rank as f32 * 10.0 + dest as f32; 4]))
            .collect();
        let retained = Arc::clone(&sends[1 - rank]);
        let recv = comm.all_to_all_shared(sends).expect("a2a shared");
        (retained, recv)
    });
    let (retained1, recv1) = out.pop().expect("rank 1");
    let (retained0, mut recv0) = out.pop().expect("rank 0");

    // the exchange moved pointers: what rank 0 received from rank 1 IS
    // the buffer rank 1 retained, and vice versa
    assert!(
        Arc::ptr_eq(&recv0[1], &retained1),
        "rank 0 must alias rank 1's send buffer, not a copy"
    );
    assert!(
        Arc::ptr_eq(&recv1[0], &retained0),
        "rank 1 must alias rank 0's send buffer, not a copy"
    );

    // CoW, sharing direction: mutating a received buffer the sender still
    // holds must clone and never touch the sender's copy
    let mut shared = recv0.pop().expect("recv from rank 1");
    let golden = retained1.as_ref().clone();
    Arc::make_mut(&mut shared)[0] = 999.0;
    assert!(
        !Arc::ptr_eq(&shared, &retained1),
        "mutation under sharing must detach via clone"
    );
    assert_eq!(shared[0], 999.0);
    assert_eq!(
        retained1.as_ref(),
        &golden,
        "sender's retained buffer must be untouched by the receiver's write"
    );

    // CoW, unique direction: a buffer nobody else holds (rank 0's
    // unretained self-send) is recycled in place — same allocation
    let mut unique = recv0.pop().expect("self-send");
    let before = Arc::as_ptr(&unique);
    Arc::make_mut(&mut unique)[0] = -7.0;
    assert_eq!(
        Arc::as_ptr(&unique),
        before,
        "uniquely held buffer must be mutated in place, not cloned"
    );
    assert_eq!(unique[0], -7.0);
}
