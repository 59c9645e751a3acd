//! The layer ladder: each layer's public function called by the
//! benchmark itself at the workload's shapes, on rank 0's share of ring
//! batch 0, and timed from outside.
//!
//! A row is the median of at least `min_calls` individually timed calls
//! after warm-up, run for at least `row_ns`. Collective rows run the
//! workload's world as threads over a fresh `ProcessGroup` carrying the
//! workload's injected wire delay, and time rank 0. Rows that are off
//! the workload's path (no row-wise table, FP32 wire) read 0.
//!
//! `ladder_sum` adds every row times its calls per step as if nothing
//! overlapped; the gap to the measured step is `trainer.unexplained_frac`.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use neo_collectives::{CommDelay, Communicator, ProcessGroup, QuantMode};
use neo_dataio::ops::bucketize_rows;
use neo_dataio::CombinedBatch;
use neo_dlrm_model::interaction::{dot_interaction, dot_interaction_backward, num_pairs};
use neo_dlrm_model::{bce_with_logits, DlrmConfig};
use neo_embeddings::bag::{fused_backward_grads, pooled_forward};
use neo_embeddings::{
    DenseStore, RowWiseAdagrad, SparseAdagrad, SparseGrad, SparseOptimizer, SparseSgd,
};
use neo_sharding::{Scheme, ShardingPlan};
use neo_telemetry::phase;
use neo_tensor::gemm::{gemm_flops, matmul, matmul_a_bt, matmul_at_b};
use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::optim::DenseSgd;
use neo_tensor::Tensor2;
use neo_trainer::SparseOpt;
use rand::{Rng, SeedableRng};

use crate::metrics::Value;
use crate::stats::median;
use crate::workloads::{elapsed_ns, Inputs, Workload};
use crate::Res;

/// How long and how often each row is measured.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Minimum measured time per row.
    pub row_ns: u64,
    /// Minimum timed calls per row.
    pub min_calls: usize,
    /// Elements per stream-triad array.
    pub triad_elems: usize,
    /// Multiply-add sweeps per call of the FMA calibration.
    pub fma_iters: usize,
}

/// One measured ladder row.
pub struct Row {
    /// Metric the row feeds (`layer.metric`).
    pub name: &'static str,
    /// Timed calls.
    pub calls: usize,
    /// Span of the row's measurement, nanoseconds since the epoch.
    pub span: (u64, u64),
}

/// The ladder's results.
pub struct Ladder {
    /// Every measured row, in measurement order.
    pub rows: Vec<Row>,
    /// The per-layer metric values the ladder sources.
    pub values: Vec<Value>,
    /// Sum over rows of median time times calls per step, milliseconds.
    pub sum_ms: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t = Instant::now();
    let out = f();
    (elapsed_ns(t), out)
}

struct Bench {
    epoch: Instant,
    budget: Budget,
    rows: Vec<Row>,
}

const WARMUP_CALLS: usize = 3;

impl Bench {
    /// Measures a row whose `op` reports the nanoseconds to count (so a
    /// call may do untimed preparation first).
    fn row_with(&mut self, name: &'static str, mut op: impl FnMut() -> Res<u64>) -> Res<f64> {
        for _ in 0..WARMUP_CALLS {
            op()?;
        }
        let start = elapsed_ns(self.epoch);
        let mut samples = Vec::new();
        let mut total = 0u64;
        while samples.len() < self.budget.min_calls || total < self.budget.row_ns {
            let ns = op()?;
            total += ns;
            samples.push(ns as f64 / 1e3);
        }
        Ok(self.push(name, start, &samples))
    }

    /// Measures a row that is one plain call.
    fn row<T>(&mut self, name: &'static str, mut op: impl FnMut() -> Res<T>) -> Res<f64> {
        self.row_with(name, || {
            let (ns, out) = timed(&mut op);
            black_box(out?);
            Ok(ns)
        })
    }

    /// A row that is off this workload's path.
    fn absent(&mut self, name: &'static str) -> f64 {
        let now = elapsed_ns(self.epoch);
        self.push(name, now, &[])
    }

    fn push(&mut self, name: &'static str, start: u64, samples_us: &[f64]) -> f64 {
        let us = median(samples_us);
        self.rows.push(Row {
            name,
            calls: samples_us.len(),
            span: (start, elapsed_ns(self.epoch)),
        });
        us
    }

    /// Measures a collective: `world` threads each call `op` on their own
    /// communicator in lock step; rank 0's calls are timed. The call
    /// count is fixed by rank 0 after a calibration burst and published
    /// before a barrier, so every rank issues the same sequence.
    fn collective(
        &mut self,
        name: &'static str,
        world: usize,
        delay: Option<CommDelay>,
        op: impl Fn(&mut Communicator, u64) -> Res<()> + Sync,
    ) -> Res<f64> {
        const CALIBRATION: usize = 8;
        let budget = self.budget;
        let start = elapsed_ns(self.epoch);
        let calls = AtomicUsize::new(0);
        let agreed = Barrier::new(world);
        let (op, calls, agreed) = (&op, &calls, &agreed);
        let samples = std::thread::scope(|scope| -> Res<Vec<f64>> {
            let mut handles = Vec::new();
            for mut comm in ProcessGroup::new(world) {
                comm.set_comm_delay(delay);
                handles.push(scope.spawn(move || -> Res<Vec<f64>> {
                    let mut iter = 0u64;
                    let mut call = |comm: &mut Communicator| -> Res<u64> {
                        iter += 1;
                        let (ns, out) = timed(|| op(comm, iter));
                        out?;
                        Ok(ns)
                    };
                    let mut burst = 0u64;
                    for i in 0..WARMUP_CALLS + CALIBRATION {
                        let ns = call(&mut comm)?;
                        if i >= WARMUP_CALLS {
                            burst += ns;
                        }
                    }
                    if comm.rank() == 0 {
                        let per_call = (burst / CALIBRATION as u64).max(1);
                        let n = (budget.row_ns / per_call) as usize;
                        calls.store(n.max(budget.min_calls), Ordering::SeqCst);
                    }
                    agreed.wait();
                    let n = calls.load(Ordering::SeqCst);
                    let mut samples = Vec::with_capacity(n);
                    for _ in 0..n {
                        samples.push(call(&mut comm)? as f64 / 1e3);
                    }
                    Ok(samples)
                }));
            }
            let mut rank0 = Vec::new();
            for (rank, h) in handles.into_iter().enumerate() {
                let samples = h
                    .join()
                    .map_err(|_| "ladder collective thread panicked")??;
                if rank == 0 {
                    rank0 = samples;
                }
            }
            Ok(rank0)
        })?;
        Ok(self.push(name, start, &samples))
    }
}

/// A small deterministic tensor (values in ±0.05: repeated optimizer
/// applications stay finite).
fn noise(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor2 {
    Tensor2::from_fn(rows, cols, |_, _| rng.gen_range(-0.05f32..0.05))
}

/// One embedding shard rank 0 owns, with the global-batch inputs it
/// serves each step.
struct Shard {
    store: DenseStore,
    opt: Box<dyn SparseOptimizer>,
    lengths: Vec<u32>,
    indices: Vec<u64>,
    grad_out: Tensor2,
    merged: SparseGrad,
}

fn make_opt(kind: SparseOpt, lr: f32, rows: u64, width: usize) -> Box<dyn SparseOptimizer> {
    match kind {
        SparseOpt::Sgd => Box::new(SparseSgd::new(lr)),
        SparseOpt::Adagrad => Box::new(SparseAdagrad::new(lr, 1e-8, rows, width)),
        SparseOpt::RowWiseAdagrad => Box::new(RowWiseAdagrad::new(lr, 1e-8, rows)),
    }
}

/// The shards `rank` owns under `plan`, fed with `global`'s inputs the
/// way the index all-to-all would deliver them.
fn owned_shards(
    w: &Workload,
    plan: &ShardingPlan,
    global: &CombinedBatch,
    rank: usize,
    rng: &mut impl Rng,
) -> Res<Vec<Shard>> {
    let lr = 0.05;
    let mut out = Vec::new();
    let mut push = |rows: u64, width: usize, lengths: Vec<u32>, indices: Vec<u64>, rng: &mut _| {
        out.push(Shard {
            store: DenseStore::random(rows, width, rng),
            opt: make_opt(w.optimizer, lr, rows, width),
            grad_out: noise(lengths.len(), width, rng),
            lengths,
            indices,
            merged: SparseGrad::empty(width),
        });
    };
    for p in &plan.placements {
        let t = &w.model.tables[p.table];
        let (lens, idx) = global.table_inputs(p.table);
        match &p.scheme {
            Scheme::TableWise { worker } if *worker == rank => {
                push(t.num_rows, t.dim, lens.to_vec(), idx.to_vec(), rng);
            }
            Scheme::ColumnWise {
                workers,
                split_dims,
            } => {
                for (&wk, &d) in workers.iter().zip(split_dims) {
                    if wk == rank {
                        push(t.num_rows, d, lens.to_vec(), idx.to_vec(), rng);
                    }
                }
            }
            Scheme::RowWise { workers } => {
                let bz = bucketize_rows(workers.len(), t.num_rows, lens, idx)?;
                let block = neo_dataio::ops::row_block_size(t.num_rows, workers.len());
                for (k, &wk) in workers.iter().enumerate() {
                    if wk == rank {
                        let (bl, bi) = bz.shard_inputs(k);
                        push(block, t.dim, bl.to_vec(), bi.to_vec(), rng);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Columns of pooled output `rank` ships to each destination per sample
/// in the pooled all-to-all (its table- and column-wise shards).
fn owned_width(plan: &ShardingPlan, model: &DlrmConfig, rank: usize) -> usize {
    plan.placements
        .iter()
        .map(|p| match &p.scheme {
            Scheme::TableWise { worker } if *worker == rank => model.tables[p.table].dim,
            Scheme::ColumnWise {
                workers,
                split_dims,
            } => workers
                .iter()
                .zip(split_dims)
                .filter(|(&wk, _)| wk == rank)
                .map(|(_, &d)| d)
                .sum(),
            _ => 0,
        })
        .sum()
}

fn llc_mib() -> f64 {
    (0..=4)
        .rev()
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.strip_suffix('K') {
                Some(d) => (d, 1.0 / 1024.0),
                None => (text.strip_suffix('M')?, 1.0),
            };
            Some(digits.parse::<f64>().ok()? * scale)
        })
        .next()
        .unwrap_or(0.0)
}

/// Runs the whole ladder for `w` on `inputs`.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    budget: Budget,
    epoch: Instant,
) -> Res<Ladder> {
    let mut b = Bench {
        epoch,
        budget,
        rows: Vec::new(),
    };
    let mut v: Vec<Value> = Vec::new();
    let mut put = |name: &'static str, value: f64, n: usize| {
        v.push(Value::new(name, value, n));
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x001a_dde7);
    let world = w.world;
    let plan = &inputs.cfg.plan;
    let global = inputs.ring.first().ok_or("empty ring")?;
    let sub = global.split(world)?.swap_remove(0);
    let b_loc = sub.batch_size();
    let model = &w.model;
    let d = model.emb_dim();

    // ---- host calibration: ceilings no layer can beat on this machine
    let fma_flops = (budget.fma_iters * 4 * 8 * 2) as f64;
    let us = b.row("host.fma_gflops", || {
        let mut acc = [[1.0f32; 8]; 4];
        let (mul, add) = (black_box([1.000_001f32; 8]), black_box([1e-7f32; 8]));
        for _ in 0..budget.fma_iters {
            for lanes in &mut acc {
                for ((x, m), a) in lanes.iter_mut().zip(&mul).zip(&add) {
                    *x = *x * m + a;
                }
            }
        }
        Ok(acc)
    })?;
    put("host.fma_gflops", fma_flops / us / 1e3, 0);

    let n = budget.triad_elems;
    let (mut ta, tb, tc) = (vec![0.0f32; n], vec![1.0f32; n], vec![2.0f32; n]);
    let us = b.row("host.triad_gbps", || {
        for ((a, x), y) in ta.iter_mut().zip(&tb).zip(&tc) {
            *a = x + 0.5 * y;
        }
        Ok(ta[n / 2])
    })?;
    put("host.triad_gbps", (3 * 4 * n) as f64 / us / 1e3, 0);
    drop((ta, tb, tc));
    put("host.llc_mib", llc_mib(), 0);

    // a 2-thread barrier is the floor under any rendezvous; it is
    // measured through the same lock-step harness as the collectives
    let pair = Barrier::new(2);
    let us = b.collective("host.barrier_rt_us", 2, None, |_, _| {
        pair.wait();
        Ok(())
    })?;
    put("host.barrier_rt_us", us, 0);

    // ---- dataio
    let ds = w.dataset(seed)?;
    let mut k = 0u64;
    let us = b.row("dataio.batch_gen_us", || {
        k += 1;
        Ok(ds.batch(w.batch, k))
    })?;
    put("dataio.batch_gen_us", us, 0);
    let clone_us = b.row("dataio.batch_clone_us", || Ok(global.clone()))?;
    put("dataio.batch_clone_us", clone_us, 0);
    let row_tables: Vec<usize> = plan
        .placements
        .iter()
        .filter(|p| matches!(p.scheme, Scheme::RowWise { .. }))
        .map(|p| p.table)
        .collect();
    let bucketize_us = if row_tables.is_empty() {
        b.absent("dataio.bucketize_us")
    } else {
        b.row("dataio.bucketize_us", || {
            for &t in &row_tables {
                let (lens, idx) = sub.table_inputs(t);
                black_box(bucketize_rows(world, model.tables[t].num_rows, lens, idx)?);
            }
            Ok(())
        })?
    };
    put("dataio.bucketize_us", bucketize_us, 0);

    // ---- tensor: GEMMs at per-rank batch x the widest top-MLP layer
    let bottom_cfg = MlpConfig::new(model.dense_dim, &model.bottom_mlp, Activation::Relu);
    let top_cfg = MlpConfig::new(model.top_input_dim(), &model.top_mlp, Activation::Relu)
        .with_final_activation(Activation::Identity);
    let mut dims = vec![model.top_input_dim()];
    dims.extend(&model.top_mlp);
    let (gk, gn) = dims
        .windows(2)
        .map(|p| (p[0], p[1]))
        .max_by_key(|(i, o)| i * o)
        .ok_or("top MLP has no layer")?;
    let (x, wt, dy) = (
        noise(b_loc, gk, &mut rng),
        noise(gk, gn, &mut rng),
        noise(b_loc, gn, &mut rng),
    );
    let flops = gemm_flops(b_loc, gk, gn) as f64;
    let us = b.row("tensor.gemm_nn_gflops", || Ok(matmul(&x, &wt)?))?;
    put("tensor.gemm_nn_gflops", flops / us / 1e3, 0);
    let us = b.row("tensor.gemm_tn_gflops", || Ok(matmul_at_b(&x, &dy)?))?;
    put("tensor.gemm_tn_gflops", flops / us / 1e3, 0);
    let us = b.row("tensor.gemm_nt_gflops", || Ok(matmul_a_bt(&dy, &wt)?))?;
    put("tensor.gemm_nt_gflops", flops / us / 1e3, 0);

    let mut bottom = Mlp::new(&bottom_cfg, &mut rng);
    let mut top = Mlp::new(&top_cfg, &mut rng);
    let top_in = noise(b_loc, model.top_input_dim(), &mut rng);
    let (g_logit, g_bottom) = (noise(b_loc, 1, &mut rng), noise(b_loc, d, &mut rng));
    let mlp_fwd_us = b.row("tensor.mlp_fwd_us", || {
        Ok((bottom.forward(&sub.dense), top.forward(&top_in)))
    })?;
    put("tensor.mlp_fwd_us", mlp_fwd_us, 0);
    let mlp_bwd_us = b.row_with("tensor.mlp_bwd_us", || {
        // backward consumes the activations a forward cached
        bottom.forward(&sub.dense);
        top.forward(&top_in);
        bottom.zero_grads();
        top.zero_grads();
        let (ns, out) = timed(|| (top.backward(&g_logit), bottom.backward(&g_bottom)));
        black_box((out.0?, out.1?));
        Ok(ns)
    })?;
    put("tensor.mlp_bwd_us", mlp_bwd_us, 0);
    let (mut opt_b, mut opt_t) = (DenseSgd::new(0.05), DenseSgd::new(0.05));
    let dense_optim_us = b.row("tensor.dense_optim_us", || {
        bottom.apply_optimizer(&mut opt_b);
        top.apply_optimizer(&mut opt_t);
        Ok(())
    })?;
    put("tensor.dense_optim_us", dense_optim_us, 0);
    // forward GEMM plus the two backward GEMMs of every layer
    let flops_per_step =
        3 * b_loc as u64 * (bottom_cfg.flops_per_sample() + top_cfg.flops_per_sample());
    put("tensor.flops_per_step", flops_per_step as f64, 0);

    // ---- embeddings: rank 0's shards over the global batch
    let mut shards = owned_shards(w, plan, global, 0, &mut rng)?;
    let occurrences: usize = shards.iter().map(|s| s.indices.len()).sum();
    let bytes: usize = shards
        .iter()
        .map(|s| s.indices.len() * s.grad_out.cols() * 4)
        .sum();
    let pooled_us = b.row("embeddings.pooled_fwd_us", || {
        for s in &mut shards {
            black_box(pooled_forward(&mut s.store, &s.lengths, &s.indices)?);
        }
        Ok(())
    })?;
    put("embeddings.pooled_fwd_us", pooled_us, 0);
    put(
        "embeddings.pooled_fwd_gbps",
        bytes as f64 / pooled_us / 1e3,
        0,
    );
    let merge_us = b.row("embeddings.bwd_merge_us", || {
        for s in &mut shards {
            s.merged = fused_backward_grads(&s.lengths, &s.indices, &s.grad_out)?;
        }
        Ok(())
    })?;
    put("embeddings.bwd_merge_us", merge_us, 0);
    put(
        "embeddings.bwd_merge_mrows_s",
        occurrences as f64 / merge_us,
        0,
    );
    let optim_us = b.row("embeddings.optim_apply_us", || {
        for s in &mut shards {
            s.opt.apply_merged(&mut s.store, &s.merged);
        }
        Ok(())
    })?;
    put("embeddings.optim_apply_us", optim_us, 0);
    let unique: usize = shards.iter().map(|s| s.merged.len()).sum();
    put(
        "embeddings.unique_row_frac",
        unique as f64 / occurrences.max(1) as f64,
        0,
    );
    drop(shards);

    // ---- collectives at the workload's world and wire
    let delay = w.comm_delay;
    let rendezvous_us = b.collective("collectives.rendezvous_us", world, delay, |c, _| {
        black_box(c.all_reduce_shared(Arc::new(vec![1.0]))?);
        Ok(())
    })?;
    put("collectives.rendezvous_us", rendezvous_us, 0);
    let payloads: Vec<Vec<Arc<Vec<f32>>>> = (0..world)
        .map(|r| {
            let len = b_loc * owned_width(plan, model, r);
            (0..world).map(|_| Arc::new(vec![0.25f32; len])).collect()
        })
        .collect();
    let a2a_us = b.collective("collectives.a2a_us", world, delay, |c, _| {
        black_box(c.all_to_all_shared_quant(payloads[c.rank()].clone(), w.quant.0)?);
        Ok(())
    })?;
    put("collectives.a2a_us", a2a_us, 0);
    let params = (bottom_cfg.num_params() + top_cfg.num_params()) as usize;
    let grads = vec![0.001f32; params];
    let allreduce_us = b.collective("collectives.allreduce_us", world, delay, |c, _| {
        // the copy stands in for the trainer's flatten of the MLP grads
        black_box(c.all_reduce_shared(Arc::new(grads.clone()))?);
        Ok(())
    })?;
    put("collectives.allreduce_us", allreduce_us, 0);
    put(
        "collectives.allreduce_gbps",
        (params * 4) as f64 / allreduce_us / 1e3,
        0,
    );
    let us = b.collective("collectives.posted_rtt_us", world, delay, |c, iter| {
        let handle = c.post_all_reduce_shared(Arc::new(vec![1.0]), phase::ALLREDUCE, iter);
        black_box(handle.wait()?);
        Ok(())
    })?;
    put("collectives.posted_rtt_us", us, 0);
    let quant_gbps = if w.quant.0 == QuantMode::Fp32 {
        b.absent("collectives.quant_gbps")
    } else {
        let wire = vec![0.25f32; world * b_loc * owned_width(plan, model, 0)];
        let us = b.row("collectives.quant_gbps", || {
            Ok(w.quant.0.dequantize(&w.quant.0.quantize(&wire)?)?)
        })?;
        (wire.len() * 4) as f64 / us / 1e3
    };
    put("collectives.quant_gbps", quant_gbps, 0);
    let rs_ag_us = if row_tables.is_empty() {
        b.absent("collectives.rs_ag_us")
    } else {
        let (partial, flat) = (vec![0.5f32; world * b_loc * d], vec![0.5f32; b_loc * d]);
        b.collective("collectives.rs_ag_us", world, delay, |c, _| {
            black_box(c.reduce_scatter(&partial)?);
            black_box(c.all_gather(&flat)?);
            Ok(())
        })?
    };
    put("collectives.rs_ag_us", rs_ag_us, 0);

    // ---- dlrm: interaction and loss on the local sub-batch
    let features: Vec<Tensor2> = (0..=model.tables.len())
        .map(|_| noise(b_loc, d, &mut rng))
        .collect();
    let refs: Vec<&Tensor2> = features.iter().collect();
    let g_inter = noise(b_loc, num_pairs(features.len()), &mut rng);
    let inter_fwd_us = b.row("dlrm.interaction_fwd_us", || Ok(dot_interaction(&refs)?))?;
    put("dlrm.interaction_fwd_us", inter_fwd_us, 0);
    let inter_bwd_us = b.row("dlrm.interaction_bwd_us", || {
        Ok(dot_interaction_backward(&refs, &g_inter)?)
    })?;
    put("dlrm.interaction_bwd_us", inter_bwd_us, 0);
    let logits = noise(b_loc, 1, &mut rng);
    let loss_us = b.row("dlrm.loss_us", || {
        Ok(bce_with_logits(&logits, &sub.labels)?)
    })?;
    put("dlrm.loss_us", loss_us, 0);

    // the n= of a ladder value is its row's call count
    for value in &mut v {
        if let Some(row) = b.rows.iter().find(|r| r.name == value.name) {
            value.n = row.calls;
        }
    }

    // Per step and rank, serial schedule: one batch clone, the MLPs,
    // interaction and loss once each, every owned shard's lookup, merge
    // and update, two pooled all-to-alls (forward, backward), two
    // payload-free rendezvous (index all-to-all of pointers, loss
    // all-reduce), one MLP all-reduce, one reduce-scatter + all-gather
    // per row-wise table.
    let sum_us = clone_us
        + bucketize_us
        + mlp_fwd_us
        + mlp_bwd_us
        + dense_optim_us
        + pooled_us
        + merge_us
        + optim_us
        + inter_fwd_us
        + inter_bwd_us
        + loss_us
        + 2.0 * a2a_us
        + 2.0 * rendezvous_us
        + allreduce_us
        + row_tables.len() as f64 * rs_ag_us;
    Ok(Ladder {
        rows: b.rows,
        values: v,
        sum_ms: sum_us / 1e3,
    })
}
