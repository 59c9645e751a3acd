//! The backward half of the schedule: dense backward, gradient
//! bucketing, the sparse paths, and the dense optimizer step.

use std::sync::Arc;

use neo_collectives::{CommHandle, Communicator};
use neo_dataio::CombinedBatch;
use neo_dlrm_model::interaction::{dot_interaction_backward, num_pairs};
use neo_sharding::Scheme;
use neo_telemetry::Phase;
use neo_tensor::mlp::Mlp;
use neo_tensor::Tensor2;

use super::config::{err, SyncError};
use super::shard::{rides_a2a, Worker};

/// Posts one MLP's flat gradients, followed by `tail`, as its own
/// AllReduce bucket.
fn post_grad_bucket(
    comm: &mut Communicator,
    mlp: &Mlp,
    tail: &[f32],
    phase: Phase,
    iter: u64,
) -> CommHandle<Arc<Vec<f32>>> {
    let bucket = [mlp.grads(), tail].concat();
    comm.post_all_reduce_shared(Arc::new(bucket), phase.as_str(), iter)
}

/// Splits the local loss, the last element of a reduced bucket, off it.
fn split_loss(bucket: &[f32]) -> Result<(f32, &[f32]), SyncError> {
    bucket
        .split_last()
        .map(|(loss, grads)| (*loss, grads))
        .ok_or_else(|| err("empty gradient bucket"))
}

impl Worker {
    /// Backward + update from the local logit gradient (already scaled by
    /// the *global* batch size) and the local `loss`; returns the sum of
    /// every rank's loss.
    ///
    /// The MLP-gradient AllReduce is bucketed by schedule, and the loss
    /// rides as the last element of the bucket holding the top MLP's
    /// gradients. Overlap posts one bucket per MLP the moment its
    /// backward finishes, so both ride behind the blocking sparse paths
    /// until their waits. Serial reduces a single `[bottom|top|loss]`
    /// bucket afterwards. Rank-order accumulation is element-wise, so the
    /// buckets are bitwise-equal to the combined buffer's slices, and the
    /// loss to a one-element AllReduce of its own.
    pub(super) fn backward_update(
        &mut self,
        global: &CombinedBatch,
        sub: &CombinedBatch,
        grad_logits: &Tensor2,
        loss: f32,
    ) -> Result<f32, SyncError> {
        let features = self
            .cached_features
            .take()
            .ok_or_else(|| err("backward without forward"))?;
        let bwd_span = self.rec.span(Phase::Backward);
        let overlap = self.cfg.overlap;
        let model = &self.cfg.model;
        let d = model.emb_dim();
        let num_tables = model.tables.len();

        // dense backward: top MLP, interaction, bottom MLP. `g_features[0]`
        // is the dense input; `g_features[t + 1]` belongs to table `t`.
        let sp = self.rec.span(Phase::TopMlpBwd);
        let g_top_in = self
            .top
            .backward(grad_logits)
            .map_err(|e| err(e.to_string()))?;
        drop(sp);
        let top_bucket = overlap.then(|| {
            post_grad_bucket(
                &mut self.comm,
                &self.top,
                &[loss],
                Phase::AllreduceTop,
                self.iter,
            )
        });
        let sp = self.rec.span(Phase::InteractionBwd);
        let splits = g_top_in
            .hsplit(&[d, num_pairs(num_tables + 1)])
            .map_err(|e| err(e.to_string()))?;
        let refs: Vec<&Tensor2> = features.iter().collect();
        let mut g_features =
            dot_interaction_backward(&refs, &splits[1]).map_err(|e| err(e.to_string()))?;
        g_features[0] += &splits[0];
        drop(sp);
        let sp = self.rec.span(Phase::BwdBottomMlp);
        self.bottom
            .backward_params(&g_features[0])
            .map_err(|e| err(e.to_string()))?;
        drop(sp);
        let bot_bucket = overlap.then(|| {
            post_grad_bucket(
                &mut self.comm,
                &self.bottom,
                &[],
                Phase::AllreduceBot,
                self.iter,
            )
        });

        // sparse paths (grad exchanges + exact optimizer updates)
        self.sparse_backward(global, sub.batch_size(), &g_features)?;

        let loss_sum = match bot_bucket.zip(top_bucket) {
            Some((bot, top)) => {
                let (bot, top) = (bot.wait()?, top.wait()?);
                let (loss_sum, top) = split_loss(&top)?;
                self.dense_step(&bot, top)?;
                loss_sum
            }
            None => {
                // zero-copy: the scratch buffer is handed off by pointer
                // and recovered from the reduction's accumulator, which
                // is uniquely held — `try_unwrap` recycles it without a
                // copy
                self.scratch_grads.clear();
                self.scratch_grads.extend_from_slice(self.bottom.grads());
                self.scratch_grads.extend_from_slice(self.top.grads());
                self.scratch_grads.push(loss);
                let buf = std::mem::take(&mut self.scratch_grads);
                let sp = self.rec.span(Phase::Allreduce);
                let reduced = self.comm.all_reduce_shared(Arc::new(buf))?;
                drop(sp);
                let (loss_sum, grads) = split_loss(&reduced)?;
                let nb = self.bottom.num_params();
                self.dense_step(&grads[..nb], &grads[nb..])?;
                self.scratch_grads = Arc::try_unwrap(reduced).unwrap_or_else(|a| (*a).clone());
                loss_sum
            }
        };
        drop(bwd_span);
        Ok(loss_sum)
    }

    /// Installs the reduced MLP gradients and steps the dense optimizers.
    fn dense_step(&mut self, bot: &[f32], top: &[f32]) -> Result<(), SyncError> {
        let sp = self.rec.span(Phase::DenseOptim);
        for (mlp, reduced) in [(&mut self.bottom, bot), (&mut self.top, top)] {
            let grads = mlp.grads_mut();
            if grads.len() != reduced.len() {
                return Err(err(format!(
                    "reduced gradient of len {} for an mlp with {} params",
                    reduced.len(),
                    grads.len()
                )));
            }
            grads.copy_from_slice(reduced);
        }
        self.bottom.apply_optimizer(self.bottom_opt.as_mut());
        self.top.apply_optimizer(self.top_opt.as_mut());
        drop(sp);
        Ok(())
    }

    /// Sparse backward (step 6): grad exchanges back to every shard kind
    /// plus the exact optimizer updates. Blocking in both schedules.
    fn sparse_backward(
        &mut self,
        global: &CombinedBatch,
        b_loc: usize,
        g_features: &[Tensor2],
    ) -> Result<(), SyncError> {
        let world = self.world;
        let d = self.cfg.model.emb_dim();

        // grad AlltoAll back to table-/column-wise owners
        let sp = self.rec.span(Phase::AlltoallBwd);
        let mut payloads: Vec<Vec<f32>> = vec![Vec::new(); world];
        for (manifest, payload) in self.manifests.iter().zip(&mut payloads) {
            for c in manifest {
                let g = &g_features[c.table + 1];
                for row in 0..b_loc {
                    payload.extend_from_slice(&g.row(row)[c.col_off..c.col_off + c.width]);
                }
            }
        }
        let payloads: Vec<Arc<Vec<f32>>> = payloads.into_iter().map(Arc::new).collect();
        let grad_recv = self
            .comm
            .all_to_all_shared_quant(payloads, self.cfg.quant_bwd)?;
        drop(sp);

        // owners apply the exact sparse updates straight from the received
        // grads. Every shard takes `b_loc × width` values from each source,
        // so one offset serves all sources: bag `b` of a shard is row
        // `b % b_loc` of its chunk of `grad_recv[b / b_loc]`. `bag_rows`
        // lists those rows in bag order, so the sweep indexes rather than
        // divides per occurrence.
        let sp = self.rec.span(Phase::SparseOptim);
        let mut offset = 0usize;
        let mut bag_rows: Vec<&[f32]> = Vec::with_capacity(world * b_loc);
        for sh in self.shards.iter_mut().filter(|sh| rides_a2a(&sh.geo)) {
            let (width, end) = (sh.geo.width, offset + b_loc * sh.geo.width);
            bag_rows.clear();
            for data in &grad_recv {
                let chunk = data
                    .get(offset..end)
                    .ok_or_else(|| err("gradient all-to-all message shorter than its manifest"))?;
                bag_rows.extend(chunk.chunks_exact(width));
            }
            offset = end;
            let grad_of_bag = |b: usize| bag_rows.get(b).copied();
            sh.update(world * b_loc, grad_of_bag, &mut self.sweep, &self.rec)?;
        }
        drop(sp);

        // AllGather for row-wise and data-parallel tables, in the plan's
        // table order on every rank: the gathered rows are the global
        // batch's bag gradients in order. A replica looked up only the
        // local sub-batch; it updates over the global batch's inputs, so
        // every replica applies the one update a table-wise owner would.
        for p in &self.cfg.plan.placements {
            if !matches!(p.scheme, Scheme::RowWise { .. } | Scheme::DataParallel) {
                continue;
            }
            let t = p.table;
            let sp = self.rec.span(Phase::Allgather);
            let global_grads = self.comm.all_gather(g_features[t + 1].as_slice())?;
            drop(sp);
            if let Some(sh) = self.shards.iter_mut().find(|sh| sh.geo.table == t) {
                let sp = self.rec.span(Phase::SparseOptim);
                if sh.geo.division.is_none() {
                    let (lengths, indices) = global.table_inputs(t);
                    sh.lengths.clear();
                    sh.indices.clear();
                    sh.push_inputs(lengths, indices);
                }
                let grad_of_bag = |b: usize| global_grads.get(b * d..(b + 1) * d);
                sh.update(world * b_loc, grad_of_bag, &mut self.sweep, &self.rec)?;
                drop(sp);
            }
        }
        Ok(())
    }
}
