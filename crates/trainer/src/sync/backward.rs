//! The backward half of the schedule: dense backward, gradient
//! bucketing, the sparse paths, and the dense optimizer step.

use std::sync::Arc;

use neo_collectives::{CommHandle, Communicator};
use neo_dataio::CombinedBatch;
use neo_dlrm_model::interaction::{dot_interaction_backward, num_pairs};
use neo_embeddings::bag::fused_backward_grads;
use neo_embeddings::optim::merge_grads;
use neo_embeddings::SparseGrad;
use neo_telemetry::{Metric, Phase};
use neo_tensor::mlp::Mlp;
use neo_tensor::Tensor2;

use super::config::{err, SyncError};
use super::shard::{rides_a2a, Worker};

/// Posts one MLP's flat gradients as its own AllReduce bucket.
fn post_grad_bucket(
    comm: &mut Communicator,
    mlp: &Mlp,
    phase: Phase,
    iter: u64,
) -> CommHandle<Arc<Vec<f32>>> {
    comm.post_all_reduce_shared(Arc::new(mlp.grads().to_vec()), phase.as_str(), iter)
}

impl Worker {
    /// Backward + update from the local logit gradient (already scaled by
    /// the *global* batch size).
    ///
    /// The MLP-gradient AllReduce is bucketed by schedule. Overlap posts
    /// one bucket per MLP the moment its backward finishes, so both ride
    /// behind the blocking sparse paths until their waits. Serial
    /// reduces a single `[bottom|top]` bucket afterwards. Rank-order
    /// accumulation is element-wise, so the buckets are bitwise-equal to
    /// the combined buffer's `[..nb]` / `[nb..]`.
    pub(super) fn backward_update(
        &mut self,
        sub: &CombinedBatch,
        grad_logits: &Tensor2,
    ) -> Result<(), SyncError> {
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
        let top_bucket = overlap
            .then(|| post_grad_bucket(&mut self.comm, &self.top, Phase::AllreduceTop, self.iter));
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
            post_grad_bucket(&mut self.comm, &self.bottom, Phase::AllreduceBot, self.iter)
        });

        // sparse paths (grad exchanges + exact optimizer updates)
        self.sparse_backward(sub.batch_size(), &g_features)?;

        match bot_bucket.zip(top_bucket) {
            Some((bot, top)) => {
                let (bot, top) = (bot.wait()?, top.wait()?);
                self.dense_step(&bot, &top)?;
            }
            None => {
                // zero-copy: the scratch buffer is handed off by pointer
                // and recovered from the reduction's accumulator, which
                // is uniquely held — `try_unwrap` recycles it without a
                // copy
                self.scratch_grads.clear();
                self.scratch_grads.extend_from_slice(self.bottom.grads());
                self.scratch_grads.extend_from_slice(self.top.grads());
                let buf = std::mem::take(&mut self.scratch_grads);
                let sp = self.rec.span(Phase::Allreduce);
                let reduced = self.comm.all_reduce_shared(Arc::new(buf))?;
                drop(sp);
                let nb = self.bottom.num_params();
                self.dense_step(&reduced[..nb], &reduced[nb..])?;
                self.scratch_grads = Arc::try_unwrap(reduced).unwrap_or_else(|a| (*a).clone());
            }
        }
        drop(bwd_span);
        Ok(())
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
    fn sparse_backward(&mut self, b_loc: usize, g_features: &[Tensor2]) -> Result<(), SyncError> {
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

        // AllGather for row-wise tables (mirror of the ReduceScatter); the
        // gathered rows are the global batch's bag gradients in order
        for &t in &self.row_tables {
            let sp = self.rec.span(Phase::Allgather);
            let global_grads = self.comm.all_gather(g_features[t + 1].as_slice())?;
            drop(sp);
            if let Some(sh) = self.shards.iter_mut().find(|sh| sh.geo.table == t) {
                let sp = self.rec.span(Phase::SparseOptim);
                let grad_of_bag = |b: usize| global_grads.get(b * d..(b + 1) * d);
                sh.update(world * b_loc, grad_of_bag, &mut self.sweep, &self.rec)?;
                drop(sp);
            }
        }

        // data-parallel tables: exchange the sparse grads, apply the
        // identical merged update on every replica
        for sh in self
            .shards
            .iter_mut()
            .filter(|sh| sh.geo.division.is_none())
        {
            // ship per-rank *merged* grads: rank-order concatenation then a
            // final merge reproduces the raw-occurrence accumulation order
            // bit-for-bit while shrinking the exchanged payload
            let local =
                fused_backward_grads(&sh.lengths, &sh.indices, &g_features[sh.geo.table + 1])
                    .map_err(|e| err(e.to_string()))?;
            let local = Arc::new(vec![local]);
            let sp = self.rec.span(Phase::AlltoallBwd);
            // one shared payload, `world` refcount bumps
            let gathered = self.comm.all_to_all_shared(vec![local; world])?;
            drop(sp);
            let sp = self.rec.span(Phase::SparseOptim);
            let mut indices = Vec::new();
            let mut rows: Vec<f32> = Vec::new();
            for from in gathered.iter().flat_map(|msg| msg.iter()) {
                indices.extend_from_slice(&from.indices);
                rows.extend_from_slice(from.grads.as_slice());
            }
            let grads = Tensor2::from_vec(indices.len(), sh.geo.width, rows)
                .map_err(|e| err(e.to_string()))?;
            let merged = merge_grads(&SparseGrad::dense(indices, grads));
            self.rec
                .sink()
                .counter_add(Metric::EmbOptimRows, merged.len() as u64);
            sh.opt.apply_merged(sh.store.as_mut(), &merged);
            drop(sp);
        }
        Ok(())
    }
}
