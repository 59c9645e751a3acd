//! The forward half of the schedule, and the `Pending` collectives it
//! starts.

use std::sync::Arc;

use neo_collectives::CommHandle;
use neo_dataio::ops::bucketize_rows;
use neo_dataio::CombinedBatch;
use neo_dlrm_model::interaction::dot_interaction;
use neo_sharding::Scheme;
use neo_telemetry::Phase;
use neo_tensor::Tensor2;

use super::config::{err, SyncError};
use super::shard::{rides_a2a, Worker};

/// One table's `(lengths, indices)` inputs bound for an owner shard —
/// the §4.4 lengths+indices wire format of the index AlltoAll.
#[derive(Clone)]
struct IndexMsg {
    table: usize,
    shard: usize,
    lengths: Vec<u32>,
    indices: Vec<u64>,
}

/// A started collective: already finished on this thread (serial
/// schedule, eval and probe forwards) or in flight on the comm lane
/// (overlapped schedule). The schedule redeems both the same way.
enum Pending<R> {
    Done(R),
    InFlight(CommHandle<R>),
}

impl<R> Pending<R> {
    fn wait(self) -> Result<R, SyncError> {
        match self {
            Pending::Done(r) => Ok(r),
            Pending::InFlight(handle) => Ok(handle.wait()?),
        }
    }
}

/// A sub-batch whose index AlltoAll has been started.
pub(super) struct PendingInput {
    sub: CombinedBatch,
    recv: Pending<Vec<Arc<Vec<IndexMsg>>>>,
}

impl Worker {
    /// Builds the per-destination `IndexMsg` payload of the index
    /// AlltoAll for the local sub-batch (step 1 of the iteration),
    /// `Arc`-wrapped for the zero-copy exchange (the wrap is a pointer
    /// move, and receivers alias the payload instead of deep-cloning it).
    fn build_index_sends(&self, sub: &CombinedBatch) -> Result<Vec<Arc<Vec<IndexMsg>>>, SyncError> {
        let model = &self.cfg.model;
        let mut sends: Vec<Vec<IndexMsg>> = vec![Vec::new(); self.world];
        for p in &self.cfg.plan.placements {
            let t = p.table;
            let (lens, idx) = sub.table_inputs(t);
            let msg = |shard: usize, lengths: &[u32], indices: &[u64]| IndexMsg {
                table: t,
                shard,
                lengths: lengths.to_vec(),
                indices: indices.to_vec(),
            };
            match &p.scheme {
                Scheme::TableWise { worker } => sends[*worker].push(msg(0, lens, idx)),
                Scheme::ColumnWise { workers, .. } => {
                    for (k, &w) in workers.iter().enumerate() {
                        sends[w].push(msg(k, lens, idx));
                    }
                }
                Scheme::RowWise { workers } => {
                    let bz = bucketize_rows(workers.len(), model.tables[t].num_rows, lens, idx)
                        .map_err(|e| err(e.to_string()))?;
                    for (k, &w) in workers.iter().enumerate() {
                        let (bl, bi) = bz.shard_inputs(k);
                        sends[w].push(msg(k, bl, bi));
                    }
                }
                Scheme::DataParallel => {}
            }
        }
        Ok(sends.into_iter().map(Arc::new).collect())
    }

    /// Files the inputs every local shard serves this iteration: its index
    /// messages from all sources (the global batch), or the local
    /// sub-batch for a replica.
    fn file_inputs(
        &mut self,
        recv: &[Arc<Vec<IndexMsg>>],
        sub: &CombinedBatch,
    ) -> Result<(), SyncError> {
        for sh in &mut self.shards {
            sh.lengths.clear();
            sh.indices.clear();
            if sh.geo.division.is_none() {
                let (lens, idx) = sub.table_inputs(sh.geo.table);
                sh.push_inputs(lens, idx);
                continue;
            }
            for src in recv {
                let msg = src
                    .iter()
                    .find(|m| m.table == sh.geo.table && m.shard == sh.geo.ordinal)
                    .ok_or_else(|| err("missing index message for owned shard"))?;
                sh.push_inputs(&msg.lengths, &msg.indices);
            }
        }
        Ok(())
    }

    /// Packs owned pooled outputs into per-destination wire payloads
    /// (manifest order — the receiver derives the same layout),
    /// `Arc`-wrapped so the pooled AlltoAll hands off pointers.
    fn build_pooled_payloads(&self, owned_pooled: &[Tensor2], b_loc: usize) -> Vec<Arc<Vec<f32>>> {
        let mut payloads: Vec<Vec<f32>> = vec![Vec::new(); self.world];
        for pooled in owned_pooled {
            debug_assert_eq!(pooled.rows(), self.world * b_loc);
            for (dest, payload) in payloads.iter_mut().enumerate() {
                let chunk = pooled.slice_rows(dest * b_loc, (dest + 1) * b_loc);
                payload.extend_from_slice(chunk.as_slice());
            }
        }
        payloads.into_iter().map(Arc::new).collect()
    }

    /// Reassembles per-table pooled features for the local sub-batch from
    /// the pooled-AlltoAll receive buffers, using each owner's manifest.
    fn assemble_pooled_features(
        &self,
        pooled_recv: &[Arc<Vec<f32>>],
        b_loc: usize,
    ) -> Result<Vec<Tensor2>, SyncError> {
        let model = &self.cfg.model;
        let d = model.emb_dim();
        let mut pooled_features: Vec<Tensor2> = (0..model.tables.len())
            .map(|_| Tensor2::zeros(b_loc, d))
            .collect();
        for (manifest, data) in self.manifests.iter().zip(pooled_recv) {
            let mut off = 0usize;
            for c in manifest {
                let n = b_loc * c.width;
                let chunk = &data[off..off + n];
                off += n;
                let dst = &mut pooled_features[c.table];
                for row in 0..b_loc {
                    let src_row = &chunk[row * c.width..(row + 1) * c.width];
                    dst.row_mut(row)[c.col_off..c.col_off + c.width].copy_from_slice(src_row);
                }
            }
            if off != data.len() {
                return Err(err("pooled payload length mismatch"));
            }
        }
        Ok(pooled_features)
    }

    /// Row-wise ReduceScatter features and data-parallel local lookups
    /// (step 4 — blocking in both schedules).
    fn row_and_dp_features(
        &mut self,
        pooled_features: &mut [Tensor2],
        b_loc: usize,
    ) -> Result<(), SyncError> {
        let d = self.cfg.model.emb_dim();

        // ReduceScatter for row-wise tables (table-id order, all ranks)
        for &t in &self.row_tables {
            let sp = self.rec.span(Phase::EmbLookup);
            // a rank holding no block of the table contributes zeros
            let partial = match self.shards.iter_mut().find(|sh| sh.geo.table == t) {
                Some(sh) => sh.lookup(&self.rec, &sp)?.into_vec(),
                None => vec![0.0f32; self.world * b_loc * d],
            };
            drop(sp);
            let sp = self.rec.span(Phase::ReduceScatter);
            let mine = self.comm.reduce_scatter(&partial)?;
            drop(sp);
            pooled_features[t] =
                Tensor2::from_vec(b_loc, d, mine).map_err(|e| err(e.to_string()))?;
        }

        // local lookups for data-parallel replicas
        let sp = self.rec.span(Phase::EmbLookup);
        for sh in self
            .shards
            .iter_mut()
            .filter(|sh| sh.geo.division.is_none())
        {
            pooled_features[sh.geo.table] = sh.lookup(&self.rec, &sp)?;
        }
        drop(sp);
        Ok(())
    }

    /// Dot interaction + top MLP (step 5); caches the forward features
    /// for `backward_update` when training.
    fn interact_and_top(
        &mut self,
        z0: Tensor2,
        mut pooled_features: Vec<Tensor2>,
        train: bool,
    ) -> Result<Tensor2, SyncError> {
        let sp = self.rec.span(Phase::Interaction);
        let mut features = vec![z0];
        features.append(&mut pooled_features);
        let refs: Vec<&Tensor2> = features.iter().collect();
        let inter = dot_interaction(&refs).map_err(|e| err(e.to_string()))?;
        let top_in = Tensor2::hcat(&[&features[0], &inter]).map_err(|e| err(e.to_string()))?;
        drop(sp);
        let sp = self.rec.span(Phase::TopMlp);
        let logits = if train {
            self.top.forward(&top_in)
        } else {
            self.top.forward_inference(&top_in)
        };
        drop(sp);
        if train {
            self.cached_features = Some(features);
        }
        Ok(logits)
    }

    /// Splits off the local sub-batch and starts its index AlltoAll
    /// (zero-copy: pointers on the wire) — on the comm lane when `lane`,
    /// else to completion on this thread.
    fn start_input_a2a(
        &mut self,
        global: &CombinedBatch,
        lane: bool,
    ) -> Result<PendingInput, SyncError> {
        let sub = global
            .split(self.world)
            .map_err(|e| err(e.to_string()))?
            .swap_remove(self.rank);
        let sends = self.build_index_sends(&sub)?;
        let recv = if lane {
            Pending::InFlight(self.comm.post_all_to_all_shared(
                sends,
                Phase::InputA2a.as_str(),
                self.iter,
            ))
        } else {
            let sp = self.rec.span(Phase::InputA2a);
            let recv = self.comm.all_to_all_shared(sends)?;
            drop(sp);
            Pending::Done(recv)
        };
        Ok(PendingInput { sub, recv })
    }

    /// Forward pass over the worker's sub-batch, participating in the
    /// group's collectives. Returns `(logits, sub_batch)`.
    ///
    /// `next` is the double-buffered batch whose index exchange this
    /// forward starts before its own interaction/top MLP; a training
    /// forward finds its own exchange already started by the previous
    /// iteration that way, and starts it here otherwise (pipeline head,
    /// serial driver, eval and probe).
    pub(super) fn forward(
        &mut self,
        global: &CombinedBatch,
        next: Option<&CombinedBatch>,
        train: bool,
    ) -> Result<(Tensor2, CombinedBatch), SyncError> {
        // started collectives ride the comm lane behind compute; eval and
        // probe forwards must not disturb the lane's in-flight prefetch
        let lane = self.cfg.overlap && train;
        let prefetched = self.pending_input.take_if(|_| train);
        let PendingInput { sub, recv } = match prefetched {
            Some(p) => p,
            None => self.start_input_a2a(global, lane)?,
        };
        let b_loc = sub.batch_size();
        let recv = recv.wait()?;

        // owned-shard lookups over the global batch come first, so the
        // pooled exchange can start before the bottom MLP and hide behind it
        let sp = self.rec.span(Phase::EmbLookup);
        self.file_inputs(&recv, &sub)?;
        drop(recv);
        let mut owned_pooled = Vec::new();
        for sh in self.shards.iter_mut().filter(|sh| rides_a2a(&sh.geo)) {
            owned_pooled.push(sh.lookup(&self.rec, &sp)?);
        }
        drop(sp);

        // pooled AlltoAll for table-/column-wise shards (manifest order)
        let payloads = self.build_pooled_payloads(&owned_pooled, b_loc);
        let pooled = if lane {
            Pending::InFlight(self.comm.post_all_to_all_shared_quant(
                payloads,
                self.cfg.quant_fwd,
                Phase::AlltoallFwd.as_str(),
                self.iter,
            ))
        } else {
            let sp = self.rec.span(Phase::AlltoallFwd);
            let recv = self
                .comm
                .all_to_all_shared_quant(payloads, self.cfg.quant_fwd)?;
            drop(sp);
            Pending::Done(recv)
        };

        // bottom MLP on local dense features, while an overlapped pooled
        // AlltoAll is on the wire
        let sp = self.rec.span(Phase::FwdBottomMlp);
        let z0 = if train {
            self.bottom.forward(&sub.dense)
        } else {
            self.bottom.forward_inference(&sub.dense)
        };
        drop(sp);

        let pooled_recv = pooled.wait()?;
        let mut pooled_features = self.assemble_pooled_features(&pooled_recv, b_loc)?;

        // row-wise ReduceScatter + data-parallel lookups stay blocking
        self.row_and_dp_features(&mut pooled_features, b_loc)?;

        // double buffer: batch i+1's index exchange rides behind batch
        // i's interaction, top MLP, and the whole backward
        if let Some(nb) = next {
            self.pending_input = Some(self.start_input_a2a(nb, lane)?);
        }

        let logits = self.interact_and_top(z0, pooled_features, train)?;
        Ok((logits, sub))
    }
}
