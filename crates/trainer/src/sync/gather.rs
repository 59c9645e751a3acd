//! Gathering the sharded model to rank 0 (the publish-for-inference path).

use std::sync::Arc;

use neo_sharding::Shard;

use super::config::{err, SyncError};
use super::shard::Worker;

impl Worker {
    /// Gathers every embedding shard to rank 0 and reassembles the full
    /// trained model there — the "publish for inference" path. All ranks
    /// must call this (it is a collective); only rank 0 returns `Some`.
    pub(super) fn gather_model(&mut self) -> Result<Option<neo_dlrm_model::DlrmModel>, SyncError> {
        struct GatherMsg {
            geo: Shard,
            data: Vec<f32>,
        }
        let mut to_root: Vec<GatherMsg> = Vec::new();
        for sh in &mut self.shards {
            // replicas are identical everywhere; rank 0 contributes its own
            if sh.geo.division.is_none() && self.rank != 0 {
                continue;
            }
            let mut data = Vec::with_capacity(sh.geo.rows as usize * sh.geo.width);
            let mut buf = vec![0.0f32; sh.geo.width];
            for r in 0..sh.geo.rows {
                sh.store.read_row(r, &mut buf);
                data.extend_from_slice(&buf);
            }
            to_root.push(GatherMsg { geo: sh.geo, data });
        }
        let mut sends: Vec<Vec<GatherMsg>> = (0..self.world).map(|_| Vec::new()).collect();
        sends[0] = to_root;
        let received = self
            .comm
            .all_to_all_shared(sends.into_iter().map(Arc::new).collect())?;
        if self.rank != 0 {
            return Ok(None);
        }
        let mut model = neo_dlrm_model::DlrmModel::new(&self.cfg.model, self.cfg.seed)
            .map_err(|e| err(e.to_string()))?;
        model.bottom = self.bottom.clone();
        model.top = self.top.clone();
        for src in &received {
            for GatherMsg { geo, data } in src.iter() {
                let table = &mut model.tables[geo.table];
                let mut full = vec![0.0f32; table.dim()];
                for (r, slice) in data.chunks_exact(geo.width).enumerate() {
                    let global = geo.row_off + r as u64;
                    table.read_row(global, &mut full);
                    full[geo.col_off..geo.col_off + geo.width].copy_from_slice(slice);
                    table.write_row(global, &full);
                }
            }
        }
        Ok(Some(model))
    }
}

#[cfg(test)]
mod gather_and_optimizer_tests {
    use crate::init::reference_model;
    use crate::sync::{DenseOpt, SyncConfig, SyncTrainer};
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_dlrm_model::DlrmConfig;
    use neo_sharding::{Scheme, ShardingPlan, TablePlacement};

    fn mixed_plan(world: usize) -> ShardingPlan {
        ShardingPlan {
            world,
            placements: vec![
                TablePlacement {
                    table: 0,
                    scheme: Scheme::TableWise { worker: 1 % world },
                },
                TablePlacement {
                    table: 1,
                    scheme: Scheme::RowWise {
                        workers: (0..world).collect(),
                    },
                },
                TablePlacement {
                    table: 2,
                    scheme: Scheme::ColumnWise {
                        workers: vec![0, 2 % world],
                        split_dims: vec![4, 4],
                    },
                },
                TablePlacement {
                    table: 3,
                    scheme: Scheme::DataParallel,
                },
            ],
        }
    }

    fn setup() -> (DlrmConfig, SyntheticDataset) {
        let cfg = DlrmConfig::tiny(4, 64, 8);
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 64, 3, 4)).unwrap();
        (cfg, ds)
    }

    #[test]
    fn gathered_model_reproduces_distributed_probe_logits() {
        let (model, ds) = setup();
        let batches: Vec<_> = (0..6).map(|k| ds.batch(32, k)).collect();
        let probe = ds.batch(32, 900);
        let mut cfg = SyncConfig::exact(4, model, mixed_plan(4), 32);
        cfg.gather_final_model = true;
        let out = SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();

        let mut gathered = out.final_model.expect("gathered on rank 0");
        let local_logits = gathered.forward_inference(&probe).unwrap();
        let dist_logits = out.probe_logits.unwrap();
        let diff = local_logits.max_abs_diff(&dist_logits).unwrap();
        assert!(
            diff < 1e-4,
            "gathered model matches distributed shards: {diff}"
        );
    }

    #[test]
    fn gathered_untrained_model_equals_reference_init() {
        let (model, ds) = setup();
        let mut cfg = SyncConfig::exact(4, model.clone(), mixed_plan(4), 32);
        cfg.gather_final_model = true;
        // zero training steps: the gather must reproduce the deterministic init
        let out = SyncTrainer::new(cfg).train(&[], &[], 0, None).unwrap();
        let mut gathered = out.final_model.unwrap();
        let mut reference = reference_model(&model, 42).unwrap();
        let probe = ds.batch(32, 1);
        assert_eq!(
            gathered.forward_inference(&probe).unwrap(),
            reference.forward_inference(&probe).unwrap()
        );
    }

    #[test]
    fn gather_disabled_returns_none() {
        let (model, ds) = setup();
        let cfg = SyncConfig::exact(2, model, mixed_plan(2), 32);
        let out = SyncTrainer::new(cfg)
            .train(&[ds.batch(32, 0)], &[], 0, None)
            .unwrap();
        assert!(out.final_model.is_none());
    }

    #[test]
    fn dense_optimizers_all_train() {
        let (model, ds) = setup();
        let batches: Vec<_> = (0..25).map(|k| ds.batch(64, k)).collect();
        for opt in [
            DenseOpt::Sgd,
            DenseOpt::Adagrad,
            DenseOpt::Adam,
            DenseOpt::Lamb,
        ] {
            let mut cfg = SyncConfig::exact(2, model.clone(), mixed_plan(2), 64);
            cfg.dense_optimizer = opt;
            cfg.lr = match opt {
                DenseOpt::Sgd => 0.05,
                DenseOpt::Adagrad => 0.05,
                DenseOpt::Adam | DenseOpt::Lamb => 0.005,
            };
            let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None).unwrap();
            let head: f32 = out.losses[..5].iter().sum::<f32>() / 5.0;
            let tail: f32 = out.losses[20..].iter().sum::<f32>() / 5.0;
            assert!(tail < head, "{opt:?}: loss {head:.4} -> {tail:.4}");
        }
    }

    #[test]
    fn adam_replicas_stay_in_sync() {
        // optimizer state is per-replica; identical allreduced grads must
        // keep replicas bitwise identical, which the gathered model's MLPs
        // witness (they come from rank 0 while probe logits use all ranks)
        let (model, ds) = setup();
        let batches: Vec<_> = (0..5).map(|k| ds.batch(32, k)).collect();
        let probe = ds.batch(32, 901);
        let mut cfg = SyncConfig::exact(4, model, mixed_plan(4), 32);
        cfg.dense_optimizer = DenseOpt::Adam;
        cfg.lr = 0.005;
        cfg.gather_final_model = true;
        let out = SyncTrainer::new(cfg)
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();
        let mut gathered = out.final_model.unwrap();
        let diff = gathered
            .forward_inference(&probe)
            .unwrap()
            .max_abs_diff(&out.probe_logits.unwrap())
            .unwrap();
        assert!(diff < 1e-4, "{diff}");
    }
}
