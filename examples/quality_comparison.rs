//! Fig. 10 at laptop scale: async small-batch parameter-server training vs
//! synchronous large-batch training on the same synthetic CTR stream.
//!
//! ```text
//! cargo run --release --example quality_comparison
//! ```
//!
//! The paper's claim: synchronous large-batch training reaches on-par or
//! better normalized entropy than the legacy asynchronous system despite a
//! ~400x larger batch.

use neo_dlrm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = DlrmConfig::tiny(4, 512, 8);
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 512, 4, 4))?;
    let eval: Vec<_> = (20_000..20_008).map(|k| ds.batch(256, k)).collect();

    // async: 4 logical trainers, batch 16, stale dense snapshots
    let mut ps = PsTrainer::new(PsConfig {
        model: model.clone(),
        num_trainers: 4,
        batch_size: 16,
        staleness: 8,
        lr: 0.03,
        seed: 7,
    })?;
    println!("async parameter server (B=16, staleness 8):");
    for (samples, ne) in ps.train(&ds, 2048, &eval)?.iter().step_by(2) {
        println!("  {samples:>7} samples  NE {ne:.4}");
    }

    // sync: global batch 256 over 4 workers
    let specs: Vec<TableSpec> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let plan =
        Planner::new(CostModel::v100_prototype(256), PlannerConfig::default()).plan(&specs, 4)?;
    // linear LR scaling for the 16x larger batch (0.03 * 256/16 ~= 0.5) —
    // the "appropriately tuned hyper-parameters" of §5.3
    let mut cfg = SyncConfig::exact(4, model, plan, 256);
    cfg.lr = 0.5;
    cfg.seed = 7;
    let batches: Vec<_> = (0..128u64).map(|k| ds.batch(256, k + 50_000)).collect();
    let out = SyncTrainer::new(cfg).train(&batches, &eval, 16, None)?;
    println!("sync large batch (B=256, 4 workers):");
    for (samples, ne) in &out.ne_curve {
        println!("  {samples:>7} samples  NE {ne:.4}");
    }
    Ok(())
}
