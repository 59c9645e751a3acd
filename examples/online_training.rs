//! Online training: the paper's second deployment mode (§1).
//!
//! ```text
//! cargo run --release --example online_training
//! ```
//!
//! After offline pre-training, production DLRMs keep training on the data
//! they serve. Online training is latency-bound rather than
//! throughput-bound, so it runs at much smaller scale — which is exactly
//! why the paper needs hierarchical memory ("training very large models at
//! smaller scales", §4.1.3). This example:
//!
//! 1. pre-trains offline at "large" scale (4 workers, big batches);
//! 2. gathers the trained model to a single host;
//! 3. continues training *online* on a drifting click distribution at
//!    small batch, with the embedding tables behind the software cache;
//! 4. shows NE tracking the drift, and the cache absorbing the hot set.

use neo_dlrm::embeddings::bag::{pooled_backward, pooled_forward};
use neo_dlrm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = DlrmConfig::tiny(4, 4096, 8);
    let offline = SyntheticDataset::new(SyntheticConfig::uniform(4, 4096, 4, 4).with_seed(100))?;

    // ---- phase 1: offline pre-training, 4 workers ----
    let specs: Vec<TableSpec> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let plan =
        Planner::new(CostModel::v100_prototype(256), PlannerConfig::default()).plan(&specs, 4)?;
    let mut cfg = SyncConfig::exact(4, model.clone(), plan, 256);
    cfg.lr = 0.25;
    cfg.gather_final_model = true;
    let batches: Vec<_> = (0..200u64).map(|k| offline.batch(256, k)).collect();
    let out = SyncTrainer::new(cfg).train(&batches, &[], 0, None)?;
    let mut served = out.final_model.expect("gathered model");
    println!(
        "offline: {} iterations, loss {:.4} -> {:.4}",
        out.losses.len(),
        out.losses[0],
        out.losses.last().unwrap()
    );

    // ---- phase 2: move embeddings behind the software cache ----
    // (online deployments run on fewer, smaller hosts)
    let mut tables: Vec<TieredStore> = Vec::new();
    for t in &mut served.tables {
        let dense = DenseStore::from_tensor(t.to_dense());
        tables.push(TieredStore::new(Box::new(dense), 512, Policy::Lfu));
    }
    let mut opts: Vec<SparseSgd> = (0..4).map(|_| SparseSgd::new(0.05)).collect();

    // ---- phase 3: online stream with drifted distribution ----
    let online = SyntheticDataset::new(
        SyntheticConfig::uniform(4, 4096, 4, 4).with_seed(777), // drifted teacher
    )?;
    let mut ne_before = NormalizedEntropy::new();
    let mut ne_after = NormalizedEntropy::new();
    for step in 0..400u64 {
        let batch = online.batch(32, step);
        // serve: forward through bottom MLP + cached tables + top MLP
        let z0 = served.bottom.forward(&batch.dense);
        let mut features = vec![z0];
        for (t, table) in tables.iter_mut().enumerate() {
            let (lens, idx) = batch.table_inputs(t);
            features.push(pooled_forward(table, lens, idx)?);
        }
        let refs: Vec<&Tensor2> = features.iter().collect();
        let inter = neo_dlrm::dlrm::interaction::dot_interaction(&refs)?;
        let top_in = Tensor2::hcat(&[&features[0], &inter])?;
        let logits = served.top.forward(&top_in);
        let slot = if step < 50 {
            &mut ne_before
        } else {
            &mut ne_after
        };
        slot.observe_logits(&logits, &batch.labels);

        // learn online: full backward, small-batch updates
        let (_, grad) = bce_with_logits(&logits, &batch.labels)?;
        let g_top = served.top.backward(&grad)?;
        let d = 8;
        let pairs = neo_dlrm::dlrm::interaction::num_pairs(5);
        let splits = g_top.hsplit(&[d, pairs])?;
        let mut g_feats = neo_dlrm::dlrm::interaction::dot_interaction_backward(&refs, &splits[1])?;
        g_feats[0] += &splits[0];
        served.bottom.backward_params(&g_feats[0])?;
        served.dense_sgd_step(0.05);
        for (t, table) in tables.iter_mut().enumerate() {
            let (lens, idx) = batch.table_inputs(t);
            let sg = pooled_backward(lens, idx, &g_feats[t + 1])?;
            opts[t].step(table, &sg);
        }
    }
    println!(
        "online: NE on drifted traffic {:.4} (first 50 batches) -> {:.4} (after adapting)",
        ne_before.value().unwrap_or(f64::NAN),
        ne_after.value().unwrap_or(f64::NAN)
    );
    let stats = tables[0].cache_stats();
    println!(
        "cache (LFU, 512 rows over 4096): hit rate {:.1}% across {} accesses",
        stats.hit_rate() * 100.0,
        stats.hits + stats.misses
    );
    for t in &mut tables {
        t.flush();
    }
    println!("flushed caches — every updated row is in the backing store");
    Ok(())
}
