//! The §5.3.3 capacity study, both arithmetic and mechanism.
//!
//! ```text
//! cargo run --release --example capacity_f1
//! ```
//!
//! Part 1 reproduces the paper's capacity chain for the 12T-parameter
//! model F1 (96 TB naive → 24 TB after row-wise AdaGrad + FP16, fitting the
//! 16-node HBM+DRAM hierarchy). Part 2 demonstrates the mechanism at
//! laptop scale: an embedding table bigger than its "HBM" trains through
//! the 32-way set-associative software cache with LRU replacement, and the
//! Zipf-skewed access pattern keeps the hit rate high.

use neo_dlrm::embeddings::bag::{pooled_backward, pooled_forward};
use neo_dlrm::perfmodel::capacity::{capacity_chain, fit_on_cluster};
use neo_dlrm::prelude::*;
use neo_dlrm::trainer::init::det_fill;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- part 1: the paper's arithmetic ----
    println!("capacity chain for model F1 (12T parameters) on 16 nodes:");
    for step in capacity_chain(&ModelProfile::f1()) {
        let fit = fit_on_cluster(step.bytes, 16);
        println!(
            "  {:<28} {:>8.1} TB  fits: {}",
            step.label,
            step.bytes / 1e12,
            if fit.fits { "yes" } else { "NO" }
        );
    }

    // ---- part 2: the mechanism, for real ----
    // a 200k-row table backed by "DDR", fronted by a 16k-row "HBM" cache
    let rows: u64 = 200_000;
    let dim = 32;
    let backing =
        DenseStore::from_rows(rows, dim, |r, block| det_fill(1, 0, rows, r, 0, dim, block));
    let mut table = TieredStore::new(Box::new(backing), 16_384, Policy::Lru);
    let mut opt = RowWiseAdagrad::new(0.05, 1e-8, rows);

    // Zipf-skewed lookups + updates, the production access pattern
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(1, rows, 8, 2))?;
    for step in 0..50u64 {
        let batch = ds.batch(512, step);
        let (lens, idx) = batch.table_inputs(0);
        let pooled = pooled_forward(&mut table, lens, idx)?;
        // pretend gradient: pull pooled outputs toward zero
        let grad = pooled.map(|v| v * 1e-3);
        let sparse = pooled_backward(lens, idx, &grad)?;
        opt.step(&mut table, &sparse);
    }
    let stats = table.cache_stats();
    println!(
        "\ntiered table: {} rows behind a {}-row cache ({}x over-subscription)",
        rows,
        table.cache_capacity_rows(),
        rows as usize / table.cache_capacity_rows()
    );
    println!(
        "  cache hit rate {:.1}% over {} accesses, {} writebacks",
        stats.hit_rate() * 100.0,
        stats.hits + stats.misses,
        stats.writebacks
    );
    table.flush();
    println!("  flushed dirty rows to the backing tier");
    Ok(())
}
