//! Shared helpers for the `figures` harness: turning Table-3 model
//! profiles into sharding problems and extracting the plan quality
//! numbers the performance model consumes.

#![deny(missing_docs)]

use neo_dlrm_model::ModelProfile;
use neo_sharding::cost::ShardDivision;
use neo_sharding::partition::{greedy_capacitated, imbalance, karmarkar_karp};
use neo_sharding::{CostModel, TableSpec};

/// Per-GPU usable HBM after the framework/NCCL reserve (§5.3.2 discusses
/// the reserve explicitly; V100 = 32 GB raw).
pub const USABLE_HBM_PER_GPU: u64 = 24 << 30;

/// Sharding specs for a profile's synthetic tables.
#[must_use]
pub fn table_specs(p: &ModelProfile) -> Vec<TableSpec> {
    p.synthetic_tables()
        .into_iter()
        .enumerate()
        .map(|(i, (rows, dim, pooling))| TableSpec::new(i, rows, dim, pooling))
        .collect()
}

/// Result of the capacity-aware balance analysis for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalanceReport {
    /// `max / mean` per-worker embedding cost.
    pub imbalance: f64,
    /// Whether every worker stayed within its memory budget.
    pub feasible: bool,
    /// Mean per-GPU embedding memory in bytes.
    pub mean_mem_per_gpu: f64,
    /// Fraction of embedding bytes that overflowed HBM and must be served
    /// from host memory over PCIe (0 when feasible).
    pub spill_fraction: f64,
}

impl ImbalanceReport {
    /// HBM-to-PCIe bandwidth ratio (850 GB/s vs 13 GB/s) used to price
    /// spilled rows.
    const SPILL_SLOWDOWN: f64 = 850.0 / 13.0;

    /// The imbalance inflated by UVM spill: rows that do not fit in HBM are
    /// served at PCIe speed, so a small spill fraction costs dearly — this
    /// is exactly why §5.3.2 calls FP16 storage a load-balance optimization.
    #[must_use]
    pub fn effective_imbalance(&self) -> f64 {
        self.imbalance * (1.0 + self.spill_fraction * (Self::SPILL_SLOWDOWN - 1.0))
    }
}

/// Computes the achievable load balance for a model on a cluster,
/// respecting per-GPU memory capacity — the quantity Fig. 13's first three
/// optimization steps move.
///
/// `mixed` enables the full scheme mix of §4.2 (row/column/data-parallel);
/// `false` is the table-wise-only baseline. `bytes_per_elem` is 4 for FP32
/// tables, 2 for FP16.
#[must_use]
pub fn capacity_aware_imbalance(
    p: &ModelProfile,
    nodes: usize,
    bytes_per_elem: u64,
    global_batch: usize,
    mixed: bool,
) -> ImbalanceReport {
    let world = nodes * 8;
    let cm = CostModel {
        bytes_per_elem: bytes_per_elem as f64,
        ..CostModel::v100_prototype(global_batch)
    };
    let specs = table_specs(p);
    let cap = USABLE_HBM_PER_GPU;

    // classify: anything that cannot fit on one GPU must be row-sharded
    // regardless of `mixed`; with `mixed` we also split wide tables
    // column-wise and replicate tiny ones
    let mut base_cost_per_worker = 0.0f64; // spread-evenly work (row-wise, dp)
    let mut base_mem_per_worker = 0u64;
    let mut costs = Vec::new();
    let mut mems = Vec::new();
    for t in &specs {
        let bytes = t.param_bytes(bytes_per_elem);
        if bytes > cap / 2 && world > 1 {
            base_cost_per_worker += cm.shard_cost(t, ShardDivision::Row, world);
            base_mem_per_worker += bytes / world as u64;
        } else if mixed && t.num_rows <= 4096 {
            // data-parallel replica: local lookups only, even by design
            base_mem_per_worker += bytes;
        } else if mixed && t.dim >= 128 && world >= 4 {
            let parts = 4;
            for _ in 0..parts {
                costs.push(cm.shard_cost(t, ShardDivision::Column, parts));
                mems.push(bytes / parts as u64);
            }
        } else {
            costs.push(cm.table_cost(t));
            mems.push(bytes);
        }
    }

    let remaining_cap = cap.saturating_sub(base_mem_per_worker);
    let total_mem: u64 = mems.iter().sum();
    let memory_loose = total_mem < (world as u64 * remaining_cap) / 2;

    let (assignment, feasible) = if costs.is_empty() {
        (Vec::new(), true)
    } else if !mixed {
        // the unoptimized baseline of Fig. 13: tables assigned without a
        // cost model (size-ordered round-robin), which is what produced the
        // "large latency disparities between embedding lookup on different
        // GPUs" the paper starts from
        ((0..costs.len()).map(|i| i % world).collect(), true)
    } else if memory_loose {
        // plenty of headroom: use the better cost-only heuristic (LDM)
        (karmarkar_karp(&costs, world), true)
    } else {
        greedy_capacitated(&costs, &mems, world, remaining_cap)
    };

    // memory spill: bytes beyond capacity on any bin are UVM-resident
    let spill_fraction = if costs.is_empty() || feasible {
        0.0
    } else {
        let mut mem_sums = vec![0u64; world];
        for (&m, &b) in mems.iter().zip(&assignment) {
            mem_sums[b] += m;
        }
        let spilled: u64 = mem_sums
            .iter()
            .map(|&m| m.saturating_sub(remaining_cap))
            .sum();
        spilled as f64 / total_mem.max(1) as f64
    };

    let imb = if costs.is_empty() {
        1.0
    } else {
        // fold the evenly-spread base load into the ratio
        let mut sums = vec![0.0f64; world];
        for (&c, &b) in costs.iter().zip(&assignment) {
            sums[b] += c;
        }
        let mean: f64 = sums.iter().sum::<f64>() / world as f64 + base_cost_per_worker;
        let max = sums.iter().copied().fold(0.0, f64::max) + base_cost_per_worker;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };
    let _ = imbalance; // (re-exported path used by benches)
    let mean_mem = total_mem as f64 / world as f64 + base_mem_per_worker as f64;
    ImbalanceReport {
        imbalance: imb.max(1.0),
        feasible,
        mean_mem_per_gpu: mean_mem,
        spill_fraction,
    }
}

/// Formats bytes human-readably for reports.
#[must_use]
pub fn fmt_bytes(b: f64) -> String {
    const UNITS: [&str; 6] = ["B", "KB", "MB", "GB", "TB", "PB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_sharding_balances_a2_better() {
        let p = ModelProfile::a2();
        let base = capacity_aware_imbalance(&p, 16, 4, 65536, false);
        let opt = capacity_aware_imbalance(&p, 16, 4, 65536, true);
        assert!(
            opt.imbalance < base.imbalance,
            "mixed {:.3} < table-wise {:.3}",
            opt.imbalance,
            base.imbalance
        );
    }

    #[test]
    fn fp16_gives_headroom_on_a2() {
        // Fig. 13 step 2: at FP32, A2 (~3 TB) nearly fills 128 x 26 GB; at
        // FP16 the sharder balances freely
        let p = ModelProfile::a2();
        let fp32 = capacity_aware_imbalance(&p, 16, 4, 65536, true);
        let fp16 = capacity_aware_imbalance(&p, 16, 2, 65536, true);
        assert!(
            fp16.imbalance <= fp32.imbalance,
            "fp16 {:.3} <= fp32 {:.3}",
            fp16.imbalance,
            fp32.imbalance
        );
        assert!(
            fp32.mean_mem_per_gpu > 0.7 * USABLE_HBM_PER_GPU as f64,
            "fp32 is tight"
        );
    }

    #[test]
    fn a1_imbalance_worsens_with_scale() {
        // §5.3.1: A1's ~100 tables cannot balance 128 GPUs as well as 16
        let p = ModelProfile::a1();
        let small = capacity_aware_imbalance(&p, 2, 4, 65536, true);
        let large = capacity_aware_imbalance(&p, 16, 4, 65536, true);
        assert!(
            large.imbalance > small.imbalance,
            "{:?} vs {:?}",
            large,
            small
        );
    }

    #[test]
    fn table_specs_cover_profile() {
        assert_eq!(table_specs(&ModelProfile::a1()).len(), 100);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512.0), "512.0 B");
        assert_eq!(fmt_bytes(3.5 * 1024.0 * 1024.0), "3.5 MB");
    }
}
