//! Memory-tier descriptors for the ZionEX hierarchy (HBM + DDR + SSD).
//!
//! Capacities and bandwidths follow Table 2 of the paper (per-node prototype
//! configuration). The trainer and the capacity study (§5.3.3) use these to
//! decide where each embedding shard lives and what a fill/writeback costs.

use serde::{Deserialize, Serialize};

/// One level of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// On-package high-bandwidth memory (per-GPU).
    Hbm,
    /// Host DRAM reachable over PCIe.
    Ddr,
    /// NVMe flash, the final backstop for 10T+-parameter models.
    Ssd,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Hbm => write!(f, "HBM"),
            Tier::Ddr => write!(f, "DDR"),
            Tier::Ssd => write!(f, "SSD"),
        }
    }
}

/// Capacity and bandwidth of one tier (node-aggregate numbers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Which level this describes.
    pub tier: Tier,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Sustained read bandwidth in bytes/second.
    pub read_bw: f64,
    /// Sustained write bandwidth in bytes/second.
    pub write_bw: f64,
    /// Access latency in seconds (per random row touch).
    pub latency_s: f64,
}

/// A full per-node memory hierarchy, ordered fastest-first.
///
/// # Example
///
/// ```
/// use neo_memory::MemoryHierarchy;
/// let h = MemoryHierarchy::zionex_prototype_node();
/// assert_eq!(h.total_capacity_bytes(), h.tiers().iter().map(|t| t.capacity_bytes).sum());
/// // Table 2: 256 GB HBM per node
/// assert_eq!(h.tiers()[0].capacity_bytes, 256 * (1 << 30));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryHierarchy {
    tiers: Vec<TierSpec>,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from tier specs (must be ordered fastest-first).
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    pub fn new(tiers: Vec<TierSpec>) -> Self {
        assert!(!tiers.is_empty(), "hierarchy needs at least one tier");
        Self { tiers }
    }

    /// The per-node hierarchy of the prototype cluster (Table 2):
    /// 256 GB HBM @ 7.2 TB/s, 1.5 TB DDR @ 200 GB/s, plus a 3.2 TB NVMe
    /// tier @ 6 GB/s for the F1 capacity study.
    pub fn zionex_prototype_node() -> Self {
        const GIB: u64 = 1 << 30;
        Self::new(vec![
            TierSpec {
                tier: Tier::Hbm,
                capacity_bytes: 256 * GIB,
                read_bw: 7.2e12,
                write_bw: 7.2e12,
                latency_s: 1e-7,
            },
            TierSpec {
                tier: Tier::Ddr,
                capacity_bytes: 1536 * GIB,
                read_bw: 200e9,
                write_bw: 200e9,
                latency_s: 5e-7,
            },
            TierSpec {
                tier: Tier::Ssd,
                capacity_bytes: 3200 * GIB,
                read_bw: 6e9,
                write_bw: 2e9,
                latency_s: 1e-4,
            },
        ])
    }

    /// Tier specs, fastest first.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Looks up a specific tier.
    pub fn tier(&self, tier: Tier) -> Option<&TierSpec> {
        self.tiers.iter().find(|t| t.tier == tier)
    }

    /// Sum of all tier capacities.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.tiers.iter().map(|t| t.capacity_bytes).sum()
    }

    /// Greedily places `bytes` across tiers fastest-first, returning
    /// `(tier, bytes_on_tier)` for each tier used.
    ///
    /// This is the placement rule of the capacity study: fill HBM, spill to
    /// DDR, then SSD.
    ///
    /// # Errors
    ///
    /// Returns the shortfall in bytes if the model does not fit at all.
    pub fn place(&self, bytes: u64) -> Result<Vec<(Tier, u64)>, u64> {
        let mut remaining = bytes;
        let mut placement = Vec::new();
        for spec in &self.tiers {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(spec.capacity_bytes);
            if take > 0 {
                placement.push((spec.tier, take));
                remaining -= take;
            }
        }
        if remaining > 0 {
            Err(remaining)
        } else {
            Ok(placement)
        }
    }

    /// Effective random-read bandwidth for a working set of `bytes` placed
    /// by [`MemoryHierarchy::place`]: the harmonic (byte-weighted) mean of
    /// the tier bandwidths, i.e. time to stream the working set once.
    pub fn effective_read_bw(&self, bytes: u64) -> Option<f64> {
        let placement = self.place(bytes).ok()?;
        let total: u64 = placement.iter().map(|(_, b)| *b).sum();
        let time: f64 = placement
            .iter()
            .map(|(tier, b)| {
                #[expect(
                    clippy::expect_used,
                    reason = "place() only assigns bytes to known tiers"
                )]
                let spec = self.tier(*tier).expect("placed tier exists");
                *b as f64 / spec.read_bw
            })
            .sum();
        Some(total as f64 / time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_table2() {
        let h = MemoryHierarchy::zionex_prototype_node();
        assert_eq!(h.tier(Tier::Hbm).unwrap().read_bw, 7.2e12);
        assert_eq!(h.tier(Tier::Ddr).unwrap().capacity_bytes, 1536 << 30);
        assert!(h.tier(Tier::Ssd).is_some());
    }

    #[test]
    fn placement_spills_fastest_first() {
        let h = MemoryHierarchy::zionex_prototype_node();
        let p = h.place(300 << 30).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], (Tier::Hbm, 256 << 30));
        assert_eq!(p[1], (Tier::Ddr, 44 << 30));
    }

    #[test]
    fn placement_fits_exactly_in_hbm() {
        let h = MemoryHierarchy::zionex_prototype_node();
        let p = h.place(256 << 30).unwrap();
        assert_eq!(p, vec![(Tier::Hbm, 256 << 30)]);
    }

    #[test]
    fn placement_overflow_reports_shortfall() {
        let h = MemoryHierarchy::zionex_prototype_node();
        let total = h.total_capacity_bytes();
        assert_eq!(h.place(total + 5), Err(5));
    }

    #[test]
    fn effective_bw_degrades_with_spill() {
        let h = MemoryHierarchy::zionex_prototype_node();
        let hbm_only = h.effective_read_bw(100 << 30).unwrap();
        let spilled = h.effective_read_bw(1000 << 30).unwrap();
        assert!(hbm_only > spilled);
        assert!((hbm_only - 7.2e12).abs() / 7.2e12 < 1e-9);
    }

    #[test]
    fn tier_display() {
        assert_eq!(Tier::Hbm.to_string(), "HBM");
        assert_eq!(Tier::Ssd.to_string(), "SSD");
    }
}
