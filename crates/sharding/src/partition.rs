//! Placement heuristics (§4.2.5): greedy and Karmarkar–Karp (LDM).
//!
//! Both take a list of shard costs and a bin count and return a bin
//! assignment per shard. Greedy sorts descending and always drops the next
//! shard into the lightest bin; LDM (the *largest differencing method*)
//! repeatedly merges the two most spread partial solutions, "directly
//! reducing the difference of sums", and usually beats greedy.

/// Assignment quality: `(max bin sum) / (mean bin sum)`; 1.0 is perfect.
///
/// # Panics
///
/// Panics if `assignment` and `costs` lengths differ, a bin index is out of
/// range, or the total cost is zero.
#[must_use]
pub fn imbalance(costs: &[f64], assignment: &[usize], bins: usize) -> f64 {
    assert_eq!(costs.len(), assignment.len(), "one bin per cost");
    let mut sums = vec![0.0f64; bins];
    for (&c, &b) in costs.iter().zip(assignment) {
        sums[b] += c;
    }
    let total: f64 = sums.iter().sum();
    assert!(total > 0.0, "imbalance undefined for zero total cost");
    let mean = total / bins as f64;
    sums.iter().copied().fold(0.0, f64::max) / mean
}

/// Greedy heuristic: sort costs descending, place each on the currently
/// lightest bin. Ties broken by lowest bin index (deterministic).
///
/// # Panics
///
/// Panics if `bins == 0`.
#[must_use]
pub fn greedy(costs: &[f64], bins: usize) -> Vec<usize> {
    assert!(bins > 0, "need at least one bin");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let mut sums = vec![0.0f64; bins];
    let mut assignment = vec![0usize; costs.len()];
    for &i in &order {
        #[expect(clippy::expect_used, reason = "bins > 0 is asserted at function entry")]
        let bin = sums
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(k, _)| k)
            .expect("bins > 0"); // lint: allow(panic_path) — bins > 0 is asserted at function entry
        assignment[i] = bin;
        sums[bin] += costs[i];
    }
    assignment
}

/// Greedy placement under a per-bin memory capacity: balance cost, but
/// never place a shard on a bin whose memory would exceed `cap` if any
/// bin with room exists.
///
/// This is what makes FP16 embedding storage a *throughput* optimization
/// in Fig. 13: at FP32 the A2 model nearly fills aggregate HBM, so the
/// sharder is forced into memory-feasible but cost-imbalanced placements;
/// halving the footprint restores its freedom.
///
/// Returns the assignment and whether every bin stayed within `cap`.
///
/// # Panics
///
/// Panics if `bins == 0` or the slices disagree in length.
#[must_use]
pub fn greedy_capacitated(
    costs: &[f64],
    mems: &[u64],
    bins: usize,
    cap: u64,
) -> (Vec<usize>, bool) {
    assert!(bins > 0, "need at least one bin");
    assert_eq!(costs.len(), mems.len(), "one memory size per cost");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let mut cost_sums = vec![0.0f64; bins];
    let mut mem_sums = vec![0u64; bins];
    let mut assignment = vec![0usize; costs.len()];
    let mut feasible = true;
    for &i in &order {
        // lightest (by cost) bin that still has memory room
        let candidate = (0..bins)
            .filter(|&b| mem_sums[b] + mems[i] <= cap)
            .min_by(|&a, &b| cost_sums[a].total_cmp(&cost_sums[b]));
        let bin = match candidate {
            Some(b) => b,
            None => {
                // nothing fits: overflow onto the emptiest bin by memory
                feasible = false;
                #[expect(clippy::expect_used, reason = "bins > 0 is asserted at function entry")]
                (0..bins).min_by_key(|&b| mem_sums[b]).expect("bins > 0")
            }
        };
        assignment[i] = bin;
        cost_sums[bin] += costs[i];
        mem_sums[bin] += mems[i];
    }
    (assignment, feasible)
}

/// A partial solution in the LDM heap: `bins` lists of items with their
/// sums, kept sorted by descending sum.
#[derive(Debug, Clone)]
struct Tuple {
    /// `(sum, items)` per bin, descending by sum.
    bins: Vec<(f64, Vec<usize>)>,
}

impl Tuple {
    fn spread(&self) -> f64 {
        self.bins.first().map_or(0.0, |f| f.0) - self.bins.last().map_or(0.0, |l| l.0)
    }
}

/// Karmarkar–Karp largest differencing method for `bins`-way partitioning.
///
/// Each item starts as its own tuple; the algorithm repeatedly pops the two
/// tuples with the largest spreads and merges them by pairing the heaviest
/// bin of one with the lightest bin of the other.
///
/// # Panics
///
/// Panics if `bins == 0`.
#[must_use]
pub fn karmarkar_karp(costs: &[f64], bins: usize) -> Vec<usize> {
    assert!(bins > 0, "need at least one bin");
    if costs.is_empty() {
        return Vec::new();
    }
    // seed: one tuple per item
    let mut heap: Vec<Tuple> = costs
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let mut b = vec![(0.0, Vec::new()); bins];
            b[0] = (c, vec![i]);
            Tuple { bins: b }
        })
        .collect();

    while heap.len() > 1 {
        // pop the two largest spreads (linear scan keeps this simple and
        // deterministic; shard counts are small)
        heap.sort_by(|a, b| b.spread().total_cmp(&a.spread()));
        let a = heap.remove(0);
        let b = heap.remove(0);
        // pair a's heaviest with b's lightest
        let mut merged: Vec<(f64, Vec<usize>)> = a
            .bins
            .into_iter()
            .zip(b.bins.into_iter().rev())
            .map(|((sa, mut ia), (sb, ib))| {
                ia.extend(ib);
                (sa + sb, ia)
            })
            .collect();
        merged.sort_by(|x, y| y.0.total_cmp(&x.0));
        heap.push(Tuple { bins: merged });
    }

    #[expect(
        clippy::expect_used,
        reason = "non-empty costs seed the heap and merging keeps one tuple"
    )]
    let solution = heap.pop().expect("nonempty heap"); // lint: allow(panic_path) — the heap is seeded from nonempty costs and merging always leaves one tuple
    let mut assignment = vec![0usize; costs.len()];
    for (bin, (_, items)) in solution.bins.iter().enumerate() {
        for &i in items {
            assignment[i] = bin;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_balances_simple_case() {
        let costs = [5.0, 4.0, 3.0, 2.0];
        let a = greedy(&costs, 2);
        // 5+2 vs 4+3
        assert!((imbalance(&costs, &a, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kk_classic_example() {
        // {4,5,6,7,8} into 2: the classic KK run leaves a final difference
        // of 2 (bins 16 and 14) — not optimal (15/15), but tight.
        let costs = [4.0, 5.0, 6.0, 7.0, 8.0];
        let a = karmarkar_karp(&costs, 2);
        let mut sums = [0.0f64; 2];
        for (&c, &b) in costs.iter().zip(&a) {
            sums[b] += c;
        }
        assert!((sums[0] - sums[1]).abs() <= 2.0 + 1e-9, "{a:?} -> {sums:?}");
    }

    #[test]
    fn kk_beats_or_ties_greedy_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let mut kk_wins = 0;
        let mut greedy_wins = 0;
        for _ in 0..50 {
            let n = rng.gen_range(8..40);
            let bins = rng.gen_range(2..8);
            let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..10.0f64)).collect();
            let ig = imbalance(&costs, &greedy(&costs, bins), bins);
            let ik = imbalance(&costs, &karmarkar_karp(&costs, bins), bins);
            if ik < ig - 1e-12 {
                kk_wins += 1;
            }
            if ig < ik - 1e-12 {
                greedy_wins += 1;
            }
        }
        assert!(
            kk_wins > greedy_wins,
            "LDM should usually work better (paper §4.2.5): kk {kk_wins} vs greedy {greedy_wins}"
        );
    }

    #[test]
    fn assignments_cover_all_items() {
        let costs: Vec<f64> = (1..=13).map(|i| i as f64).collect();
        for bins in [1, 3, 5] {
            for a in [greedy(&costs, bins), karmarkar_karp(&costs, bins)] {
                assert_eq!(a.len(), costs.len());
                assert!(a.iter().all(|&b| b < bins));
            }
        }
    }

    #[test]
    fn single_bin_puts_everything_together() {
        let costs = [1.0, 2.0, 3.0];
        assert_eq!(greedy(&costs, 1), vec![0, 0, 0]);
        assert_eq!(karmarkar_karp(&costs, 1), vec![0, 0, 0]);
    }

    #[test]
    fn more_bins_than_items_spreads_them() {
        let costs = [3.0, 1.0];
        let a = greedy(&costs, 4);
        assert_ne!(a[0], a[1]);
        let k = karmarkar_karp(&costs, 4);
        assert_ne!(k[0], k[1]);
    }

    #[test]
    fn empty_input() {
        assert!(greedy(&[], 3).is_empty());
        assert!(karmarkar_karp(&[], 3).is_empty());
    }

    #[test]
    fn imbalance_of_skewed_assignment() {
        let costs = [1.0, 1.0, 1.0, 1.0];
        let all_on_zero = vec![0, 0, 0, 0];
        assert!((imbalance(&costs, &all_on_zero, 4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capacitated_respects_capacity_when_possible() {
        let costs = [10.0, 9.0, 8.0, 1.0];
        let mems = [6u64, 6, 6, 6];
        let (a, feasible) = greedy_capacitated(&costs, &mems, 2, 12);
        assert!(feasible);
        let mut mem_sums = [0u64; 2];
        for (&m, &b) in mems.iter().zip(&a) {
            mem_sums[b] += m;
        }
        assert!(mem_sums.iter().all(|&m| m <= 12));
    }

    #[test]
    fn tight_capacity_worsens_balance() {
        // one heavy-cost light-memory item + several light-cost heavy-memory
        // items: with tight memory the heavy-cost item can't pair with a
        // balanced partner
        let costs = [10.0, 10.0, 1.0, 1.0, 1.0, 1.0];
        let mems = [8u64, 8, 4, 4, 4, 4];
        let loose = greedy_capacitated(&costs, &mems, 2, 100).0;
        let (tight, feasible) = greedy_capacitated(&costs, &mems, 2, 16);
        assert!(feasible);
        let il = imbalance(&costs, &loose, 2);
        let it = imbalance(&costs, &tight, 2);
        assert!(it >= il, "tight {it:.3} >= loose {il:.3}");
    }

    #[test]
    fn infeasible_overflows_gracefully() {
        let costs = [1.0, 1.0];
        let mems = [10u64, 10];
        let (a, feasible) = greedy_capacitated(&costs, &mems, 1, 5);
        assert!(!feasible);
        assert_eq!(a, vec![0, 0]);
    }

    #[test]
    fn deterministic() {
        let costs: Vec<f64> = (0..30).map(|i| ((i * 37) % 11) as f64 + 0.5).collect();
        assert_eq!(greedy(&costs, 4), greedy(&costs, 4));
        assert_eq!(karmarkar_karp(&costs, 4), karmarkar_karp(&costs, 4));
    }
}
