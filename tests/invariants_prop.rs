//! Property-based cross-crate invariants.

use neo_dlrm::collectives::ProcessGroup;
use neo_dlrm::dataio::ops::{bucketize_rows, permute_wtb_to_twb, row_block_size};
use neo_dlrm::dataio::CombinedBatch;
use neo_dlrm::embeddings::bag::SparseGrad;
use neo_dlrm::embeddings::optim::merge_grads;
use neo_dlrm::embeddings::{DenseStore, RowStore, TieredStore};
use neo_dlrm::memory::Policy;
use neo_dlrm::sharding::partition::{greedy, imbalance, karmarkar_karp};
use neo_dlrm::sharding::{Scheme, ShardingPlan, TablePlacement, TableSpec};
use neo_dlrm::tensor::{Tensor2, F16};
use proptest::prelude::*;

/// Strategy: a well-formed combined batch.
fn batch_strategy() -> impl Strategy<Value = CombinedBatch> {
    (1usize..5, 2usize..9)
        .prop_flat_map(|(tables, batch)| {
            let lengths = proptest::collection::vec(0u32..4, tables * batch);
            (Just(tables), Just(batch), lengths)
        })
        .prop_flat_map(|(tables, batch, lengths)| {
            let total: usize = lengths.iter().map(|&l| l as usize).sum();
            let indices = proptest::collection::vec(0u64..50, total);
            let labels = proptest::collection::vec(0u32..2, batch);
            (Just(tables), Just(batch), Just(lengths), indices, labels)
        })
        .prop_map(|(tables, batch, lengths, indices, labels)| {
            CombinedBatch::new(
                batch,
                tables,
                lengths,
                indices,
                Tensor2::from_fn(batch, 3, |i, j| (i * 3 + j) as f32 * 0.1),
                labels.into_iter().map(|l| l as f32).collect(),
            )
            .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// split-then-concat is the identity for any divisor of the batch.
    #[test]
    fn batch_split_concat_roundtrip(batch in batch_strategy(), parts in 1usize..5) {
        prop_assume!(batch.batch_size().is_multiple_of(parts));
        let split = batch.split(parts).unwrap();
        let rejoined = CombinedBatch::concat(&split).unwrap();
        prop_assert_eq!(rejoined, batch);
    }

    /// bucketize preserves every (bag, global-row) pair.
    #[test]
    fn bucketize_preserves_pairs(
        lengths in proptest::collection::vec(0u32..5, 1..8),
        shards in 1usize..5,
    ) {
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        let num_rows = 40u64;
        let indices: Vec<u64> = (0..total as u64).map(|i| (i * 7) % num_rows).collect();
        let bz = bucketize_rows(shards, num_rows, &lengths, &indices).unwrap();
        let block = row_block_size(num_rows, shards);

        // reconstruct the multiset of (bag, global row) pairs
        let mut original: Vec<(usize, u64)> = Vec::new();
        let mut cursor = 0;
        for (bag, &l) in lengths.iter().enumerate() {
            for &idx in &indices[cursor..cursor + l as usize] {
                original.push((bag, idx));
            }
            cursor += l as usize;
        }
        original.sort_unstable();

        let mut recovered: Vec<(usize, u64)> = Vec::new();
        for s in 0..shards {
            let (sl, si) = bz.shard_inputs(s);
            let mut c = 0;
            for (bag, &l) in sl.iter().enumerate() {
                for &local in &si[c..c + l as usize] {
                    recovered.push((bag, s as u64 * block + local));
                }
                c += l as usize;
            }
        }
        recovered.sort_unstable();
        prop_assert_eq!(recovered, original);
    }

    /// The plan's row blocks are `bucketize_rows`' blocks — the two
    /// statements of the row-block rule (`ShardingPlan::shards` and
    /// `row_block_size`) agree, including on empty trailing blocks.
    #[test]
    fn plan_row_blocks_are_bucketize_blocks(num_rows in 1u64..80, shards in 1usize..9) {
        let plan = ShardingPlan {
            world: shards,
            placements: vec![TablePlacement {
                table: 0,
                scheme: Scheme::RowWise { workers: (0..shards).collect() },
            }],
        };
        let blocks = plan.shards(&[TableSpec::new(0, num_rows, 4, 1.0)]);
        prop_assert_eq!(blocks.len(), shards);
        let block = row_block_size(num_rows, shards);
        for (k, s) in blocks.iter().enumerate() {
            prop_assert_eq!(s.row_off, (k as u64 * block).min(num_rows));
            prop_assert_eq!(s.row_off + s.rows, ((k as u64 + 1) * block).min(num_rows));
        }
        // every row is routed to the block that holds it, at its local row
        let all_rows: Vec<u64> = (0..num_rows).collect();
        let bz = bucketize_rows(shards, num_rows, &[num_rows as u32], &all_rows).unwrap();
        for (k, s) in blocks.iter().enumerate() {
            let (_, local) = bz.shard_inputs(k);
            let held: Vec<u64> = local.iter().map(|&l| s.row_off + l).collect();
            prop_assert_eq!(held, (s.row_off..s.row_off + s.rows).collect::<Vec<_>>());
        }
    }

    /// permute preserves the index multiset and total lengths.
    #[test]
    fn permute_preserves_content(w in 1usize..4, t in 1usize..4, b in 1usize..4) {
        let lengths: Vec<u32> = (0..w * t * b).map(|k| (k % 3) as u32).collect();
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        let indices: Vec<u64> = (0..total as u64).collect();
        let (pl, pi) = permute_wtb_to_twb(w, t, b, &lengths, &indices).unwrap();
        prop_assert_eq!(
            pl.iter().map(|&l| l as usize).sum::<usize>(),
            total
        );
        let mut sorted = pi.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, indices);
    }

    /// merged sparse gradients preserve the per-row gradient sum.
    #[test]
    fn merge_preserves_row_sums(
        pairs in proptest::collection::vec((0u64..10, -1.0f32..1.0), 0..30)
    ) {
        let grads = Tensor2::from_fn(pairs.len(), 2, |i, j| pairs[i].1 * (j as f32 + 1.0));
        let sg = SparseGrad::dense(pairs.iter().map(|p| p.0).collect(), grads);
        let merged = merge_grads(&sg);

        // indices strictly increasing = sorted unique
        prop_assert!(merged.indices.windows(2).all(|w| w[0] < w[1]));

        for (k, &idx) in merged.indices.iter().enumerate() {
            let want: f32 = pairs.iter().filter(|p| p.0 == idx).map(|p| p.1).sum();
            prop_assert!((merged.grads.row(k)[0] - want).abs() < 1e-4);
            prop_assert!((merged.grads.row(k)[1] - 2.0 * want).abs() < 1e-4);
        }
    }

    /// a cache-fronted store is observationally identical to a plain one.
    #[test]
    fn tiered_store_equals_dense(
        ops in proptest::collection::vec((0u64..64, -10.0f32..10.0, any::<bool>()), 1..80),
        cache_rows in 1usize..64,
    ) {
        let mut plain = DenseStore::zeros(64, 2);
        let mut tiered =
            TieredStore::new(Box::new(DenseStore::zeros(64, 2)), cache_rows, Policy::Lru);
        let mut buf_a = [0.0f32; 2];
        let mut buf_b = [0.0f32; 2];
        for (row, val, is_write) in ops {
            if is_write {
                plain.write_row(row, &[val, -val]);
                tiered.write_row(row, &[val, -val]);
            } else {
                plain.read_row(row, &mut buf_a);
                tiered.read_row(row, &mut buf_b);
                prop_assert_eq!(buf_a, buf_b);
            }
        }
        prop_assert_eq!(plain.to_dense(), tiered.to_dense());
    }

    /// f16 round-trips within half-precision tolerance.
    #[test]
    fn f16_roundtrip_error_bound(v in -60000.0f32..60000.0) {
        let r = F16::from_f32(v).to_f32();
        // RNE error bound: half ULP = 2^-11 relative for normals
        prop_assert!((r - v).abs() <= v.abs() * (1.0 / 2048.0) + 1e-7, "{} -> {}", v, r);
    }

    /// both partitioners produce complete assignments with imbalance >= 1.
    #[test]
    fn partitioners_valid(
        costs in proptest::collection::vec(0.01f64..10.0, 1..40),
        bins in 1usize..8,
    ) {
        for a in [greedy(&costs, bins), karmarkar_karp(&costs, bins)] {
            prop_assert_eq!(a.len(), costs.len());
            prop_assert!(a.iter().all(|&b| b < bins));
            prop_assert!(imbalance(&costs, &a, bins) >= 1.0 - 1e-12);
        }
    }
}

/// AllReduce equals the explicit sum over ranks for random inputs.
/// (Not inside the proptest! macro: thread spawning per case is costly, so
/// we drive fewer cases manually.)
#[test]
fn all_reduce_equals_explicit_sum() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    for _ in 0..10 {
        let world = rng.gen_range(1..5);
        let n = rng.gen_range(1..20);
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|_| (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let mut want = vec![0.0f32; n];
        for rank_input in &inputs {
            for (w, v) in want.iter_mut().zip(rank_input) {
                *w += v;
            }
        }
        let handles: Vec<_> = ProcessGroup::new(world)
            .into_iter()
            .zip(inputs)
            .map(|(mut c, buf)| {
                std::thread::spawn(move || {
                    c.all_reduce_shared(std::sync::Arc::new(buf))
                        .expect("all_reduce_shared")
                })
            })
            .collect();
        for h in handles {
            assert_eq!(*h.join().unwrap(), want);
        }
    }
}
