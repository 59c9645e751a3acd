//! Property test holding the one statement of shard geometry together:
//! `ShardingPlan::shards` tiles every table exactly once.

use neo_sharding::cost::ShardDivision;
use neo_sharding::scheme::split_dim;
use neo_sharding::{Scheme, ShardingPlan, TablePlacement, TableSpec};
use proptest::prelude::*;

/// A valid random plan over random table shapes. `salt` drives the
/// per-table choices (scheme, workers, split widths).
fn random_plan(world: usize, shapes: &[(u64, usize, u64)]) -> (ShardingPlan, Vec<TableSpec>) {
    let mut tables = Vec::new();
    let mut placements = Vec::new();
    for (i, &(rows, dim, salt)) in shapes.iter().enumerate() {
        let mut rng = TestRng::new(salt);
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let scheme = match below(4) {
            0 => Scheme::TableWise {
                worker: below(world),
            },
            1 => {
                // distinct workers: a rotation of 0..world, truncated
                let n = 1 + below(world.min(rows as usize));
                let first = below(world);
                Scheme::RowWise {
                    workers: (0..n).map(|k| (first + k) % world).collect(),
                }
            }
            2 => {
                // workers may repeat; widths are uneven when dim % parts != 0
                let parts = 1 + below(dim.min(4));
                Scheme::ColumnWise {
                    workers: (0..parts).map(|_| below(world)).collect(),
                    split_dims: split_dim(dim, parts),
                }
            }
            _ => Scheme::DataParallel,
        };
        tables.push(TableSpec::new(i, rows, dim, 1.0));
        placements.push(TablePlacement { table: i, scheme });
    }
    (ShardingPlan { world, placements }, tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shards_tile_every_table_exactly_once(
        world in 1usize..7,
        shapes in proptest::collection::vec((1u64..200, 1usize..24, any::<u64>()), 1..6),
    ) {
        let (plan, tables) = random_plan(world, &shapes);
        prop_assert!(plan.validate(&tables).is_ok());
        let shards = plan.shards(&tables);
        let keys: Vec<_> = shards.iter().map(|s| (s.table, s.ordinal)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted by (table, ordinal)");

        for t in &tables {
            let of_table: Vec<_> = shards.iter().filter(|s| s.table == t.id).collect();
            let division = of_table[0].division;
            prop_assert!(of_table.iter().all(|s| s.division == division));
            prop_assert!(of_table.iter().all(|s| s.parts == of_table.len()));
            prop_assert!(of_table.iter().enumerate().all(|(k, s)| s.ordinal == k));
            let full_height = |s: &&neo_sharding::Shard| s.row_off == 0 && s.rows == t.num_rows;
            let full_width = |s: &&neo_sharding::Shard| s.col_off == 0 && s.width == t.dim;
            let area: u64 = of_table.iter().map(|s| s.rows * s.width as u64).sum();
            match division {
                // a data-parallel table: one full replica per worker
                None => {
                    prop_assert_eq!(of_table.len(), world);
                    prop_assert!(of_table.iter().all(|s| full_height(s) && full_width(s)));
                    prop_assert!(of_table.iter().all(|s| s.worker == s.ordinal));
                }
                Some(ShardDivision::Whole) => {
                    prop_assert_eq!(of_table.len(), 1);
                    prop_assert!(full_height(&of_table[0]) && full_width(&of_table[0]));
                }
                // row ranges are contiguous, disjoint and cover [0, H)
                Some(ShardDivision::Row) => {
                    let mut next = 0;
                    for s in &of_table {
                        prop_assert!(full_width(s));
                        prop_assert_eq!(s.row_off, next);
                        next += s.rows;
                    }
                    prop_assert_eq!(next, t.num_rows);
                }
                // column ranges are contiguous, disjoint and cover [0, D)
                Some(ShardDivision::Column) => {
                    let mut next = 0;
                    for s in &of_table {
                        prop_assert!(full_height(s));
                        prop_assert_eq!(s.col_off, next);
                        next += s.width;
                    }
                    prop_assert_eq!(next, t.dim);
                }
            }
            if division.is_some() {
                prop_assert_eq!(area, t.num_params(), "tiled exactly once");
            }
        }

        // memory is the per-worker sum of the rectangles, and conserves
        // the model's bytes (replicas counted once per worker)
        let mem = plan.memory_per_worker(&tables, 4);
        let mut want = vec![0u64; world];
        for s in &shards {
            want[s.worker] += s.rows * s.width as u64 * 4;
        }
        prop_assert_eq!(&mem, &want);
        let total: u64 = (plan.placements.iter().zip(&tables))
            .map(|(p, t)| match p.scheme {
                Scheme::DataParallel => world as u64 * t.param_bytes(4),
                _ => t.param_bytes(4),
            })
            .sum();
        prop_assert_eq!(mem.iter().sum::<u64>(), total);
    }
}
