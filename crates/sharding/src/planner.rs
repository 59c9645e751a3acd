//! The end-to-end sharding planner: scheme selection + cost-balanced
//! placement (§4.2.5: "practitioners can mix-and-match the above
//! primitives").

use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, ShardDivision};
use crate::partition::{greedy, karmarkar_karp};
use crate::scheme::{split_dim, PlanError, Scheme, ShardingPlan, TablePlacement};
use crate::spec::TableSpec;

/// Which placement heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Algorithm {
    /// Sorted first-fit-on-lightest-bin.
    Greedy,
    /// Largest differencing method (usually better, §4.2.5).
    #[default]
    KarmarkarKarp,
}

/// Scheme-selection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Tables with at most this many rows are replicated data-parallel
    /// (§4.2.4: "small embedding tables with fewer rows are good
    /// candidates").
    pub dp_max_rows: u64,
    /// Tables whose FP32 footprint exceeds this are row-sharded across all
    /// workers (§4.2.2: the only scheme for tables that exceed one
    /// worker's memory).
    pub rowwise_min_bytes: u64,
    /// Tables at least this wide (and not row-sharded) are column-sharded
    /// for finer balance (§4.2.3: "works well only with larger embedding
    /// dimensions").
    pub colwise_min_dim: usize,
    /// Number of column shards for column-wise tables.
    pub colwise_parts: usize,
    /// Placement heuristic.
    pub algorithm: Algorithm,
    /// Hierarchical ("table-wise then row-wise", §4.2.5) placement: a
    /// row-sharded table is confined to the GPUs of a *single node* chosen
    /// by load, so its bucketized exchange and ReduceScatter ride NVLink
    /// instead of the scale-out fabric. `0` disables.
    pub hierarchical_node_size: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            dp_max_rows: 4096,
            rowwise_min_bytes: 8 << 30,
            colwise_min_dim: 128,
            colwise_parts: 4,
            algorithm: Algorithm::KarmarkarKarp,
            hierarchical_node_size: 0,
        }
    }
}

impl PlannerConfig {
    /// Disables column-wise and data-parallel sharding: every table is
    /// placed whole (the Fig. 13 *baseline* configuration).
    #[must_use]
    pub fn table_wise_only(mut self) -> Self {
        self.dp_max_rows = 0;
        self.colwise_min_dim = usize::MAX;
        self
    }

    /// Selects the heuristic (builder style).
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enables hierarchical table-wise-then-row-wise placement with the
    /// given node size (builder style).
    #[must_use]
    pub fn hierarchical(mut self, node_size: usize) -> Self {
        self.hierarchical_node_size = node_size;
        self
    }
}

/// The sharding planner.
///
/// # Example
///
/// ```
/// use neo_sharding::{CostModel, Planner, PlannerConfig, TableSpec};
///
/// let tables: Vec<TableSpec> = (0..32)
///     .map(|i| TableSpec::new(i, 1000 * (i as u64 + 1), 64, 10.0))
///     .collect();
/// let planner = Planner::new(CostModel::v100_prototype(4096), PlannerConfig::default());
/// let plan = planner.plan(&tables, 8).unwrap();
/// assert_eq!(plan.placements.len(), 32);
/// assert!(planner.plan_imbalance(&plan, &tables) < 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    cost: CostModel,
    config: PlannerConfig,
}

impl Planner {
    /// Creates a planner with the given cost model and thresholds.
    pub fn new(cost: CostModel, config: PlannerConfig) -> Self {
        Self { cost, config }
    }

    /// The planner's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Produces a validated plan for `tables` on `world` workers.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the resulting plan fails validation (which
    /// indicates an internal bug or an impossible input such as
    /// `world == 0`).
    pub fn plan(&self, tables: &[TableSpec], world: usize) -> Result<ShardingPlan, PlanError> {
        if world == 0 {
            return Err(PlanError::zero_workers());
        }
        // 1. pick a scheme class per table and expand into placeable items
        #[derive(Debug)]
        enum Item {
            Whole(usize),
            Col { table: usize, part: usize },
        }
        let mut items = Vec::new();
        let mut costs = Vec::new();
        let mut classes: Vec<Option<Scheme>> = Vec::with_capacity(tables.len());
        // hierarchical mode: round-robin row-wise tables over nodes by load
        let node_size = self.config.hierarchical_node_size;
        let use_hier = node_size > 1 && world >= node_size && world.is_multiple_of(node_size);
        let mut node_row_load = vec![0.0f64; if use_hier { world / node_size } else { 0 }];
        for t in tables {
            if t.num_rows <= self.config.dp_max_rows {
                classes.push(Some(Scheme::DataParallel));
            } else if t.param_bytes(4) > self.config.rowwise_min_bytes && world > 1 {
                let workers: Vec<usize> = if use_hier {
                    // table-wise-then-row-wise: pick the least loaded node,
                    // shard this table across only its GPUs
                    #[expect(clippy::expect_used, reason = "use_hier implies >= 1 node")]
                    let node = node_row_load
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| a.total_cmp(b))
                        .map(|(k, _)| k)
                        .expect("hierarchical node list nonempty");
                    node_row_load[node] += self.cost.shard_cost(t, ShardDivision::Row, node_size);
                    (node * node_size..(node + 1) * node_size).collect()
                } else {
                    (0..world).collect()
                };
                classes.push(Some(Scheme::RowWise { workers }));
            } else if t.dim >= self.config.colwise_min_dim
                && self.config.colwise_parts > 1
                && t.dim >= self.config.colwise_parts
            {
                let parts = self.config.colwise_parts.min(world.max(1));
                for part in 0..parts {
                    items.push(Item::Col { table: t.id, part });
                    costs.push(self.cost.shard_cost(t, ShardDivision::Column, parts));
                }
                classes.push(None); // resolved below from the assignment
            } else {
                items.push(Item::Whole(t.id));
                costs.push(self.cost.table_cost(t));
                classes.push(None);
            }
        }

        // 2. balance the placeable items
        let assignment = match self.config.algorithm {
            Algorithm::Greedy => greedy(&costs, world),
            Algorithm::KarmarkarKarp => karmarkar_karp(&costs, world),
        };

        // 3. stitch schemes back together
        let mut col_workers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); tables.len()];
        let mut whole_worker: Vec<Option<usize>> = vec![None; tables.len()];
        for (item, &bin) in items.iter().zip(&assignment) {
            match *item {
                Item::Whole(table) => whole_worker[table] = Some(bin),
                Item::Col { table, part } => col_workers[table].push((part, bin)),
            }
        }
        let placements = tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let scheme = match classes[i].take() {
                    Some(s) => s,
                    None => {
                        if let Some(worker) = whole_worker[i] {
                            Scheme::TableWise { worker }
                        } else {
                            let mut parts = std::mem::take(&mut col_workers[i]);
                            parts.sort_by_key(|&(part, _)| part);
                            let workers: Vec<usize> = parts.iter().map(|&(_, w)| w).collect();
                            let split_dims = split_dim(t.dim, workers.len());
                            Scheme::ColumnWise {
                                workers,
                                split_dims,
                            }
                        }
                    }
                };
                TablePlacement {
                    table: t.id,
                    scheme,
                }
            })
            .collect();

        let plan = ShardingPlan { world, placements };
        plan.validate(tables)?;
        Ok(plan)
    }

    /// Per-worker model-parallel cost (seconds) of a plan — what Fig. 13's
    /// load-balance optimization minimizes the spread of.
    pub fn per_worker_cost(&self, plan: &ShardingPlan, tables: &[TableSpec]) -> Vec<f64> {
        let mut load = vec![0.0f64; plan.world];
        for s in plan.shards(tables) {
            // replicated tables do local lookups only, evenly by design
            if let Some(division) = s.division {
                load[s.worker] += self.cost.shard_cost(&tables[s.table], division, s.parts);
            }
        }
        load
    }

    /// `max / mean` of the per-worker cost (1.0 = perfectly balanced).
    /// Returns 1.0 for a plan with no model-parallel load.
    pub fn plan_imbalance(&self, plan: &ShardingPlan, tables: &[TableSpec]) -> f64 {
        let load = self.per_worker_cost(plan, tables);
        let total: f64 = load.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / load.len() as f64;
        load.iter().copied().fold(0.0, f64::max) / mean
    }

    /// Expected embedding-row lookups per worker *per iteration* under
    /// this plan, from the cost model's global batch `B` and each table's
    /// average pooling `L`:
    ///
    /// * table-wise: the owner serves all `B·L` lookups;
    /// * row-wise: `B·L` split evenly across the shard's workers;
    /// * column-wise: every slice serves the full replicated `B·L` stream;
    /// * data-parallel: each worker serves its local `(B/world)·L` share.
    ///
    /// This is the prediction `neo-workload`'s observed per-shard lookup
    /// counts are validated against (workload.json ground-truths the cost
    /// model).
    pub fn predicted_lookup_rows(&self, plan: &ShardingPlan, tables: &[TableSpec]) -> Vec<f64> {
        let b = self.cost.global_batch as f64;
        let mut load = vec![0.0f64; plan.world];
        for s in plan.shards(tables) {
            let total = b * tables[s.table].avg_pooling;
            load[s.worker] += match s.division {
                Some(ShardDivision::Whole | ShardDivision::Column) => total,
                Some(ShardDivision::Row) | None => total / s.parts as f64,
            };
        }
        load
    }

    /// `max / mean` of [`Planner::predicted_lookup_rows`] (1.0 = even;
    /// 1.0 when the plan predicts no lookups at all).
    pub fn predicted_lookup_imbalance(&self, plan: &ShardingPlan, tables: &[TableSpec]) -> f64 {
        let load = self.predicted_lookup_rows(plan, tables);
        let total: f64 = load.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / load.len() as f64;
        load.iter().copied().fold(0.0, f64::max) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diverse_tables(n: usize) -> Vec<TableSpec> {
        (0..n)
            .map(|i| {
                let rows = match i % 4 {
                    0 => 100,        // tiny -> data parallel
                    1 => 1_000_000,  // medium
                    2 => 5_000_000,  // large
                    _ => 20_000_000, // larger
                };
                let dim = [8usize, 64, 128, 256][i % 4];
                TableSpec::new(i, rows, dim, 2.0 + (i % 7) as f64 * 5.0)
            })
            .collect()
    }

    fn planner() -> Planner {
        Planner::new(CostModel::v100_prototype(4096), PlannerConfig::default())
    }

    #[test]
    fn plan_is_valid_and_covers_all_tables() {
        let tables = diverse_tables(40);
        let plan = planner().plan(&tables, 8).unwrap();
        plan.validate(&tables).unwrap();
        assert_eq!(plan.placements.len(), 40);
    }

    #[test]
    fn small_tables_go_data_parallel() {
        let tables = diverse_tables(8);
        let plan = planner().plan(&tables, 4).unwrap();
        for (p, t) in plan.placements.iter().zip(&tables) {
            if t.num_rows <= 4096 {
                assert_eq!(p.scheme, Scheme::DataParallel, "table {}", t.id);
            }
        }
    }

    #[test]
    fn huge_tables_go_row_wise() {
        let tables = vec![TableSpec::new(0, 100_000_000, 64, 20.0)]; // 25.6 GB
        let plan = planner().plan(&tables, 8).unwrap();
        match &plan.placements[0].scheme {
            Scheme::RowWise { workers } => assert_eq!(workers.len(), 8),
            s => panic!("expected row-wise, got {s:?}"),
        }
    }

    #[test]
    fn wide_tables_go_column_wise() {
        let tables = vec![TableSpec::new(0, 1_000_000, 256, 20.0)];
        let plan = planner().plan(&tables, 8).unwrap();
        match &plan.placements[0].scheme {
            Scheme::ColumnWise {
                workers,
                split_dims,
            } => {
                assert_eq!(workers.len(), 4);
                assert_eq!(split_dims.iter().sum::<usize>(), 256);
            }
            s => panic!("expected column-wise, got {s:?}"),
        }
    }

    #[test]
    fn table_wise_only_config_disables_extras() {
        let tables = diverse_tables(16);
        let p = Planner::new(
            CostModel::v100_prototype(4096),
            PlannerConfig::default().table_wise_only(),
        );
        let plan = p.plan(&tables, 4).unwrap();
        let (tw, rw, cw, dp) = plan.scheme_histogram();
        assert_eq!(dp, 0);
        assert_eq!(cw, 0);
        assert!(tw + rw == 16);
    }

    #[test]
    fn mixed_sharding_balances_better_than_table_wise() {
        // Fig. 13 step 1: optimized (mixed) sharding beats the baseline
        let tables = diverse_tables(48);
        let cm = CostModel::v100_prototype(65536);
        let base = Planner::new(cm, PlannerConfig::default().table_wise_only());
        let opt = Planner::new(cm, PlannerConfig::default());
        let bp = base.plan(&tables, 16).unwrap();
        let op = opt.plan(&tables, 16).unwrap();
        let bi = base.plan_imbalance(&bp, &tables);
        let oi = opt.plan_imbalance(&op, &tables);
        assert!(oi < bi, "mixed {oi:.3} should beat table-wise-only {bi:.3}");
    }

    #[test]
    fn per_worker_cost_shape() {
        let tables = diverse_tables(12);
        let plan = planner().plan(&tables, 4).unwrap();
        let load = planner().per_worker_cost(&plan, &tables);
        assert_eq!(load.len(), 4);
        assert!(load.iter().all(|&c| c >= 0.0));
        assert!(planner().plan_imbalance(&plan, &tables) >= 1.0);
    }

    #[test]
    fn predicted_lookups_cover_every_scheme() {
        // hand-build a plan exercising all four schemes on 4 workers
        let tables = vec![
            TableSpec::new(0, 10_000, 16, 2.0), // table-wise on worker 1
            TableSpec::new(1, 10_000, 16, 4.0), // row-wise over all 4
            TableSpec::new(2, 10_000, 16, 1.0), // column-wise on 2 slices
            TableSpec::new(3, 100, 16, 3.0),    // data-parallel
        ];
        let plan = ShardingPlan {
            world: 4,
            placements: vec![
                TablePlacement {
                    table: 0,
                    scheme: Scheme::TableWise { worker: 1 },
                },
                TablePlacement {
                    table: 1,
                    scheme: Scheme::RowWise {
                        workers: vec![0, 1, 2, 3],
                    },
                },
                TablePlacement {
                    table: 2,
                    scheme: Scheme::ColumnWise {
                        workers: vec![2, 3],
                        split_dims: vec![8, 8],
                    },
                },
                TablePlacement {
                    table: 3,
                    scheme: Scheme::DataParallel,
                },
            ],
        };
        let p = Planner::new(CostModel::v100_prototype(100), PlannerConfig::default());
        let load = p.predicted_lookup_rows(&plan, &tables);
        // B=100: tw 200 on w1; rw 100 each; cw 100 on w2 and w3 (replicated);
        // dp (100/4)*3 = 75 each
        assert_eq!(load, vec![175.0, 375.0, 275.0, 275.0]);
        let imb = p.predicted_lookup_imbalance(&plan, &tables);
        let mean = (175.0 + 375.0 + 275.0 + 275.0) / 4.0;
        assert!((imb - 375.0 / mean).abs() < 1e-12);
    }

    #[test]
    fn predicted_lookup_imbalance_is_unit_for_empty_plans() {
        let plan = ShardingPlan {
            world: 4,
            placements: vec![],
        };
        assert_eq!(planner().predicted_lookup_imbalance(&plan, &[]), 1.0);
    }

    #[test]
    fn identical_table_wise_tables_predict_even_lookups() {
        // the quickstart shape: identical mid-size tables all go
        // table-wise, 2 per rank -> predicted imbalance exactly 1.0
        let tables: Vec<TableSpec> = (0..8).map(|i| TableSpec::new(i, 20_000, 16, 2.0)).collect();
        let p = planner();
        let plan = p.plan(&tables, 4).unwrap();
        assert!((p.predicted_lookup_imbalance(&plan, &tables) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_model_has_unit_imbalance() {
        let plan = ShardingPlan {
            world: 4,
            placements: vec![],
        };
        assert_eq!(planner().plan_imbalance(&plan, &[]), 1.0);
    }

    #[test]
    fn zero_workers_rejected() {
        let tables = diverse_tables(4);
        assert!(planner().plan(&tables, 0).is_err());
    }

    #[test]
    fn hierarchical_confines_row_shards_to_one_node() {
        // several multi-GPU-sized tables on a 2-node (16-GPU) cluster
        let tables: Vec<TableSpec> = (0..6)
            .map(|i| TableSpec::new(i, 80_000_000, 64, 20.0))
            .collect();
        let p = Planner::new(
            CostModel::v100_prototype(4096),
            PlannerConfig::default().hierarchical(8),
        );
        let plan = p.plan(&tables, 16).unwrap();
        let mut nodes_used = std::collections::BTreeSet::new();
        for placement in &plan.placements {
            match &placement.scheme {
                Scheme::RowWise { workers } => {
                    assert_eq!(workers.len(), 8, "one node's worth of shards");
                    let node = workers[0] / 8;
                    assert!(
                        workers.iter().all(|&w| w / 8 == node),
                        "all shards on node {node}: {workers:?}"
                    );
                    nodes_used.insert(node);
                }
                s => panic!("expected row-wise, got {s:?}"),
            }
        }
        assert_eq!(nodes_used.len(), 2, "load spread across both nodes");
        plan.validate(&tables).unwrap();
    }

    #[test]
    fn hierarchical_falls_back_when_world_smaller_than_node() {
        let tables = vec![TableSpec::new(0, 100_000_000, 64, 20.0)];
        let p = Planner::new(
            CostModel::v100_prototype(4096),
            PlannerConfig::default().hierarchical(8),
        );
        let plan = p.plan(&tables, 4).unwrap();
        match &plan.placements[0].scheme {
            Scheme::RowWise { workers } => assert_eq!(workers.len(), 4),
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn greedy_and_kk_both_produce_valid_plans() {
        let tables = diverse_tables(20);
        for alg in [Algorithm::Greedy, Algorithm::KarmarkarKarp] {
            let p = Planner::new(
                CostModel::v100_prototype(4096),
                PlannerConfig::default().with_algorithm(alg),
            );
            p.plan(&tables, 8).unwrap().validate(&tables).unwrap();
        }
    }
}
