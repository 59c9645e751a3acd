//! The five training workloads and the inputs built from a seed.
//!
//! Each workload exists to load one layer and bypass others, so that a
//! change to a layer has a workload on which it must show and one on
//! which it must not (see README.md for the prediction table).

use std::time::Instant;

use neo_collectives::{CommDelay, QuantMode};
use neo_dataio::{CombinedBatch, SyntheticConfig, SyntheticDataset};
use neo_dlrm_model::{DlrmConfig, EmbTableCfg};
use neo_sharding::{
    CostModel, Planner, PlannerConfig, Scheme, ShardingPlan, TablePlacement, TableSpec,
};
use neo_trainer::{SparseOpt, SyncConfig};

use crate::Res;

/// Global batches pre-generated during set-up and cycled by `make(k)`:
/// the program only ever sees generated batches, and generation stays
/// out of the timed steps.
pub const RING: usize = 64;

/// Where a workload's sharding plan comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// `Planner::plan` with the default configuration.
    Planner,
    /// The hand-built plan of `sparse_w2`: table `i` placed by `i % 4`,
    /// which exercises the row- and column-wise paths the planner never
    /// picks at this scale.
    Mixed,
}

/// One benchmark workload: everything but the data seed.
#[derive(Clone)]
pub struct Workload {
    /// Name used on the command line and in every output row.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Ranks (threads) the trainer runs; at most the CI host's 2 cores.
    pub world: usize,
    /// Global batch size.
    pub batch: usize,
    /// Steps per round: fixed, so the loss curve does not depend on how
    /// fast the host is, and short enough that a run takes its medians
    /// over several round processes (a process keeps the speed its
    /// physical pages happen to give it).
    pub steps: usize,
    /// Model architecture.
    pub model: DlrmConfig,
    /// Zipf exponent of the index stream.
    pub zipf: f64,
    /// Wire precision of the forward / backward pooled all-to-all.
    pub quant: (QuantMode, QuantMode),
    /// Sparse optimizer.
    pub optimizer: SparseOpt,
    /// Overlapped (Fig. 9) schedule.
    pub overlap: bool,
    /// Injected wire cost.
    pub comm_delay: Option<CommDelay>,
    /// Plan source.
    pub plan: PlanKind,
    /// Batches in the ring.
    pub ring: usize,
    /// Shrunk by `--quick`: too few steps for tail percentiles.
    pub quick: bool,
}

fn tables(n: usize, rows: u64, dim: usize, pooling: u32) -> Vec<EmbTableCfg> {
    (0..n)
        .map(|_| EmbTableCfg {
            num_rows: rows,
            dim,
            avg_pooling: pooling,
        })
        .collect()
}

fn quickstart(name: &'static str, why: &'static str, world: usize, steps: usize) -> Workload {
    let mut model = DlrmConfig::tiny(8, 20_000, 16);
    for t in &mut model.tables {
        t.avg_pooling = 4; // the quickstart data stream pools 4 ids per bag
    }
    Workload {
        name,
        why,
        world,
        batch: 256,
        steps,
        model,
        zipf: 1.05,
        quant: (QuantMode::Fp16, QuantMode::Bf16),
        optimizer: SparseOpt::Sgd,
        overlap: false,
        comm_delay: None,
        plan: PlanKind::Planner,
        ring: RING,
        quick: false,
    }
}

/// The workloads in table order. `quick` shrinks steps, batch, tables and
/// the ring so a debug build finishes in seconds; which collectives run
/// and which plan paths are taken stay the same.
pub fn all(quick: bool) -> Vec<Workload> {
    let mut w = vec![
        quickstart(
            "quickstart_w1",
            "single-worker baseline of the quickstart task: collectives are no-ops, so a rendezvous change must not move it",
            1,
            750,
        ),
        quickstart(
            "quickstart_w2",
            "rendezvous-bound: most of the step is blocking collectives with payloads of tens of KB; kernel work must not show",
            2,
            750,
        ),
        Workload {
            overlap: true,
            comm_delay: Some(CommDelay::new(16e9, 100e-6)),
            ..quickstart(
                "quickstart_w2_overlap_wire",
                "overlapped schedule with 100 us of injected wire latency: shows overlap quality and collective calls per step",
                2,
                600,
            )
        },
        Workload {
            name: "dense_w2",
            why: "GEMM-bound: MLP forward and backward dominate and each rank all-reduces 0.59 MB; embedding and rendezvous changes must not show",
            world: 2,
            batch: 256,
            steps: 224,
            model: DlrmConfig {
                dense_dim: 128,
                bottom_mlp: vec![256, 128, 32],
                tables: tables(4, 10_000, 32, 2),
                top_mlp: vec![256, 128, 1],
            },
            zipf: 1.05,
            quant: (QuantMode::Fp32, QuantMode::Fp32),
            optimizer: SparseOpt::Sgd,
            overlap: false,
            comm_delay: None,
            plan: PlanKind::Planner,
            ring: RING,
            quick: false,
        },
        Workload {
            name: "sparse_w2",
            why: "embedding-bound: pooling-32 lookups and the sort-and-accumulate optimizer dominate; mixed plan runs reduce_scatter, all_gather and bucketize; GEMM changes must not show",
            world: 2,
            batch: 512,
            steps: 250,
            model: DlrmConfig {
                dense_dim: 4,
                bottom_mlp: vec![16, 32],
                tables: tables(8, 250_000, 32, 32),
                top_mlp: vec![32, 1],
            },
            zipf: 1.05,
            quant: (QuantMode::Fp16, QuantMode::Bf16),
            optimizer: SparseOpt::RowWiseAdagrad,
            overlap: false,
            comm_delay: None,
            plan: PlanKind::Mixed,
            ring: RING,
            quick: false,
        },
    ];
    if quick {
        for wl in &mut w {
            wl.quick = true;
            wl.steps = 12;
            wl.batch /= 4;
            wl.ring = 4;
            for t in &mut wl.model.tables {
                t.num_rows = t.num_rows.min(5_000); // above the planner's data-parallel threshold
            }
        }
    }
    w
}

/// Looks a workload up by name.
pub fn by_name(name: &str, quick: bool) -> Res<Workload> {
    all(quick)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}").into())
}

impl Workload {
    /// Sharder's view of the model's tables.
    fn specs(&self) -> Vec<TableSpec> {
        self.model
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, f64::from(t.avg_pooling)))
            .collect()
    }

    fn planner(&self) -> Planner {
        Planner::new(
            CostModel::v100_prototype(self.batch),
            PlannerConfig::default(),
        )
    }

    /// Builds the sharding plan and returns it with the planner's
    /// predicted `max / mean` per-worker cost.
    pub fn plan(&self) -> Res<(ShardingPlan, f64)> {
        let specs = self.specs();
        let planner = self.planner();
        let plan = match self.plan {
            PlanKind::Planner => planner.plan(&specs, self.world)?,
            PlanKind::Mixed => mixed_plan(&self.model, self.world),
        };
        plan.validate(&specs)?;
        let imbalance = planner.plan_imbalance(&plan, &specs);
        Ok((plan, imbalance))
    }

    /// The synthetic dataset for `seed`: the seed reaches the data only.
    pub fn dataset(&self, seed: u64) -> Res<SyntheticDataset> {
        let cfg = SyntheticConfig {
            rows_per_table: self.model.tables.iter().map(|t| t.num_rows).collect(),
            avg_pooling: self.model.tables.iter().map(|t| t.avg_pooling).collect(),
            dense_dim: self.model.dense_dim,
            zipf_exponent: self.zipf,
            ..SyntheticConfig::uniform(1, 1, 1, 1)
        }
        .with_seed(seed);
        Ok(SyntheticDataset::new(cfg)?)
    }

    /// Trainer configuration: `SyncConfig::exact` defaults (model-init
    /// seed included) plus what the workload states.
    pub fn config(&self, plan: ShardingPlan) -> SyncConfig {
        let mut cfg = SyncConfig::exact(self.world, self.model.clone(), plan, self.batch);
        cfg.quant_fwd = self.quant.0;
        cfg.quant_bwd = self.quant.1;
        cfg.optimizer = self.optimizer;
        cfg.overlap = self.overlap;
        cfg.comm_delay = self.comm_delay;
        cfg
    }
}

/// `sparse_w2`'s plan: table `i` by `i % 4` — table-wise, row-wise over
/// both ranks, column-wise split in halves, table-wise on the other rank.
fn mixed_plan(model: &DlrmConfig, world: usize) -> ShardingPlan {
    let all: Vec<usize> = (0..world).collect();
    let placements = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let scheme = match i % 4 {
                0 => Scheme::TableWise {
                    worker: (i / 4) % world,
                },
                1 => Scheme::RowWise {
                    workers: all.clone(),
                },
                2 => Scheme::ColumnWise {
                    workers: all.clone(),
                    split_dims: neo_sharding::scheme::split_dim(t.dim, world),
                },
                _ => Scheme::TableWise {
                    worker: (i / 4 + 1) % world,
                },
            };
            TablePlacement { table: i, scheme }
        })
        .collect();
    ShardingPlan { world, placements }
}

/// Inputs of one round, generated from the seed, with what set-up cost.
pub struct Inputs {
    /// Trainer configuration (telemetry disabled).
    pub cfg: SyncConfig,
    /// The ring of global batches.
    pub ring: Vec<CombinedBatch>,
    /// Planner's predicted `max / mean` worker cost.
    pub imbalance: f64,
    /// Time to build the plan.
    pub plan_ns: u64,
    /// Time to build the dataset and generate the ring.
    pub ring_ns: u64,
}

/// Plans and generates the ring: the benchmark's share of set-up.
pub fn build_inputs(w: &Workload, seed: u64) -> Res<Inputs> {
    let t0 = Instant::now();
    let (plan, imbalance) = w.plan()?;
    let plan_ns = elapsed_ns(t0);
    let t1 = Instant::now();
    let ds = w.dataset(seed)?;
    let ring: Vec<CombinedBatch> = (0..w.ring as u64).map(|k| ds.batch(w.batch, k)).collect();
    let ring_ns = elapsed_ns(t1);
    Ok(Inputs {
        cfg: w.config(plan),
        ring,
        imbalance,
        plan_ns,
        ring_ns,
    })
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_worlds_fit_two_cores() {
        let w = all(false);
        assert_eq!(w.len(), 5);
        for (i, a) in w.iter().enumerate() {
            assert!(a.world <= 2, "{}", a.name);
            assert!(a.why.len() <= 200, "{}", a.name);
            assert!(w[i + 1..].iter().all(|b| b.name != a.name));
            // a round measures at least 180 steps: three rounds clear 200
            assert!(a.steps - crate::clock::warmup_steps(a.steps) >= 180);
        }
    }

    #[test]
    fn sparse_plan_mixes_every_model_parallel_scheme() {
        let w = by_name("sparse_w2", false).unwrap();
        let (plan, _) = w.plan().unwrap();
        let (tw, rw, cw, dp) = plan.scheme_histogram();
        assert_eq!((tw, rw, cw, dp), (4, 2, 2, 0));
        // table-wise tables alternate ranks so neither rank idles
        let owners: Vec<usize> = plan
            .placements
            .iter()
            .filter_map(|p| match p.scheme {
                Scheme::TableWise { worker } => Some(worker),
                _ => None,
            })
            .collect();
        assert_eq!(owners, vec![0, 1, 1, 0]);
    }

    #[test]
    fn same_seed_same_ring_other_seed_other_ring() {
        let w = by_name("quickstart_w2", true).unwrap();
        let a = build_inputs(&w, 1).unwrap();
        let b = build_inputs(&w, 1).unwrap();
        let c = build_inputs(&w, 2).unwrap();
        assert_eq!(a.ring.len(), 4);
        assert_eq!(a.ring, b.ring);
        assert_ne!(a.ring, c.ring);
        assert_eq!(a.cfg.seed, c.cfg.seed, "the seed reaches the data only");
    }
}
