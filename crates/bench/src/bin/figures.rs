//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p neo-bench --release --bin figures -- all
//! cargo run -p neo-bench --release --bin figures -- table4 fig11 fig13
//! ```
//!
//! Model-driven results (Table 4, Figs 11–20) come from the Eq. 1 roofline
//! over the ZionEX prototype profile; functional results (Fig 10) come from
//! actually training scaled-down models with the sync and PS trainers.
//! EXPERIMENTS.md records paper-vs-reproduced for every block printed here.

use neo_bench::{capacity_aware_imbalance, fmt_bytes, USABLE_HBM_PER_GPU};
use neo_dataio::{SyntheticConfig, SyntheticDataset};
use neo_dlrm_model::{DlrmConfig, ModelProfile};
use neo_memory::MemoryHierarchy;
use neo_netsim::{ClusterTopology, CollectiveCost, CollectiveKind};
use neo_perfmodel::baseline::{headline, PsCluster};
use neo_perfmodel::capacity::{capacity_chain, fit_on_cluster};
use neo_perfmodel::device::Precision;
use neo_perfmodel::{embbench, gemm, mlpbench};
use neo_perfmodel::{DeviceProfile, IterationModel, ModelScenario};
use neo_sharding::{Planner, PlannerConfig};
use neo_trainer::{PsConfig, PsTrainer, SyncConfig, SyncTrainer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "table1",
        "table2",
        "table3",
        "table4",
        "fig1",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "headline",
        "capacity",
        "ablations",
        "timeline",
    ];
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for t in targets {
        match t {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(),
            "table4" => table4(),
            "fig1" => fig1(),
            "fig10" => fig10(),
            "fig11" => fig11(),
            "fig12" => fig12(),
            "fig13" => fig13(),
            "fig14" => gemm_fig(
                "Figure 14: GEMM FP32/TF32 (TF/s)",
                &[
                    (DeviceProfile::v100(), Precision::Fp32),
                    (DeviceProfile::a100(), Precision::Fp32),
                    (DeviceProfile::a100(), Precision::Tf32),
                ],
            ),
            "fig15" => gemm_fig(
                "Figure 15: GEMM FP16/BF16 (TF/s)",
                &[
                    (DeviceProfile::v100(), Precision::Fp16),
                    (DeviceProfile::a100(), Precision::Fp16),
                    (DeviceProfile::a100(), Precision::Bf16),
                ],
            ),
            "fig16" => mlp_fig(
                "Figure 16: MLP bench FP32/TF32 (TF/s)",
                &[
                    (DeviceProfile::v100(), Precision::Fp32),
                    (DeviceProfile::a100(), Precision::Fp32),
                    (DeviceProfile::a100(), Precision::Tf32),
                ],
            ),
            "fig17" => mlp_fig(
                "Figure 17: MLP bench FP16/BF16 (TF/s)",
                &[
                    (DeviceProfile::v100(), Precision::Fp16),
                    (DeviceProfile::a100(), Precision::Fp16),
                    (DeviceProfile::a100(), Precision::Bf16),
                ],
            ),
            "fig18" => fig18(),
            "fig19" => fig19(),
            "fig20" => fig20(),
            "headline" => headline_block(),
            "capacity" => capacity_block(),
            "ablations" => ablations(),
            "timeline" => timeline_block(),
            other => eprintln!("unknown target: {other}"),
        }
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Optimized scenario for a profile at a node count: mixed sharding, FP16
/// tables, quantized comms (the Table-4 configuration). Models whose FP16
/// footprint exceeds aggregate usable HBM (F1) see a reduced effective
/// lookup bandwidth: the software cache serves misses from DDR.
fn optimized_scenario(p: &ModelProfile, nodes: usize, batch: usize) -> ModelScenario {
    let imb = capacity_aware_imbalance(p, nodes, 2, batch, true);
    let mut scen = ModelScenario::from_profile(p, batch)
        .with_fp16_embeddings()
        .with_quantized_comms()
        .with_imbalance(imb.effective_imbalance());
    let footprint = p.num_params * 2.0;
    let hbm_total = (nodes * 8) as f64 * USABLE_HBM_PER_GPU as f64;
    if footprint > hbm_total {
        // Zipf reuse: the resident fraction r captures roughly r^0.3 of
        // accesses; misses are served from DDR at ~25 GB/s per GPU
        let resident = hbm_total / footprint;
        let hit = resident.powf(0.3);
        let eff_bw = 1.0 / (hit / 850e9 + (1.0 - hit) / 25e9);
        scen = scen.with_memory_bw_factor(eff_bw / 850e9);
    }
    scen
}

fn table1() {
    banner("Table 1: DLRM training platform demand (derived from the model zoo)");
    // target: ~1.5M aggregate QPS on the heaviest ranking model
    let p = ModelProfile::a3();
    let qps = 1.5e6;
    let compute = qps * p.mflops_per_sample * 1e6; // total train flops/sample
    let capacity = ModelProfile::f1().num_params * 2.0; // fp16 storage
                                                        // provisioned rates of the 16-node prototype that the demand sizes
    let mem_bw_provisioned = 16.0 * 7.2e12;
    let inj_per_node = 8.0 * 12.5e9;
    let bisection = 12.5e9 * 128.0 / 2.0;
    println!(
        "  total compute        : {:>10.1} PF/s   (paper: 1+ PF/s)",
        compute / 1e15
    );
    println!(
        "  total memory capacity: {:>10.1} TB     (paper: 1+ TB)",
        capacity / 1e12
    );
    println!(
        "  total memory BW      : {:>10.1} TB/s   (paper: 100+ TB/s; 16 nodes x 7.2 TB/s)",
        mem_bw_provisioned / 1e12
    );
    println!(
        "  injection BW / node  : {:>10.1} GB/s   (paper: 100+ GB/s/worker; 8 x 100 Gbps NICs)",
        inj_per_node / 1e9
    );
    println!(
        "  bisection BW         : {:>10.2} TB/s   (paper: 1+ TB/s)",
        bisection / 1e12
    );
}

fn table2() {
    banner("Table 2: per-node system configuration (prototype profile)");
    let d = DeviceProfile::v100();
    let h = MemoryHierarchy::zionex_prototype_node();
    let t = ClusterTopology::zionex_prototype(16);
    println!(
        "  compute    : {:.0} TFLOPS FP32 / {:.0} TFLOPS FP16 per node",
        8.0 * d.fp32_peak / 1e12,
        8.0 * d.fp16_peak / 1e12
    );
    let hbm = h.tiers()[0];
    let ddr = h.tiers()[1];
    println!(
        "  HBM        : {} @ {:.1} TB/s",
        fmt_bytes(hbm.capacity_bytes as f64),
        hbm.read_bw / 1e12
    );
    println!(
        "  DDR        : {} @ {:.0} GB/s",
        fmt_bytes(ddr.capacity_bytes as f64),
        ddr.read_bw / 1e9
    );
    println!(
        "  scale-up   : {:.1} TB/s per node (uni-directional)",
        t.scale_up.bandwidth * 8.0 / 1e12
    );
    // 8 GPUs x 100 Gbps RoCE NICs; the LinkSpec stores the achievable rate
    println!(
        "  scale-out  : {:.0} Gbps per node (uni-directional, line rate)",
        (t.scale_out.bandwidth / 0.84) * 8.0 * 8.0 / 1e9
    );
    println!("  host NW    : 2 x 100 Gbps");
}

fn table3() {
    banner("Table 3: target model configurations");
    println!(
        "  {:<6} {:>12} {:>10} {:>8} {:>12} {:>8} {:>6} {:>8}",
        "model", "params", "MFLOPS/s", "tables", "dim[min,max]", "avg dim", "pool", "MLPs"
    );
    for p in ModelProfile::all() {
        println!(
            "  {:<6} {:>12.2e} {:>10.0} {:>8} {:>12} {:>8} {:>6.0} {:>8}",
            p.name,
            p.num_params,
            p.mflops_per_sample,
            p.num_tables,
            format!("[{},{}]", p.emb_dim_range.0, p.emb_dim_range.1),
            p.avg_emb_dim,
            p.avg_pooling,
            p.num_mlp_layers
        );
    }
}

fn table4() {
    banner("Table 4: achieved training throughput (modelled, QPS)");
    let m = IterationModel::prototype();
    let rows: [(&str, ModelProfile, usize, usize, f64); 5] = [
        ("A1 @ 16 GPUs", ModelProfile::a1(), 2, 65536, 273e3),
        ("A1 @ 128 GPUs", ModelProfile::a1(), 16, 65536, 1047e3),
        ("A2 @ 128 GPUs", ModelProfile::a2(), 16, 65536, 622e3),
        ("A3 @ 128 GPUs", ModelProfile::a3(), 16, 65536, 360e3),
        ("F1 @ 128 GPUs", ModelProfile::f1(), 16, 65536, 970e3),
    ];
    println!(
        "  {:<14} {:>12} {:>12} {:>8}",
        "config", "model QPS", "paper QPS", "ratio"
    );
    for (label, p, nodes, batch, paper) in rows {
        let scen = optimized_scenario(&p, nodes, batch);
        let qps = m.qps(&scen, nodes);
        println!(
            "  {label:<14} {qps:>12.0} {paper:>12.0} {:>8.2}",
            qps / paper
        );
    }
}

fn fig1() {
    banner("Figure 1: model compute (PF/s-days) and capacity vs contemporaries");
    // literature reference points + our zoo; train-time compute assumes
    // one epoch over 1 PB-scale click log for the DLRMs
    let dlrm_samples = 5e12; // ~tens of PB of samples
    println!("  {:<12} {:>14} {:>16}", "model", "params", "PF/s-days");
    let peers: [(&str, f64, f64); 4] = [
        ("GPT-3", 175e9, 3640.0),
        ("BERT-L", 0.34e9, 2.4),
        ("ResNet-50", 25e6, 0.4),
        ("AlphaZero", 70e6, 1860.0),
    ];
    for (name, params, pfdays) in peers {
        println!("  {name:<12} {params:>14.2e} {pfdays:>16.1}");
    }
    for p in ModelProfile::all() {
        let flops = p.mflops_per_sample * 1e6 * 3.0 * dlrm_samples;
        let pf_days = flops / 1e15 / 86400.0;
        println!(
            "  DLRM-{:<7} {:>14.2e} {:>16.1}",
            p.name, p.num_params, pf_days
        );
    }
}

fn fig10() {
    banner("Figure 10: training quality — async small-batch PS vs sync large-batch");
    // functional training at laptop scale: same model, same sample budget
    let model = DlrmConfig::tiny(4, 512, 8);
    #[expect(
        clippy::unwrap_used,
        reason = "demo binary with hard-coded valid config"
    )]
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 512, 4, 4)).unwrap();
    let eval: Vec<_> = (10_000..10_008).map(|k| ds.batch(256, k)).collect();

    // async PS: batch 16, 4 trainers, staleness 8
    #[expect(
        clippy::unwrap_used,
        reason = "demo binary with hard-coded valid config"
    )]
    let mut ps = PsTrainer::new(PsConfig {
        model: model.clone(),
        num_trainers: 4,
        batch_size: 16,
        staleness: 8,
        lr: 0.03,
        seed: 7,
    })
    .unwrap();
    #[expect(
        clippy::unwrap_used,
        reason = "demo binary with hard-coded valid config"
    )]
    let ps_curve = ps.train(&ds, 4096, &eval).unwrap();

    // sync large batch: 256 global on 4 workers, same total samples
    let specs = table_specs_from(&model);
    #[expect(
        clippy::unwrap_used,
        reason = "demo binary with hard-coded valid config"
    )]
    let plan = Planner::new(
        neo_sharding::CostModel::v100_prototype(256),
        PlannerConfig::default(),
    )
    .plan(&specs, 4)
    .unwrap();
    // linear LR scaling for the 16x larger batch — §5.3's tuned setup
    let mut cfg = SyncConfig::exact(4, model, plan, 256);
    cfg.lr = 0.5;
    cfg.seed = 7;
    let batches: Vec<_> = (0..256u64).map(|k| ds.batch(256, k + 50_000)).collect();
    #[expect(
        clippy::unwrap_used,
        reason = "demo binary with hard-coded valid config"
    )]
    let out = SyncTrainer::new(cfg)
        .train(&batches, &eval, 32, None)
        .unwrap();

    println!("  async PS (B=16, 4 trainers, staleness 8):");
    for (s, ne) in ps_curve.iter().step_by(2) {
        println!("    samples {s:>7}  NE {ne:.4}");
    }
    println!("  sync large-batch (B=256, 4 workers):");
    for (s, ne) in &out.ne_curve {
        println!("    samples {s:>7}  NE {ne:.4}");
    }
    let ps_final = ps_curve.last().map(|x| x.1).unwrap_or(f64::NAN);
    let sync_final = out.ne_curve.last().map(|x| x.1).unwrap_or(f64::NAN);
    println!("  final NE: async {ps_final:.4} vs sync {sync_final:.4} (paper: on-par or better)");
}

fn table_specs_from(model: &DlrmConfig) -> Vec<neo_sharding::TableSpec> {
    model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| neo_sharding::TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect()
}

fn fig11() {
    banner("Figure 11: scaling (normalized QPS vs nodes, per-GPU batch = 512)");
    // §5.3.1: "to be able to run on the smaller node counts we shrink the
    // embedding table cardinality" — memory shrinks with the cluster, cost
    // characteristics (L, D) stay; we reproduce exactly that protocol.
    let m = IterationModel::prototype();
    for p in [ModelProfile::a1(), ModelProfile::a2(), ModelProfile::a3()] {
        let base = ModelScenario::from_profile(&p, 0)
            .with_fp16_embeddings()
            .with_quantized_comms();
        let sweep = m.scaling_sweep(&base, 512, |n| {
            let shrunk = ModelProfile {
                num_params: p.num_params * n as f64 / 16.0,
                ..p.clone()
            };
            capacity_aware_imbalance(&shrunk, n, 2, 512 * n * 8, true).effective_imbalance()
        });
        println!("  model {}:", p.name);
        let qps1 = sweep[0].1;
        for (n, qps, eff) in sweep {
            println!(
                "    {:>3} nodes ({:>3} GPUs): QPS {:>10.0}  speedup {:>5.2}x  efficiency {:>5.1}%",
                n,
                n * 8,
                qps,
                qps / qps1,
                eff * 100.0
            );
        }
    }
    println!("  (paper: ~50% efficiency for A2, ~40% for A1/A3 at 16 nodes)");
}

fn fig12() {
    banner("Figure 12: model A2 per-GPU operator breakdown (B/GPU = 512)");
    let m = IterationModel::prototype();
    let p = ModelProfile::a2();
    println!(
        "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "nodes",
        "MLP(ms)",
        "emb(ms)",
        "a2a(ms)",
        "ar(ms)",
        "input",
        "HtoD",
        "serial(ms)",
        "total(ms)"
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        let batch = 512 * nodes * 8;
        // same shrunk-cardinality protocol as Fig. 11 (§5.3.1)
        let shrunk = ModelProfile {
            num_params: p.num_params * nodes as f64 / 16.0,
            ..p.clone()
        };
        let imb = capacity_aware_imbalance(&shrunk, nodes, 2, batch, true).effective_imbalance();
        let scen = ModelScenario::from_profile(&p, batch)
            .with_fp16_embeddings()
            .with_quantized_comms()
            .with_imbalance(imb);
        let bd = m.breakdown(&scen, nodes);
        println!(
            "  {:<8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>10.2}",
            nodes,
            (bd.bot_mlp_fwd + bd.bot_mlp_bwd + bd.top_mlp_fwd + bd.top_mlp_bwd) * 1e3,
            (bd.emb_lookup + bd.emb_update) * 1e3,
            (bd.a2a_fwd + bd.a2a_bwd) * 1e3,
            bd.allreduce * 1e3,
            bd.input_a2a * 1e3,
            bd.htod * 1e3,
            bd.serialized * 1e3,
            bd.t_total * 1e3,
        );
    }
    println!("  (exposed comm < serialized comm: HtoD fully hidden, AllReduce overlapped)");
}

fn fig13() {
    banner("Figure 13: A2 @ 128 GPUs throughput optimization waterfall");
    let m = IterationModel::prototype();
    let p = ModelProfile::a2();
    let batch = 65536;

    let baseline_imb = capacity_aware_imbalance(&p, 16, 4, batch, false);
    let sharded_imb = capacity_aware_imbalance(&p, 16, 4, batch, true);
    let fp16_imb = capacity_aware_imbalance(&p, 16, 2, batch, true);

    let steps: Vec<(&str, ModelScenario)> = vec![
        (
            "baseline (FP32, naive sharding, 64K)",
            ModelScenario::from_profile(&p, batch)
                .with_imbalance(baseline_imb.effective_imbalance()),
        ),
        (
            "+ optimized (mixed) sharding",
            ModelScenario::from_profile(&p, batch)
                .with_imbalance(sharded_imb.effective_imbalance()),
        ),
        (
            "+ FP16 embedding tables",
            ModelScenario::from_profile(&p, batch)
                .with_fp16_embeddings()
                .with_imbalance(fp16_imb.effective_imbalance()),
        ),
        (
            "+ quantized comms (FP16 fwd / BF16 bwd)",
            ModelScenario::from_profile(&p, batch)
                .with_fp16_embeddings()
                .with_quantized_comms()
                .with_imbalance(fp16_imb.effective_imbalance()),
        ),
        (
            "+ 256K global batch",
            ModelScenario::from_profile(&p, 262_144)
                .with_fp16_embeddings()
                .with_quantized_comms()
                .with_imbalance(fp16_imb.effective_imbalance()),
        ),
    ];
    let mut first = 0.0;
    for (i, (label, scen)) in steps.iter().enumerate() {
        let qps = m.qps(scen, 16);
        if i == 0 {
            first = qps;
        }
        println!(
            "  {label:<42} QPS {qps:>10.0}  (+{:>4.0}% vs baseline)",
            (qps / first - 1.0) * 100.0
        );
    }
    println!("  (paper: collectively +87% over the FP32/64K baseline)");
}

fn gemm_fig(title: &str, configs: &[(DeviceProfile, Precision)]) {
    banner(title);
    print!("  {:>8}", "N");
    for (d, p) in configs {
        print!(" {:>14}", format!("{} {}", d.name, p));
    }
    println!();
    for e in 9..=13u32 {
        let n = 1u64 << e;
        print!("  {n:>8}");
        for (d, p) in configs {
            print!(" {:>14.1}", gemm::gemm_tflops(d, *p, n, n, n) / 1e12);
        }
        println!();
    }
}

fn mlp_fig(title: &str, configs: &[(DeviceProfile, Precision)]) {
    banner(title);
    for &width in &[1024u64, 2048, 4096] {
        println!("  layer {width}x{width}, 20 layers:");
        print!("    {:>8}", "batch");
        for (d, p) in configs {
            print!(" {:>14}", format!("{} {}", d.name, p));
        }
        println!();
        for &batch in &[128u64, 512, 2048, 4096] {
            print!("    {batch:>8}");
            for (d, p) in configs {
                let cfg = mlpbench::MlpBenchConfig {
                    batch,
                    width,
                    layers: 20,
                };
                print!(" {:>14.1}", mlpbench::mlp_tflops(d, *p, cfg));
            }
            println!();
        }
    }
}

fn fig18() {
    banner("Figure 18: embedding lookup forward bandwidth (GB/s)");
    emb_fig(false);
}

fn fig19() {
    banner("Figure 19: embedding backward+optimizer bandwidth (GB/s)");
    emb_fig(true);
}

fn emb_fig(backward: bool) {
    let cfg = embbench::EmbBenchConfig::default();
    println!(
        "  {:>6} {:>12} {:>12} {:>12} {:>12} {:>16}",
        "dim", "V100 FP32", "V100 FP16", "A100 FP32", "A100 FP16", "FP16 rows/s gain"
    );
    for &dim in &[32u64, 64, 128, 256] {
        let c = embbench::EmbBenchConfig { dim, ..cfg };
        let bw = |d: &DeviceProfile, p: Precision| {
            if backward {
                embbench::backward_bandwidth(d, p, c) / 1e9
            } else {
                embbench::forward_bandwidth(d, p, c) / 1e9
            }
        };
        let gain = embbench::rows_per_second(&DeviceProfile::v100(), Precision::Fp16, c)
            / embbench::rows_per_second(&DeviceProfile::v100(), Precision::Fp32, c);
        println!(
            "  {dim:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>15.2}x",
            bw(&DeviceProfile::v100(), Precision::Fp32),
            bw(&DeviceProfile::v100(), Precision::Fp16),
            bw(&DeviceProfile::a100(), Precision::Fp32),
            bw(&DeviceProfile::a100(), Precision::Fp16),
            gain,
        );
    }
    println!("  (paper anchors: ~850 GB/s V100, ~1300 GB/s A100 achievable at D=128)");
}

fn fig20() {
    banner("Figure 20: AlltoAll & AllReduce bus bandwidth at 128 GPUs");
    let cost = CollectiveCost::new(ClusterTopology::zionex_prototype(16));
    println!(
        "  {:>12} {:>16} {:>16}",
        "bytes", "AlltoAll (GB/s)", "AllReduce (GB/s)"
    );
    for p in (16..=28).step_by(2) {
        let bytes = 1u64 << p;
        println!(
            "  {:>12} {:>16.2} {:>16.2}",
            bytes,
            cost.busbw(CollectiveKind::AlltoAll, bytes as f64) / 1e9,
            cost.busbw(CollectiveKind::AllReduce, bytes as f64) / 1e9
        );
    }
    println!("  (paper: 7 GB/s AlltoAll, ~60 GB/s AllReduce at 256 MB)");
}

fn headline_block() {
    banner("Headline: speedup over the distributed-CPU PS baseline (model A1)");
    let m = IterationModel::prototype();
    let q16 = m.qps(&optimized_scenario(&ModelProfile::a1(), 2, 65536), 2);
    let q128 = m.qps(&optimized_scenario(&ModelProfile::a1(), 16, 65536), 16);
    let h = headline(&ModelProfile::a1(), q16, q128);
    println!(
        "  PS CPU baseline (16 trainers + 16 PS): {:>10.0} QPS",
        h.baseline_qps
    );
    println!(
        "  sync @  16 GPUs: {:>10.0} QPS  -> {:>5.1}x  (paper:  3x)",
        h.qps_16gpu, h.speedup_16
    );
    println!(
        "  sync @ 128 GPUs: {:>10.0} QPS  -> {:>5.1}x  (paper: 40x time-to-solution)",
        h.qps_128gpu, h.speedup_128
    );
    let anchored = headline(&ModelProfile::a1(), 273e3, 1047e3);
    println!(
        "  with the paper's measured QPS against our baseline model: {:.1}x @ 16 GPUs, {:.1}x @ 128",
        anchored.speedup_16, anchored.speedup_128
    );
    let ps = PsCluster::paper_baseline();
    println!(
        "  (baseline async efficiency at 16 trainers: {:.0}%)",
        ps.efficiency() * 100.0
    );
}

fn capacity_block() {
    banner("Capacity study (§5.3.3): fitting model F1 (12T params) on 16 nodes");
    let chain = capacity_chain(&ModelProfile::f1());
    for step in &chain {
        let fit = fit_on_cluster(step.bytes, 16);
        println!(
            "  {:<28} {:>6.1} TB  fits: {}",
            step.label,
            step.bytes / 1e12,
            if fit.fits { "yes" } else { "NO" }
        );
        if fit.fits {
            for (tier, b) in &fit.placement {
                println!("      {tier}: {:.1} TB", *b as f64 / 1e12);
            }
            println!("      effective read BW: {}/s", fmt_bytes(fit.effective_bw));
        }
    }
    println!(
        "  per-GPU usable HBM assumed: {}",
        fmt_bytes(USABLE_HBM_PER_GPU as f64)
    );
    println!("  (paper: 96 TB naive -> 24 TB -> fits 4 TB HBM + 24 TB DRAM; 970K QPS)");
}

fn ablations() {
    banner("Ablations: the design choices DESIGN.md calls out");

    // 1. greedy vs Karmarkar-Karp placement (§4.2.5)
    use neo_sharding::partition::{greedy, imbalance, karmarkar_karp};
    println!("  [1] placement heuristic (imbalance = max/mean per-worker cost):");
    for p in [ModelProfile::a1(), ModelProfile::a2()] {
        let cm = neo_sharding::CostModel::v100_prototype(65536);
        let costs: Vec<f64> = neo_bench::table_specs(&p)
            .iter()
            .map(|t| cm.table_cost(t))
            .collect();
        let ig = imbalance(&costs, &greedy(&costs, 128), 128);
        let ik = imbalance(&costs, &karmarkar_karp(&costs, 128), 128);
        println!("      {} on 128 GPUs: greedy {ig:.4}  LDM {ik:.4}", p.name);
    }

    // 2. cache replacement policy vs UVM pages (§4.1.3)
    use neo_memory::{Policy, SetAssocCache, UvmPageCache};
    use rand::SeedableRng;
    use rand_distr::Distribution;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    #[expect(
        clippy::unwrap_used,
        reason = "demo binary with hard-coded valid config"
    )]
    let zipf = rand_distr::Zipf::new(1_000_000u64, 1.05).unwrap();
    let trace: Vec<u64> = (0..60_000)
        .map(|_| zipf.sample(&mut rng) as u64 - 1)
        .collect();
    println!("  [2] caching 1M rows in 8K slots on a Zipf(1.05) trace:");
    for policy in [Policy::Lru, Policy::Lfu] {
        let mut c = SetAssocCache::with_capacity_rows(8_192, 32, policy);
        let fill = vec![0.0f32; 32];
        for &r in &trace {
            if c.get(r).is_none() {
                c.insert(r, &fill);
            }
        }
        println!(
            "      software cache {policy}: hit rate {:.3}",
            c.stats().hit_rate()
        );
    }
    let mut uvm = UvmPageCache::with_capacity_rows(8_192, 128);
    for &r in &trace {
        uvm.access_row(r, false);
    }
    println!(
        "      UVM 2MiB pages  : hit rate {:.3}, PCIe traffic {} vs row-granular {}",
        uvm.stats().hit_rate(),
        fmt_bytes(uvm.total_traffic() as f64),
        fmt_bytes((trace.len() * 128) as f64),
    );

    // 3. kernel fusion (§4.1.1), modelled at the paper's shapes
    let v100 = DeviceProfile::v100();
    let cfg = embbench::EmbBenchConfig {
        batch: 256,
        ..Default::default()
    };
    let fused = embbench::forward_time(&v100, Precision::Fp32, cfg);
    let unfused = embbench::unfused_forward_time(&v100, Precision::Fp32, cfg);
    println!(
        "  [3] fused vs per-table lookup, 64 tables @ B=256: {:.2}x speedup (paper: up to 7x)",
        unfused / fused
    );

    // 4. hierarchical vs flat row-wise sharding: comm cost of the
    //    ReduceScatter for one 256-dim table at B=64K — every participant
    //    holds a partial over the full global batch (B x D x 4 bytes)
    let bytes = 65536.0 * 256.0 * 4.0;
    let flat =
        CollectiveCost::new(ClusterTopology::zionex_prototype(16)).reduce_scatter_time(bytes);
    let hier = CollectiveCost::new(ClusterTopology::single_node()).reduce_scatter_time(bytes);
    println!(
        "  [4] row-wise ReduceScatter, flat (128 GPUs) {:.2} ms vs hierarchical (1 node) {:.2} ms",
        flat * 1e3,
        hier * 1e3
    );

    // 5. exact vs naive sparse AdaGrad on duplicated rows
    use neo_embeddings::bag::SparseGrad;
    use neo_embeddings::{DenseStore, RowStore, SparseAdagrad, SparseOptimizer};
    use neo_tensor::Tensor2;
    let grad = SparseGrad::dense(vec![0, 0, 0, 0], Tensor2::full(4, 1, 1.0));
    let mut exact_store = DenseStore::zeros(1, 1);
    SparseAdagrad::new(0.1, 1e-8, 1, 1).step(&mut exact_store, &grad);
    let mut naive_store = DenseStore::zeros(1, 1);
    SparseAdagrad::new(0.1, 1e-8, 1, 1).step_unmerged(&mut naive_store, &grad);
    println!(
        "  [5] AdaGrad on 4 duplicate grads: exact update {:.4} vs naive scatter {:.4} \
         (different math, only exact is deterministic on GPU)",
        exact_store.to_dense()[(0, 0)],
        naive_store.to_dense()[(0, 0)]
    );

    // 6. pipelining on/off for A2 at 128 GPUs
    let m = IterationModel::prototype();
    let scen = optimized_scenario(&ModelProfile::a2(), 16, 65536);
    let on = m.breakdown(&scen, 16).t_total;
    let off = m.breakdown(&scen.clone().without_pipelining(), 16).t_total;
    println!(
        "  [6] inter-batch pipelining (§4.3): iteration {:.1} ms with, {:.1} ms without ({:.0}% saved)",
        on * 1e3,
        off * 1e3,
        (1.0 - on / off) * 100.0
    );
}

fn timeline_block() {
    banner("Timeline: event-simulated iteration schedule (A2 @ 128 GPUs, Fig. 9 DAG)");
    use neo_perfmodel::timeline::{fig9_graph, simulate, Resource};
    let m = IterationModel::prototype();
    let scen = optimized_scenario(&ModelProfile::a2(), 16, 65536);
    let bd = m.breakdown(&scen, 16);
    let ops = fig9_graph(&bd, true);
    let t = simulate(&ops);
    let scale = 60.0 / t.makespan; // 60-column gantt
    let mut rows: Vec<_> = t.ops.clone();
    rows.sort_by(|a, b| a.1.start.total_cmp(&b.1.start));
    for (phase, s) in rows {
        let res = ops.iter().find(|o| o.phase == phase).map(|o| o.resource);
        let tag = match res {
            Some(Resource::Compute) => "#",
            Some(Resource::Memory) => "=",
            Some(Resource::Network) => "~",
            Some(Resource::CommLane) => "+",
            None => "?",
        };
        let start = (s.start * scale) as usize;
        let len = (((s.end - s.start) * scale) as usize).max(1);
        println!(
            "  {phase:<16} |{}{}{}| {:>7.2} ms",
            " ".repeat(start),
            tag.repeat(len),
            " ".repeat(60usize.saturating_sub(start + len)),
            (s.end - s.start) * 1e3
        );
    }
    println!(
        "  makespan {:.2} ms (Eq.1 closed form: {:.2} ms); # compute, = memory, ~ network",
        t.makespan * 1e3,
        bd.t_total * 1e3
    );
}
