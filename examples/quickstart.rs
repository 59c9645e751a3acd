//! Quickstart: train a small DLRM synchronously across 4 simulated GPUs.
//!
//! ```text
//! cargo run --release --example quickstart \
//!     [-- --telemetry out.json] [--monitor out.jsonl] [--workload out.json] \
//!     [--overlap] [--comm-delay]
//! ```
//!
//! `--overlap` trains on the overlapped (Fig. 9) schedule instead of the
//! serial one — bitwise-identical losses, different wall-clock shape.
//! `--comm-delay` injects the ZionEX-derived wire latency into every
//! collective so communication costs real time; combine both to
//! reproduce the Fig. 14 exposed-comm drop measured in README.md.
//!
//! Demonstrates the full Neo pipeline at laptop scale: synthetic CTR data
//! in the combined format streamed through the background prefetcher and
//! shared per-worker feed, a planner-generated hybrid sharding plan, the
//! hybrid-parallel trainer with quantized AlltoAll, and normalized-entropy
//! evaluation.
//!
//! With `--telemetry <out.json>` the run arms the metrics registry and
//! writes two artifacts: the metrics/span summary to `<out.json>`, and a
//! Chrome trace (load it at `chrome://tracing` or <https://ui.perfetto.dev>)
//! to `<out.json>` with the extension replaced by `.trace.json`. It also
//! prints the `neo-prof` cross-rank report: the phase bounding each
//! iteration's critical path, per-phase rank skew, and the measured
//! exposed-comm fraction with each collective's share.
//!
//! With `--monitor <out.jsonl>` the run streams live health telemetry
//! (`neo-monitor`): a sampler thread appends schema-versioned frames —
//! per-rank heartbeats, counters, gauges — to `<out.jsonl>` while
//! echoing a one-line status per sample, a watchdog raises
//! stall/hang/straggler alerts, and the last frame is the final scrape.
//! Validate the log with `neo-xtask check <out.jsonl>`.
//!
//! With `--workload <out.json>` the run enables the always-cheap access
//! profiler (`neo-workload`): per-table lookup/pooling statistics,
//! unique-row traffic, the exact hottest rows from one hit count per row,
//! and per-shard load attribution, written as the schema-versioned
//! `workload.json` artifact.
//! Profiling never perturbs training — losses are bitwise-identical with
//! the flag on or off. Validate with `neo-xtask check <out.json>`.

use neo_dlrm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let telemetry_path = args.telemetry;
    // 1. model: 8 embedding tables of 20000 rows, dim 16
    let model = DlrmConfig::tiny(8, 20_000, 16);
    println!("model: {} parameters", model.num_params());

    // 2. sharding plan across 4 workers
    let specs: Vec<TableSpec> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let planner = Planner::new(CostModel::v100_prototype(256), PlannerConfig::default());
    let plan = planner.plan(&specs, 4)?;
    let (tw, rw, cw, dp) = plan.scheme_histogram();
    println!(
        "plan: {tw} table-wise, {rw} row-wise, {cw} column-wise, {dp} data-parallel; \
         imbalance {:.3}",
        planner.plan_imbalance(&plan, &specs)
    );

    // 3. trainer: FP16 forward AlltoAll, BF16 backward (§5.3.2)
    let mut cfg = SyncConfig::exact(4, model, plan.clone(), 256);
    cfg.quant_fwd = QuantMode::Fp16;
    cfg.quant_bwd = QuantMode::Bf16;
    cfg.lr = 0.4;
    cfg.overlap = args.overlap;
    if args.comm_delay {
        // wire cost priced like the benchmark's quickstart_w2_overlap_wire
        cfg.comm_delay = Some(CommDelay::new(16e9, 100e-6));
    }
    if args.overlap || args.comm_delay {
        println!(
            "schedule: {}{}",
            if args.overlap {
                "overlapped (Fig. 9)"
            } else {
                "serial"
            },
            if args.comm_delay {
                " + injected wire delay"
            } else {
                ""
            },
        );
    }
    if telemetry_path.is_some() {
        cfg.telemetry = TelemetrySink::armed();
    }
    if let Some(path) = &args.monitor {
        cfg.monitor = Some(MonitorConfig {
            echo: true,
            ..MonitorConfig::to_path(path)
        });
        println!("monitor: streaming frames to {path}");
    }
    cfg.workload = args.workload.is_some();
    let trainer = SyncTrainer::new(cfg);
    // new() arms a disabled sink when the monitor needs one
    let sink = trainer.config().telemetry.clone();

    // 4. synthetic CTR stream + eval set, fed through the §4.4 ingestion
    //    pipeline: a background prefetcher builds batches ahead of the
    //    trainer (double-buffered) and a shared feed hands each global
    //    batch to all 4 workers
    const ITERS: u64 = 120;
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(8, 20_000, 4, 4))?;
    let eval: Vec<_> = (10_000..10_004).map(|k| ds.batch(256, k)).collect();
    let reader =
        PrefetchReader::spawn_with_telemetry(ITERS, 2, sink.clone(), move |k| ds.batch(256, k));
    let feed = SharedFeed::new(reader, 4);

    // 5. train, evaluating NE every 20 iterations
    let out = trainer.train_stream(
        ITERS,
        |k| feed.batch(k).expect("prefetch feed covers every iteration"),
        &eval,
        20,
        None,
    )?;
    println!(
        "loss: first {:.4} -> last {:.4}",
        out.losses[0],
        out.losses.last().unwrap()
    );
    for (samples, ne) in &out.ne_curve {
        println!("  after {samples:>6} samples: NE = {ne:.4}");
    }
    let wire_mb: u64 = out.comm.iter().map(|s| s.bytes_sent).sum::<u64>() / (1 << 20);
    println!("total collective traffic: {wire_mb} MiB across 4 workers");
    if let Some(path) = &args.monitor {
        println!(
            "monitor: {} health alert(s); event log at {path}",
            out.health_events.len()
        );
        for e in &out.health_events {
            println!("  ALERT {e}");
        }
    }

    // 6. optionally dump the workload profile
    if let Some(path) = &args.workload {
        let report = out
            .workload
            .as_ref()
            .ok_or("workload profiling was requested but produced no report")?;
        std::fs::write(path, report.to_json())?;
        let imb = report.imbalance();
        println!(
            "workload: {} tables / {} shards profiled; lookup imbalance {:.3} \
             (planner predicted {:.3}); written to {path}",
            report.tables.len(),
            report.shards.len(),
            imb.lookup_max_over_mean,
            planner.predicted_lookup_imbalance(&plan, &specs),
        );
    }

    // 7. optionally dump the telemetry artifacts
    if let Some(path) = telemetry_path {
        if let Some(summary) = &out.telemetry_summary {
            println!("{summary}");
        }
        // cross-rank critical path + exposed-comm analysis (neo-prof)
        if let Some(report) = out.telemetry.as_ref().and_then(analyze) {
            println!("{report}");
        }
        let json = sink.export_json().ok_or("telemetry sink was not armed")?;
        std::fs::write(&path, json)?;
        let trace = sink
            .export_chrome_trace()
            .ok_or("telemetry sink was not armed")?;
        let trace_path = trace_file_for(&path);
        std::fs::write(&trace_path, trace)?;
        println!("telemetry written to {path} and {trace_path}");
    }
    Ok(())
}

struct Args {
    telemetry: Option<String>,
    monitor: Option<String>,
    workload: Option<String>,
    overlap: bool,
    comm_delay: bool,
}

/// Parses `[--telemetry <path>] [--monitor <path>] [--workload <path>]
/// [--overlap] [--comm-delay]`.
fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        telemetry: None,
        monitor: None,
        workload: None,
        overlap: false,
        comm_delay: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--telemetry" => match args.next() {
                Some(p) => parsed.telemetry = Some(p),
                None => return Err("--telemetry requires an output path".into()),
            },
            "--monitor" => match args.next() {
                Some(p) => parsed.monitor = Some(p),
                None => return Err("--monitor requires an output path".into()),
            },
            "--workload" => match args.next() {
                Some(p) => parsed.workload = Some(p),
                None => return Err("--workload requires an output path".into()),
            },
            "--overlap" => parsed.overlap = true,
            "--comm-delay" => parsed.comm_delay = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// `out.json` -> `out.trace.json` (appends when there is no extension).
fn trace_file_for(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.trace.json"),
        None => format!("{path}.trace.json"),
    }
}
