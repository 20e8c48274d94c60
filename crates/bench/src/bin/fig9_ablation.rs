//! Figure 9: ablation at 32 GPUs. "Parallel" allows concurrent stage
//! execution at the SPP micro-batch size; "GraphPipe" additionally takes
//! the larger micro-batch the reduced footprint admits.
//!
//! Expected shape (paper): Parallel = 1.12-1.40x over SPP, GraphPipe =
//! 1.25-1.61x.

use gp_bench::harness::{fmt_throughput, paper_mini_batch, paper_models, row, run_cell};
use graphpipe::prelude::*;
use graphpipe::PlannerKind;

fn main() {
    let devices = 32usize;
    let cluster = Cluster::summit_like(devices);
    println!("# Figure 9: ablation at 32 GPUs (normalized to PipeDream)\n");
    println!(
        "{}",
        row(&[
            "model".into(),
            "SPP".into(),
            "Parallel".into(),
            "GraphPipe".into(),
            "Parallel gain".into(),
            "GraphPipe gain".into(),
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 6]));
    for (name, model) in paper_models() {
        let mini_batch = paper_mini_batch(name, devices);
        let spp = run_cell(&model, &cluster, mini_batch, PlannerKind::PipeDream);
        let gpp = run_cell(&model, &cluster, mini_batch, PlannerKind::GraphPipe);
        let par = parallel_ablation(&model, &cluster, mini_batch)
            .ok()
            .and_then(|p| graphpipe::simulate_plan(&model, &cluster, &p).ok())
            .map(|r| r.throughput);
        let gain = |v: Option<f64>| match (v, spp.throughput) {
            (Some(a), Some(b)) => format!("{:.2}x", a / b),
            _ => "-".into(),
        };
        println!(
            "{}",
            row(&[
                name.to_string(),
                fmt_throughput(spp.throughput),
                fmt_throughput(par),
                fmt_throughput(gpp.throughput),
                gain(par),
                gain(gpp.throughput),
            ])
        );
    }
}
