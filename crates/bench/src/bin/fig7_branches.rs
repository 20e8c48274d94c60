//! Figure 7 (left): throughput vs. number of parallel branches on
//! CANDLE-Uno at 4/8/16 GPUs, normalized to PipeDream.
//!
//! Expected shape (paper): the GraphPipe advantage grows with the branch
//! count, reaching about 2x at 16 branches.

use gp_bench::harness::{fmt_throughput, paper_mini_batch, row, run_cell};
use graphpipe::prelude::*;
use graphpipe::PlannerKind;

fn main() {
    println!("# Figure 7 (left): normalized throughput vs branch count (CANDLE-Uno)\n");
    println!(
        "{}",
        row(&[
            "branches".into(),
            "GPUs".into(),
            "GraphPipe".into(),
            "PipeDream".into(),
            "normalized".into(),
            "depth GP".into(),
            "depth PD".into(),
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 7]));
    for branches in [2usize, 4, 8, 16] {
        let model = zoo::candle_uno(&zoo::CandleUnoConfig::with_branches(branches));
        for devices in [4usize, 8, 16] {
            let mini_batch = paper_mini_batch("candle-uno", devices);
            let cluster = Cluster::summit_like(devices);
            let gp = run_cell(&model, &cluster, mini_batch, PlannerKind::GraphPipe);
            let pd = run_cell(&model, &cluster, mini_batch, PlannerKind::PipeDream);
            let norm = match (gp.throughput, pd.throughput) {
                (Some(g), Some(p)) => format!("{:.2}x", g / p),
                _ => "-".into(),
            };
            println!(
                "{}",
                row(&[
                    branches.to_string(),
                    devices.to_string(),
                    fmt_throughput(gp.throughput),
                    fmt_throughput(pd.throughput),
                    norm,
                    gp.depth.map_or("-".into(), |d| d.to_string()),
                    pd.depth.map_or("-".into(), |d| d.to_string()),
                ])
            );
        }
    }
}
