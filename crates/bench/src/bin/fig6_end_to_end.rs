//! Figure 6: end-to-end training throughput (samples/s) of GraphPipe,
//! PipeDream, and Piper on MMT, DLRM, and CANDLE-Uno as the device count
//! scales, with the Appendix A.2 mini-batch sizes and micro-batch sweep.
//!
//! Expected shape (paper): GraphPipe >= the SPP baselines at all but one
//! configuration, the gap widening with device count; Piper cannot produce
//! strategies for the 8-branch models (printed as "✗").

use gp_bench::harness::{fmt_throughput, paper_mini_batch, paper_models, row, run_cell};
use graphpipe::prelude::*;
use graphpipe::PlannerKind;

fn main() {
    let kinds = [
        PlannerKind::GraphPipe,
        PlannerKind::PipeDream,
        PlannerKind::Piper,
    ];
    println!("# Figure 6: end-to-end throughput (samples/s, simulated V100 cluster)\n");
    for (name, model) in paper_models() {
        println!("## {name}\n");
        println!(
            "{}",
            row(&[
                "GPUs".into(),
                "B".into(),
                "GraphPipe".into(),
                "PipeDream".into(),
                "Piper".into(),
                "GP/PD".into(),
                "depth GP".into(),
                "depth PD".into(),
            ])
        );
        println!("{}", row(&vec!["---".to_string(); 8]));
        for devices in [4usize, 8, 16, 32] {
            let mini_batch = paper_mini_batch(name, devices);
            let cluster = Cluster::summit_like(devices);
            let cells: Vec<_> = kinds
                .iter()
                .map(|&k| run_cell(&model, &cluster, mini_batch, k))
                .collect();
            let speedup = match (cells[0].throughput, cells[1].throughput) {
                (Some(gp), Some(pd)) => format!("{:.2}x", gp / pd),
                _ => "-".into(),
            };
            println!(
                "{}",
                row(&[
                    devices.to_string(),
                    mini_batch.to_string(),
                    fmt_throughput(cells[0].throughput),
                    fmt_throughput(cells[1].throughput),
                    fmt_throughput(cells[2].throughput),
                    speedup,
                    cells[0].depth.map_or("-".into(), |d| d.to_string()),
                    cells[1].depth.map_or("-".into(), |d| d.to_string()),
                ])
            );
        }
        println!();
    }
}
