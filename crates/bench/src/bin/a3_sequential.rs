//! Appendix A.3: on a *sequential* Transformer (no branches) all three
//! planners should match — GraphPipe's advantage comes only from topology.

use gp_bench::harness::{fmt_throughput, paper_mini_batch, row, run_cell};
use graphpipe::prelude::*;
use graphpipe::PlannerKind;

fn main() {
    let model = zoo::sequential_transformer(32, &zoo::MmtConfig::default());
    println!("# Appendix A.3: sequential Transformer parity (samples/s)\n");
    println!(
        "{}",
        row(&[
            "GPUs".into(),
            "Piper".into(),
            "PipeDream".into(),
            "GraphPipe".into(),
            "GP/PD".into(),
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 5]));
    for devices in [4usize, 8, 16, 32] {
        let mini_batch = paper_mini_batch("mmt", devices);
        let cluster = Cluster::summit_like(devices);
        let piper = run_cell(&model, &cluster, mini_batch, PlannerKind::Piper);
        let pd = run_cell(&model, &cluster, mini_batch, PlannerKind::PipeDream);
        let gp = run_cell(&model, &cluster, mini_batch, PlannerKind::GraphPipe);
        let ratio = match (gp.throughput, pd.throughput) {
            (Some(g), Some(p)) => format!("{:.3}", g / p),
            _ => "-".into(),
        };
        println!(
            "{}",
            row(&[
                devices.to_string(),
                fmt_throughput(piper.throughput),
                fmt_throughput(pd.throughput),
                fmt_throughput(gp.throughput),
                ratio,
            ])
        );
    }
}
