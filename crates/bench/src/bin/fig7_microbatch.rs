//! Figure 7 (right): throughput vs. *fixed* micro-batch size for the
//! four-branch MMT with mini-batch 128 on 8 GPUs.
//!
//! Expected shape (paper): GraphPipe beats SPP at every micro-batch size —
//! with identical operational intensity the gap is pure pipeline-depth
//! reduction.

use gp_bench::harness::{fmt_throughput, row};
use graphpipe::prelude::*;
use graphpipe::PlannerKind;

fn main() {
    let model = zoo::mmt(&zoo::MmtConfig::default());
    let cluster = Cluster::summit_like(8);
    let mini_batch = 128;
    println!("# Figure 7 (right): throughput vs micro-batch size (MMT, B=128, 8 GPUs)\n");
    println!(
        "{}",
        row(&[
            "micro-batch".into(),
            "GraphPipe".into(),
            "PipeDream".into(),
            "GP/PD".into(),
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 4]));
    for b in [1u64, 2, 4, 8, 16, 32] {
        let mut cells = Vec::new();
        for kind in [PlannerKind::GraphPipe, PlannerKind::PipeDream] {
            let opts = PlanOptions::default().with_forced_micro_batch(b);
            let cell = kind
                .build(opts, &Telemetry::disabled())
                .plan(&model, &cluster, mini_batch)
                .ok()
                .and_then(|plan| {
                    graphpipe::simulate_plan(&model, &cluster, &plan)
                        .ok()
                        .map(|r| r.throughput)
                });
            cells.push(cell);
        }
        let ratio = match (cells[0], cells[1]) {
            (Some(g), Some(p)) => format!("{:.2}x", g / p),
            _ => "-".into(),
        };
        println!(
            "{}",
            row(&[
                b.to_string(),
                fmt_throughput(cells[0]),
                fmt_throughput(cells[1]),
                ratio
            ])
        );
    }
}
