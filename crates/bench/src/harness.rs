//! Shared helpers for the table/figure harness binaries.

use graphpipe::prelude::*;
use graphpipe::PlannerKind;

/// The paper's mini-batch sizes per model and device count (Appendix A.2):
/// "we use the following ranges of mini-batch sizes for each device count
/// such that the system operates close to the memory limit".
pub fn paper_mini_batch(model: &str, devices: usize) -> u64 {
    let idx = match devices {
        4 => 0,
        8 => 1,
        16 => 2,
        32 => 3,
        other => panic!("no paper configuration for {other} devices"),
    };
    match model {
        "mmt" => [64, 128, 256, 512][idx],
        "dlrm" => [256, 512, 1024, 2048][idx],
        "candle-uno" => [4096, 8192, 16384, 32768][idx],
        other => panic!("unknown model {other}"),
    }
}

/// Plan options used by the harness: the A.2 sweep caps the number of
/// micro-batches per mini-batch so huge mini-batches stay tractable.
pub fn harness_options() -> PlanOptions {
    PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    }
}

/// Renders a throughput, or the paper's "✗" when the planner produced no
/// strategy.
pub fn fmt_throughput(throughput: Option<f64>) -> String {
    throughput.map_or("✗".to_string(), |t| format!("{t:.0}"))
}

/// Evaluates a planner on a model at the harness options — a thin shim
/// over [`Session::compare`], which owns the per-planner evaluation policy
/// (A.2 micro-batch sweep for GraphPipe/PipeDream, coarse-unit single run
/// for Piper).
pub fn run_cell(
    model: &SpModel,
    cluster: &Cluster,
    mini_batch: u64,
    kind: PlannerKind,
) -> ComparisonRow {
    let session = Session::builder()
        .model(model.clone())
        .cluster(cluster.clone())
        .mini_batch(mini_batch)
        .options(harness_options())
        .build()
        .expect("harness sessions are well-formed");
    session.compare(&[kind]).rows()[0].clone()
}

/// The three evaluation models at their paper configurations.
pub fn paper_models() -> Vec<(&'static str, SpModel)> {
    vec![
        ("mmt", zoo::mmt(&zoo::MmtConfig::default())),
        ("dlrm", zoo::dlrm(&zoo::DlrmConfig::default())),
        (
            "candle-uno",
            zoo::candle_uno(&zoo::CandleUnoConfig::default()),
        ),
    ]
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}
