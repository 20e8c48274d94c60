//! Golden tests pinning the GraphPipe planner's outputs across the zoo at
//! 8–64 GPUs (the "baseline parity" + "planner hot path" ROADMAP items).
//!
//! Each line pins the simulated makespan and the planner's search-stat
//! counters for one (model, devices) cell. The values are exact: the
//! planner and simulator are deterministic (see
//! `reports_are_byte_deterministic` in `gp-sim`), so any diff here is a
//! behaviour change — either an intentional planner improvement (re-pin
//! the table after reviewing it) or a regression. The arena-memo refactor
//! of `gp-partition` was validated against this table: every makespan,
//! stage graph, `evals`, `iters` and `configs` value was unchanged; only
//! `states` was re-pinned when `dp_states` switched from summing memo
//! sizes across binary-search probes to reporting the per-run peak.
//!
//! The 64-GPU rows cover the two models the scale work targets
//! (`CandleUnoConfig::full()`, `zoo::moe`); the remaining 64-GPU cells run
//! in `planner_profile` (release) instead, where their ~250M debug-mode DP
//! evaluations don't tax `cargo test`.
//!
//! Wall-clock search time is *not* pinned (it is machine-dependent); the
//! deterministic counters `dp_evals`/`dp_states`/`memo_hits`/
//! `binary_iters`/`configs_tried` stand in for it, mirroring Table 1's
//! cost accounting.

use graphpipe::prelude::*;
use std::fmt::Write as _;

/// Mini-batch per model and device count: the Appendix A.2 operating
/// points for the paper models (extrapolated by doubling past 32 GPUs),
/// and matching-scale choices for the two ROADMAP additions (full
/// CANDLE-Uno, MoE).
type Cell = (&'static str, SpModel, Vec<(usize, u64)>);

fn cells() -> Vec<Cell> {
    vec![
        (
            "mmt",
            zoo::mmt(&zoo::MmtConfig::default()),
            vec![(8, 128), (16, 256), (32, 512)],
        ),
        (
            "dlrm",
            zoo::dlrm(&zoo::DlrmConfig::default()),
            vec![(8, 512), (16, 1024), (32, 2048)],
        ),
        (
            "candle-uno",
            zoo::candle_uno(&zoo::CandleUnoConfig::default()),
            vec![(8, 8192), (16, 16384), (32, 32768)],
        ),
        (
            "candle-uno-full",
            zoo::candle_uno(&zoo::CandleUnoConfig::full()),
            vec![(8, 8192), (16, 16384), (32, 32768), (64, 65536)],
        ),
        (
            "moe",
            zoo::moe(&zoo::MoeConfig::default()),
            vec![(8, 256), (16, 512), (32, 1024), (64, 2048)],
        ),
    ]
}

fn actual_table() -> String {
    let opts = PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    };
    let mut out = String::new();
    for (name, model, points) in cells() {
        for (devices, mini_batch) in points {
            let cluster = Cluster::summit_like(devices);
            let plan = GraphPipePlanner::with_options(opts.clone())
                .plan(&model, &cluster, mini_batch)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let report = graphpipe::simulate_plan(&model, &cluster, &plan)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let _ = writeln!(
                out,
                "{name} gpus={devices} b={mini_batch} makespan={:.9e} stages={} depth={} \
                 micro={} evals={} states={} hits={} iters={} configs={}",
                report.iteration_time,
                plan.stage_graph.len(),
                plan.pipeline_depth(),
                plan.max_micro_batch(),
                plan.stats.dp_evals,
                plan.stats.dp_states,
                plan.stats.memo_hits,
                plan.stats.binary_iters,
                plan.stats.configs_tried,
            );
        }
    }
    out
}

const EXPECTED: &str = "\
mmt gpus=8 b=128 makespan=1.400232949e0 stages=4 depth=2 micro=64 evals=62122 states=436 hits=27108 iters=8 configs=34
mmt gpus=16 b=256 makespan=1.401588110e0 stages=4 depth=2 micro=64 evals=926293 states=1591 hits=457366 iters=8 configs=46
mmt gpus=32 b=512 makespan=2.322646468e0 stages=9 depth=3 micro=128 evals=6458195 states=4055 hits=3350199 iters=8 configs=53
dlrm gpus=8 b=512 makespan=4.009272153e-2 stages=6 depth=2 micro=256 evals=37292 states=731 hits=31863 iters=7 configs=29
dlrm gpus=16 b=1024 makespan=3.913955829e-2 stages=15 depth=2 micro=1024 evals=487946 states=2412 hits=447792 iters=7 configs=36
dlrm gpus=32 b=2048 makespan=3.265472466e-2 stages=16 depth=3 micro=256 evals=9383277 states=8804 hits=8262065 iters=9 configs=64
candle-uno gpus=8 b=8192 makespan=2.140994895e-1 stages=8 depth=2 micro=4096 evals=26118 states=405 hits=12738 iters=8 configs=63
candle-uno gpus=16 b=16384 makespan=2.708418455e-1 stages=8 depth=2 micro=2048 evals=268150 states=1049 hits=144431 iters=8 configs=64
candle-uno gpus=32 b=32768 makespan=2.495837234e-1 stages=8 depth=2 micro=1024 evals=1798541 states=2380 hits=1154333 iters=7 configs=56
candle-uno-full gpus=8 b=8192 makespan=6.886048953e-1 stages=8 depth=2 micro=4096 evals=96881 states=1411 hits=125118 iters=8 configs=63
candle-uno-full gpus=16 b=16384 makespan=7.418773963e-1 stages=8 depth=2 micro=2048 evals=994472 states=4293 hits=1195554 iters=8 configs=64
candle-uno-full gpus=32 b=32768 makespan=8.682303883e-1 stages=22 depth=2 micro=512 evals=6023817 states=9939 hits=7243447 iters=7 configs=56
candle-uno-full gpus=64 b=65536 makespan=1.068724394e0 stages=22 depth=2 micro=1024 evals=96236767 states=35699 hits=114933552 iters=8 configs=64
moe gpus=8 b=256 makespan=7.019171528e-3 stages=6 depth=3 micro=256 evals=46349 states=534 hits=28838 iters=9 configs=37
moe gpus=16 b=512 makespan=7.006966486e-3 stages=10 depth=3 micro=512 evals=554730 states=1843 hits=382388 iters=9 configs=46
moe gpus=32 b=1024 makespan=1.229349628e-2 stages=10 depth=3 micro=128 evals=2853020 states=4687 hits=2156693 iters=9 configs=55
moe gpus=64 b=2048 makespan=1.417729438e-2 stages=11 depth=4 micro=512 evals=34297787 states=13071 hits=28010116 iters=10 configs=79
";

#[test]
fn planner_outputs_match_golden_table() {
    let actual = actual_table();
    assert_eq!(
        actual.trim(),
        EXPECTED.trim(),
        "\n--- actual table (paste over EXPECTED if the change is intended) ---\n{actual}"
    );
}

/// Telemetry is write-only: planning with tracing enabled must reproduce
/// the untraced plan exactly — stage graph, schedule, estimates, *and*
/// every deterministic search counter — and the encoded artifact bytes
/// must match once the (machine-noise) wall timings are zeroed. Restricted
/// to the 8-GPU rows to keep debug-mode test time in check.
#[test]
fn telemetry_does_not_perturb_the_planner() {
    use graphpipe::obs::Telemetry;
    use graphpipe::serve::artifact;

    let opts = PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    };
    for (name, model, points) in cells() {
        for (devices, mini_batch) in points.into_iter().filter(|&(d, _)| d == 8) {
            let cluster = Cluster::summit_like(devices);
            let quiet = GraphPipePlanner::with_options(opts.clone())
                .plan(&model, &cluster, mini_batch)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let loud = GraphPipePlanner::with_options(opts.clone())
                .with_telemetry(Telemetry::enabled())
                .plan(&model, &cluster, mini_batch)
                .unwrap_or_else(|e| panic!("{name}@{devices} (traced): {e}"));
            let strip = |mut p: Plan| {
                p.stats.zero_walls();
                p
            };
            let (quiet, loud) = (strip(quiet), strip(loud));
            assert_eq!(quiet, loud, "{name}@{devices}");
            assert_eq!(
                artifact::encode_plan(&quiet, None),
                artifact::encode_plan(&loud, None),
                "{name}@{devices}: artifact bytes diverged"
            );
        }
    }
}
