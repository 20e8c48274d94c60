//! Golden tests pinning the simulator's outputs across the zoo at 8/16
//! GPUs (the ROADMAP's "scale the simulator" item).
//!
//! Each line pins one (model, devices) cell: the simulated makespan, the
//! number of executed task spans, the worst per-device peak memory, the
//! warm-up length, and a bit-exact FNV digest of the *entire* report
//! ([`SimReport::fingerprint`] folds every scalar's IEEE-754 bit pattern
//! and every timeline span). The table was captured on the pre-arena
//! engine and replayed unchanged after the rebuild: matching fingerprints
//! prove the refactor produces byte-identical reports, not just close
//! ones.
//!
//! Any diff here is a simulator behaviour change — either an intentional
//! modeling change (re-pin after reviewing DESIGN.md's modeling contract)
//! or a regression.

use graphpipe::prelude::*;
use std::fmt::Write as _;

/// The evaluation zoo at its Appendix A.2 operating points (8/16 GPUs).
type Cell = (&'static str, SpModel, Vec<(usize, u64)>);

fn cells() -> Vec<Cell> {
    vec![
        (
            "mmt",
            zoo::mmt(&zoo::MmtConfig::default()),
            vec![(8, 128), (16, 256)],
        ),
        (
            "dlrm",
            zoo::dlrm(&zoo::DlrmConfig::default()),
            vec![(8, 512), (16, 1024)],
        ),
        (
            "candle-uno",
            zoo::candle_uno(&zoo::CandleUnoConfig::default()),
            vec![(8, 8192), (16, 16384)],
        ),
        (
            "candle-uno-full",
            zoo::candle_uno(&zoo::CandleUnoConfig::full()),
            vec![(8, 8192), (16, 16384)],
        ),
        (
            "moe",
            zoo::moe(&zoo::MoeConfig::default()),
            vec![(8, 256), (16, 512)],
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
                "{name} gpus={devices} b={mini_batch} makespan={:.9e} spans={} peak={} \
                 warmup={:.9e} fp={:016x}",
                report.iteration_time,
                report.timeline.len(),
                report.max_peak_memory(),
                report.warmup_time,
                report.fingerprint(),
            );
        }
    }
    out
}

const EXPECTED: &str = "\
mmt gpus=8 b=128 makespan=1.400232949e0 spans=16 peak=9664856064 warmup=2.361618516e-1 fp=5ec123a3af11550d
mmt gpus=16 b=256 makespan=1.401588110e0 spans=32 peak=9664856064 warmup=2.361618516e-1 fp=ba73bc868cecb41e
dlrm gpus=8 b=512 makespan=4.009272153e-2 spans=24 peak=4370423808 warmup=7.985329568e-3 fp=9f30527bb18ca3c4
dlrm gpus=16 b=1024 makespan=3.913955829e-2 spans=30 peak=1470119936 warmup=1.035247936e-2 fp=ad81ed0b13f061e4
candle-uno gpus=8 b=8192 makespan=2.140994895e-1 spans=32 peak=2147745792 warmup=4.108862403e-2 fp=ef8e99f48197c047
candle-uno gpus=16 b=16384 makespan=2.708418455e-1 spans=128 peak=1342439424 warmup=2.059786092e-2 fp=69bcea3ca327f038
candle-uno-full gpus=8 b=8192 makespan=6.886048953e-1 spans=32 peak=6443237376 warmup=1.232458721e-1 fp=4e375e5d27006dca
candle-uno-full gpus=16 b=16384 makespan=7.418773963e-1 spans=128 peak=4027318272 warmup=6.177358275e-2 fp=b50fdbc0a841f809
moe gpus=8 b=256 makespan=7.019171528e-3 spans=12 peak=574947328 warmup=1.499306712e-3 fp=7800554adf288959
moe gpus=16 b=512 makespan=7.006966486e-3 spans=20 peak=306348032 warmup=1.630019008e-3 fp=a595ace77570c23c
";

#[test]
fn simulator_outputs_match_golden_table() {
    let actual = actual_table();
    assert_eq!(
        actual.trim(),
        EXPECTED.trim(),
        "\n--- actual table (paste over EXPECTED if the change is intended) ---\n{actual}"
    );
}

/// Telemetry is write-only: simulating with tracing enabled must produce
/// the bit-exact report fingerprint of the untraced run. Restricted to the
/// 8-GPU rows to keep debug-mode test time in check.
#[test]
fn telemetry_does_not_perturb_the_simulator() {
    use graphpipe::obs::Telemetry;
    use graphpipe::sim::simulate_traced;

    let opts = PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    };
    for (name, model, points) in cells() {
        for (devices, mini_batch) in points.into_iter().filter(|&(d, _)| d == 8) {
            let cluster = Cluster::summit_like(devices);
            let plan = GraphPipePlanner::with_options(opts.clone())
                .plan(&model, &cluster, mini_batch)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let quiet = graphpipe::simulate_plan(&model, &cluster, &plan)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let telemetry = Telemetry::enabled();
            let loud = simulate_traced(
                model.graph(),
                &cluster,
                &plan.stage_graph,
                &plan.schedule,
                &SimOptions::default(),
                &telemetry,
            )
            .unwrap_or_else(|e| panic!("{name}@{devices} (traced): {e}"));
            assert_eq!(quiet.fingerprint(), loud.fingerprint(), "{name}@{devices}");
            assert!(
                !telemetry.spans().is_empty(),
                "{name}@{devices}: traced run recorded no spans"
            );
        }
    }
}
