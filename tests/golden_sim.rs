//! Golden tests pinning the simulator's outputs (the ROADMAP's "scale
//! the simulator" item).
//!
//! Two kinds of line. A planned line pins one (model, devices) cell of
//! the evaluation zoo at 8/16 GPUs: the simulated makespan, the number of
//! executed task spans, the worst per-device peak memory, the warm-up
//! length, and a bit-exact FNV digest of the *entire* report
//! ([`SimReport::fingerprint`] folds every scalar's IEEE-754 bit pattern
//! and every timeline span). The table was captured on the pre-arena
//! engine and replayed unchanged after the rebuild: matching fingerprints
//! prove the refactor produces byte-identical reports, not just close
//! ones.
//!
//! A scaled line pins a strategy built by hand rather than planned — see
//! [`scaled_strategy`] — at 64–1024 devices × 256–10k micro-batches, far
//! past the planner's operating points. The 64 × 256 cells run in every
//! build; the {64, 256, 512, 1024} × {1k, 10k} grid takes most of a
//! minute in a debug build, so it runs only in release builds
//! (`cargo test --release --test golden_sim`, a CI step).
//!
//! Any diff here is a simulator behaviour change — either an intentional
//! modeling change (re-pin after reviewing DESIGN.md's modeling contract)
//! or a regression.

use graphpipe::prelude::*;
use graphpipe::sched::{
    assign_in_flight, schedule_tasks, PipelineSchedule, Stage, StageGraph, StageId,
};
use std::fmt::Write as _;

/// The evaluation zoo at its Appendix A.2 operating points (8/16 GPUs):
/// (model, devices, mini-batch).
const CELLS: &[(&str, usize, u64)] = &[
    ("mmt", 8, 128),
    ("mmt", 16, 256),
    ("dlrm", 8, 512),
    ("dlrm", 16, 1024),
    ("candle-uno", 8, 8192),
    ("candle-uno", 16, 16384),
    ("candle-uno-full", 8, 8192),
    ("candle-uno-full", 16, 16384),
    ("moe", 8, 256),
    ("moe", 16, 512),
];

const MODELS: [&str; 5] = ["mmt", "dlrm", "candle-uno", "candle-uno-full", "moe"];

fn model(name: &str) -> SpModel {
    match name {
        "mmt" => zoo::mmt(&zoo::MmtConfig::default()),
        "dlrm" => zoo::dlrm(&zoo::DlrmConfig::default()),
        "candle-uno" => zoo::candle_uno(&zoo::CandleUnoConfig::default()),
        "candle-uno-full" => zoo::candle_uno(&zoo::CandleUnoConfig::full()),
        "moe" => zoo::moe(&zoo::MoeConfig::default()),
        other => panic!("unknown model {other}"),
    }
}

fn options() -> PlanOptions {
    PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    }
}

fn actual_table() -> String {
    let mut out = String::new();
    for &(name, devices, mini_batch) in CELLS {
        let model = model(name);
        let cluster = Cluster::summit_like(devices);
        let plan = GraphPipePlanner::with_options(options())
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
    out
}

/// Per-stage micro-batch size of the scaled strategies. Small enough that
/// 10k micro-batches stay a plausible mini-batch, large enough to keep
/// per-task durations off the kernel-overhead floor.
const MICRO_BATCH: u64 = 4;

/// Builds a scaled strategy for `devices` GPUs: the linearized model cut
/// into equal contiguous chunks (convex by construction — any path between
/// two ops of a chunk stays between them in topological order), each chunk
/// replicated data-parallel over `devices / stages` GPUs, 1F1B schedules
/// from the §6 in-flight assignment. This is *not* a planner output — it
/// is a deterministic, memory-oblivious strategy whose only job is to
/// exercise the simulator at scale.
fn scaled_strategy(
    model: &SpModel,
    cluster: &Cluster,
    micro_batches: u64,
) -> (StageGraph, PipelineSchedule) {
    let devices = cluster.device_count();
    let ops = model.linearize();
    let mut nstages = devices.min(64);
    while nstages > ops.len() {
        nstages /= 2;
    }
    assert!(
        devices.is_multiple_of(nstages),
        "device counts must be powers of two >= 64"
    );
    let dp = (devices / nstages) as u32;
    let stages: Vec<Stage> = (0..nstages)
        .map(|i| {
            let lo = i * ops.len() / nstages;
            let hi = (i + 1) * ops.len() / nstages;
            Stage {
                id: StageId(i as u32),
                ops: ops[lo..hi].to_vec(),
                devices: DeviceRange::new(i as u32 * dp, dp),
                micro_batch: MICRO_BATCH,
                kfkb: 1,
            }
        })
        .collect();
    let sg = StageGraph::new(model.graph(), cluster, stages, MICRO_BATCH * micro_batches)
        .expect("scaled strategies are valid stage graphs");
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    (sg, schedule)
}

/// One line per (model, devices, micro-batches) cell of scaled strategies.
fn scaled_table(cells: impl IntoIterator<Item = (&'static str, usize, u64)>) -> String {
    let mut out = String::new();
    for (name, devices, micro_batches) in cells {
        let model = model(name);
        let cluster = Cluster::summit_like(devices);
        let (sg, schedule) = scaled_strategy(&model, &cluster, micro_batches);
        let report = graphpipe::sim::simulate(model.graph(), &cluster, &sg, &schedule)
            .unwrap_or_else(|e| panic!("{name}@{devices}x{micro_batches}: {e}"));
        let _ = writeln!(
            out,
            "{name} devices={devices} mbs={micro_batches} stages={} spans={} makespan={:.9e} \
             fp={:016x}",
            sg.len(),
            report.timeline.len(),
            report.iteration_time,
            report.fingerprint(),
        );
    }
    out
}

fn assert_table(actual: String, expected: &str) {
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "\n--- actual table (paste over the expected one if the change is intended) ---\n{actual}"
    );
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

const EXPECTED_SCALED: &str = "\
mmt devices=64 mbs=256 stages=64 spans=32768 makespan=2.158961012e0 fp=7e93113acf323336
dlrm devices=64 mbs=256 stages=64 spans=32768 makespan=3.196722356e-1 fp=abd1cbb0bea72312
candle-uno devices=64 mbs=256 stages=64 spans=32768 makespan=6.841606187e-2 fp=e19b0876c4d64435
candle-uno-full devices=64 mbs=256 stages=64 spans=32768 makespan=1.306634092e-1 fp=cc54596f9374a5ac
moe devices=64 mbs=256 stages=32 spans=16384 makespan=3.675841411e-2 fp=1b70bd53f50bff2a
";

const EXPECTED_SCALED_GRID: &str = "\
mmt devices=64 mbs=1000 stages=64 spans=128000 makespan=7.927944367e0 fp=57d132b3d142d3d0
mmt devices=64 mbs=10000 stages=64 spans=1280000 makespan=7.771403334e1 fp=f4f2b99b108cd047
mmt devices=256 mbs=1000 stages=64 spans=128000 makespan=6.402338969e0 fp=77d51797ccf33e76
mmt devices=256 mbs=10000 stages=64 spans=1280000 makespan=6.189039290e1 fp=81a76ad52afc7f8f
mmt devices=512 mbs=1000 stages=64 spans=128000 makespan=6.121835925e0 fp=f5d8b9fe14037657
mmt devices=512 mbs=10000 stages=64 spans=1280000 makespan=5.924879057e1 fp=3a4b5aa35f40af01
mmt devices=1024 mbs=1000 stages=64 spans=128000 makespan=5.851616268e0 fp=018dbb42aa2b3fa6
mmt devices=1024 mbs=10000 stages=64 spans=1280000 makespan=5.643653451e1 fp=d40054680370bcd9
dlrm devices=64 mbs=1000 stages=64 spans=128000 makespan=1.245074117e0 fp=6c240cb50d7baea6
dlrm devices=64 mbs=10000 stages=64 spans=1280000 makespan=1.243945172e1 fp=0f8103e2f677c830
dlrm devices=256 mbs=1000 stages=64 spans=128000 makespan=6.441176787e-1 fp=e2fd511b63759c12
dlrm devices=256 mbs=10000 stages=64 spans=1280000 makespan=6.414322479e0 fp=ef935c287c5b26a6
dlrm devices=512 mbs=1000 stages=64 spans=128000 makespan=4.859413599e-1 fp=c1cea5084172df97
dlrm devices=512 mbs=10000 stages=64 spans=1280000 makespan=4.417653760e0 fp=7b22ea4a081f1133
dlrm devices=1024 mbs=1000 stages=64 spans=128000 makespan=4.137081510e-1 fp=4343df68f640bddf
dlrm devices=1024 mbs=10000 stages=64 spans=1280000 makespan=3.641711020e0 fp=954692b062329b60
candle-uno devices=64 mbs=1000 stages=64 spans=128000 makespan=2.652967940e-1 fp=40a387696a8b6d29
candle-uno devices=64 mbs=10000 stages=64 spans=1280000 makespan=2.646918554e0 fp=898df7accd1166e8
candle-uno devices=256 mbs=1000 stages=64 spans=128000 makespan=1.616832823e-1 fp=c227b5e1f8bac70b
candle-uno devices=256 mbs=10000 stages=64 spans=1280000 makespan=1.604256082e0 fp=9d3a5687f6afb369
candle-uno devices=512 mbs=1000 stages=64 spans=128000 makespan=1.543073985e-1 fp=4cd1f1dc88c4ca93
candle-uno devices=512 mbs=10000 stages=64 spans=1280000 makespan=1.454352554e0 fp=29da3152d0e43f80
candle-uno devices=1024 mbs=1000 stages=64 spans=128000 makespan=1.043017088e-1 fp=212ce5d19ad28c06
candle-uno devices=1024 mbs=10000 stages=64 spans=1280000 makespan=9.423789860e-1 fp=c5cbca1b3611ee64
candle-uno-full devices=64 mbs=1000 stages=64 spans=128000 makespan=5.092198150e-1 fp=30cacb01857f0eac
candle-uno-full devices=64 mbs=10000 stages=64 spans=1280000 makespan=5.088531175e0 fp=5023da59a75328ca
candle-uno-full devices=256 mbs=1000 stages=64 spans=128000 makespan=3.073918757e-1 fp=0acb92466836ecd9
candle-uno-full devices=256 mbs=10000 stages=64 spans=1280000 makespan=3.063339146e0 fp=970e79dbb04f2ce0
candle-uno-full devices=512 mbs=1000 stages=64 spans=128000 makespan=1.718582585e-1 fp=cd0c87fb566a1af4
candle-uno-full devices=512 mbs=10000 stages=64 spans=1280000 makespan=1.549831893e0 fp=7c6a456857de16af
candle-uno-full devices=1024 mbs=1000 stages=64 spans=128000 makespan=9.741910532e-2 fp=b855901932bafc94
candle-uno-full devices=1024 mbs=10000 stages=64 spans=1280000 makespan=7.857934901e-1 fp=b688008c371af293
moe devices=64 mbs=1000 stages=32 spans=64000 makespan=1.407681063e-1 fp=b3404895ca81b96f
moe devices=64 mbs=10000 stages=32 spans=640000 makespan=1.398949866e0 fp=8f55ea84f35c8cd3
moe devices=256 mbs=1000 stages=32 spans=64000 makespan=1.297463648e-1 fp=80eeb24c4a621268
moe devices=256 mbs=10000 stages=32 spans=640000 makespan=1.253001280e0 fp=0adc94c0313501f3
moe devices=512 mbs=1000 stages=32 spans=64000 makespan=8.460311954e-2 fp=628f35381010c22e
moe devices=512 mbs=10000 stages=32 spans=640000 makespan=7.931641846e-1 fp=ced0ef05fee518eb
moe devices=1024 mbs=1000 stages=32 spans=64000 makespan=4.600666489e-2 fp=99d129feb72a609a
moe devices=1024 mbs=10000 stages=32 spans=640000 makespan=4.002871974e-1 fp=7cea017ff7fe9352
";

#[test]
fn simulator_outputs_match_golden_table() {
    assert_table(actual_table(), EXPECTED);
}

#[test]
fn scaled_strategies_match_golden_table() {
    assert_table(scaled_table(MODELS.map(|m| (m, 64, 256))), EXPECTED_SCALED);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "most of a minute in a debug build; run with `cargo test --release`"
)]
fn scaled_strategies_match_golden_table_at_scale() {
    let grid = MODELS.into_iter().flat_map(|m| {
        [64, 256, 512, 1024]
            .into_iter()
            .flat_map(move |d| [1_000, 10_000].map(move |mb| (m, d, mb)))
    });
    assert_table(scaled_table(grid), EXPECTED_SCALED_GRID);
}

/// Telemetry is write-only: simulating with tracing enabled must produce
/// the bit-exact report fingerprint of the untraced run. Restricted to the
/// 8-GPU rows to keep debug-mode test time in check.
#[test]
fn telemetry_does_not_perturb_the_simulator() {
    use graphpipe::obs::Telemetry;
    use graphpipe::sim::simulate_traced;

    for &(name, devices, mini_batch) in CELLS.iter().filter(|c| c.1 == 8) {
        let model = model(name);
        let cluster = Cluster::summit_like(devices);
        let plan = GraphPipePlanner::with_options(options())
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
