//! Golden tests pinning the GraphPipe planner's outputs across the zoo at
//! 8–128 GPUs (the "baseline parity" + "planner hot path" ROADMAP items).
//!
//! Each line pins one (model, devices) cell: the simulated makespan, the
//! strategy's shape, the planner's search-stat counters, and the plan
//! fingerprint (`fp=`, [`plan_fingerprint`]: the strategy itself, search
//! counters excluded). The values are exact: the planner and simulator
//! are deterministic (see `reports_are_byte_deterministic` in `gp-sim`),
//! so any diff here is a behaviour change — either an intentional planner
//! improvement (re-pin the table after reviewing it) or a regression. The
//! arena-memo refactor of `gp-partition` was validated against this
//! table: every makespan, stage graph, `evals`, `iters` and `configs`
//! value was unchanged; only `states` was re-pinned when `dp_states`
//! switched from summing memo sizes across binary-search probes to
//! reporting the per-run peak.
//!
//! Two tables:
//!
//! * [`EXPECTED`] covers every model at 8–32 GPUs, plus the two models the
//!   scale work targets (`CandleUnoConfig::full()`, `zoo::moe`) at 64, and
//!   runs in every build;
//! * [`EXPECTED_SCALE`] covers the other 64-GPU cells and every model at
//!   128 GPUs with beam width 8. Its ~230M DP evaluations take about half a minute in a debug build, so it
//!   runs only in release builds (`cargo test --release --test
//!   golden_planner`, a CI step).
//!
//! Wall-clock search time is *not* pinned (it is machine-dependent); the
//! deterministic counters `dp_evals`/`dp_states`/`memo_hits`/
//! `binary_iters`/`configs_tried` stand in for it, mirroring Table 1's
//! cost accounting.

use graphpipe::prelude::*;
use graphpipe::serve::fingerprint::plan_fingerprint;
use std::fmt::Write as _;

/// Mini-batch per model and device count: the Appendix A.2 operating
/// points for the paper models (extrapolated by doubling past 32 GPUs),
/// and matching-scale choices for the two ROADMAP additions (full
/// CANDLE-Uno, MoE).
const CELLS: &[(&str, usize, u64)] = &[
    ("mmt", 8, 128),
    ("mmt", 16, 256),
    ("mmt", 32, 512),
    ("dlrm", 8, 512),
    ("dlrm", 16, 1024),
    ("dlrm", 32, 2048),
    ("candle-uno", 8, 8192),
    ("candle-uno", 16, 16384),
    ("candle-uno", 32, 32768),
    ("candle-uno-full", 8, 8192),
    ("candle-uno-full", 16, 16384),
    ("candle-uno-full", 32, 32768),
    ("candle-uno-full", 64, 65536),
    ("moe", 8, 256),
    ("moe", 16, 512),
    ("moe", 32, 1024),
    ("moe", 64, 2048),
];

/// The release-only cells, at the same operating points: (model, devices,
/// mini-batch, beam width).
const SCALE_CELLS: &[(&str, usize, u64, Option<u32>)] = &[
    ("mmt", 64, 1024, None),
    ("dlrm", 64, 4096, None),
    ("candle-uno", 64, 65536, None),
    ("mmt", 128, 2048, Some(8)),
    ("dlrm", 128, 8192, Some(8)),
    ("candle-uno", 128, 131072, Some(8)),
    ("candle-uno-full", 128, 131072, Some(8)),
    ("moe", 128, 4096, Some(8)),
];

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

fn actual_table(cells: &[(&str, usize, u64, Option<u32>)]) -> String {
    let mut out = String::new();
    for &(name, devices, mini_batch, beam_width) in cells {
        let mut label = format!("{name} gpus={devices} b={mini_batch}");
        if let Some(width) = beam_width {
            let _ = write!(label, " beam={width}");
        }
        let model = model(name);
        let cluster = Cluster::summit_like(devices);
        let plan = GraphPipePlanner::with_options(PlanOptions {
            beam_width,
            ..options()
        })
        .plan(&model, &cluster, mini_batch)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        let report = graphpipe::simulate_plan(&model, &cluster, &plan)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let _ = writeln!(
            out,
            "{label} makespan={:.9e} stages={} depth={} micro={} evals={} states={} hits={} \
             iters={} configs={} fp={}",
            report.iteration_time,
            plan.stage_graph.len(),
            plan.pipeline_depth(),
            plan.max_micro_batch(),
            plan.stats.dp_evals,
            plan.stats.dp_states,
            plan.stats.memo_hits,
            plan.stats.binary_iters,
            plan.stats.configs_tried,
            plan_fingerprint(&plan),
        );
    }
    out
}

fn assert_table(cells: &[(&str, usize, u64, Option<u32>)], expected: &str) {
    let actual = actual_table(cells);
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "\n--- actual table (paste over the expected one if the change is intended) ---\n{actual}"
    );
}

const EXPECTED: &str = "\
mmt gpus=8 b=128 makespan=1.400232949e0 stages=4 depth=2 micro=64 evals=62122 states=436 hits=27108 iters=8 configs=34 fp=dbe8f9292f23daa2c5112aba6cdc24ba
mmt gpus=16 b=256 makespan=1.401588110e0 stages=4 depth=2 micro=64 evals=926293 states=1591 hits=457366 iters=8 configs=46 fp=9becf606b9a18ced3d609ac0a8003bec
mmt gpus=32 b=512 makespan=2.322646468e0 stages=9 depth=3 micro=128 evals=6458195 states=4055 hits=3350199 iters=8 configs=53 fp=6b076db0e007de2b51917cf138b4e517
dlrm gpus=8 b=512 makespan=4.009272153e-2 stages=6 depth=2 micro=256 evals=37292 states=731 hits=31863 iters=7 configs=29 fp=f336e9529283a14591873c7cf2635b27
dlrm gpus=16 b=1024 makespan=3.913955829e-2 stages=15 depth=2 micro=1024 evals=487946 states=2412 hits=447792 iters=7 configs=36 fp=0c2ce491cd71c7d3f0469c43bd8b8c90
dlrm gpus=32 b=2048 makespan=3.265472466e-2 stages=16 depth=3 micro=256 evals=9383277 states=8804 hits=8262065 iters=9 configs=64 fp=e6af98d649f02e3778c19cafe1416c05
candle-uno gpus=8 b=8192 makespan=2.140994895e-1 stages=8 depth=2 micro=4096 evals=26118 states=405 hits=12738 iters=8 configs=63 fp=fba1571a980719c51f9d01f9b9395f08
candle-uno gpus=16 b=16384 makespan=2.708418455e-1 stages=8 depth=2 micro=2048 evals=268150 states=1049 hits=144431 iters=8 configs=64 fp=bd1db64010d886a5294217e6ee8c606b
candle-uno gpus=32 b=32768 makespan=2.495837234e-1 stages=8 depth=2 micro=1024 evals=1798541 states=2380 hits=1154333 iters=7 configs=56 fp=dca0f36997350e7ff37ed3e96d570252
candle-uno-full gpus=8 b=8192 makespan=6.886048953e-1 stages=8 depth=2 micro=4096 evals=96881 states=1411 hits=125118 iters=8 configs=63 fp=850498fc6a04cb51a9cd5c868102ac2c
candle-uno-full gpus=16 b=16384 makespan=7.418773963e-1 stages=8 depth=2 micro=2048 evals=994472 states=4293 hits=1195554 iters=8 configs=64 fp=5845ad21efa2d7c42419c3fe09b2ab75
candle-uno-full gpus=32 b=32768 makespan=8.682303883e-1 stages=22 depth=2 micro=512 evals=6023817 states=9939 hits=7243447 iters=7 configs=56 fp=5211c5cbc3e0b8e6d696f27fe354e0a2
candle-uno-full gpus=64 b=65536 makespan=1.068724394e0 stages=22 depth=2 micro=1024 evals=96236767 states=35699 hits=114933552 iters=8 configs=64 fp=0c9ca747916a1f228af19c5f66952e07
moe gpus=8 b=256 makespan=7.019171528e-3 stages=6 depth=3 micro=256 evals=46349 states=534 hits=28838 iters=9 configs=37 fp=78f0d19fb603f82016a6c888640ddc79
moe gpus=16 b=512 makespan=7.006966486e-3 stages=10 depth=3 micro=512 evals=554730 states=1843 hits=382388 iters=9 configs=46 fp=c5f0ead4e6507c31111a0522fd12d3ad
moe gpus=32 b=1024 makespan=1.229349628e-2 stages=10 depth=3 micro=128 evals=2853020 states=4687 hits=2156693 iters=9 configs=55 fp=50201733d37455edf3248fb338cf3ffc
moe gpus=64 b=2048 makespan=1.417729438e-2 stages=11 depth=4 micro=512 evals=34297787 states=13071 hits=28010116 iters=10 configs=79 fp=81b372aed9906f638b164218a99066e9
";
const EXPECTED_SCALE: &str = "\
mmt gpus=64 b=1024 makespan=2.392505301e0 stages=10 depth=4 micro=128 evals=36619445 states=8454 hits=20369392 iters=8 configs=64 fp=bb83a8300123d6530fedd640545cc36d
dlrm gpus=64 b=4096 makespan=1.120619616e-1 stages=16 depth=3 micro=128 evals=113481782 states=21683 hits=105829313 iters=10 configs=80 fp=76a20ec78b24dee0c0a94ae05f270d88
candle-uno gpus=64 b=65536 makespan=4.869815797e-1 stages=1 depth=1 micro=1024 evals=16752992 states=8428 hits=12094117 iters=9 configs=72 fp=ee16aeec97cfdaff787faf8070f0201d
mmt gpus=128 b=2048 beam=8 makespan=1.014624636e0 stages=1 depth=1 micro=16 evals=19748469 states=3822 hits=15011699 iters=8 configs=64 fp=e7b3593673c7f10d67c531c9f5f71b32
dlrm gpus=128 b=8192 beam=8 makespan=1.208564715e-1 stages=16 depth=3 micro=256 evals=15463173 states=10063 hits=19935646 iters=11 configs=88 fp=05736281ec48424689b77b6837d4bbba
candle-uno gpus=128 b=131072 beam=8 makespan=4.906111067e-1 stages=1 depth=1 micro=1024 evals=701018 states=301 hits=609892 iters=9 configs=72 fp=6b4c902fb0fc28df391658418c557bda
candle-uno-full gpus=128 b=131072 beam=8 makespan=2.166610647e0 stages=22 depth=2 micro=1024 evals=21768447 states=25968 hits=35402182 iters=9 configs=72 fp=5ee86e7997f9bb4110e41e93cc863c8c
moe gpus=128 b=4096 beam=8 makespan=2.549905075e-2 stages=18 depth=4 micro=1024 evals=5321565 states=4085 hits=4748006 iters=11 configs=88 fp=b379539cbdd0b2d983d2b925c921d470
";

#[test]
fn planner_outputs_match_golden_table() {
    let cells: Vec<_> = CELLS
        .iter()
        .map(|&(name, devices, mini_batch)| (name, devices, mini_batch, None))
        .collect();
    assert_table(&cells, EXPECTED);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about half a minute in a debug build; run with `cargo test --release`"
)]
fn planner_outputs_match_golden_table_at_scale() {
    assert_table(SCALE_CELLS, EXPECTED_SCALE);
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

    for &(name, devices, mini_batch) in CELLS.iter().filter(|c| c.1 == 8) {
        let model = model(name);
        let cluster = Cluster::summit_like(devices);
        let quiet = GraphPipePlanner::with_options(options())
            .plan(&model, &cluster, mini_batch)
            .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
        let loud = GraphPipePlanner::with_options(options())
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
