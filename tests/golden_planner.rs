//! Golden tests pinning the planners' outputs across the zoo: GraphPipe
//! at 8–128 GPUs, PipeDream and Piper at 4–32 (the "baseline parity" +
//! "planner hot path" ROADMAP items).
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
//! reporting the per-run peak. The lazy probe (a probe stops at its first
//! feasible micro-batch configuration; the final target's remaining ones
//! run once in a completion pass) re-pinned only the counter columns
//! `evals`, `states`, `hits` and `configs`: every makespan, shape,
//! `iters` and `fp` value replayed unchanged.
//!
//! Two tables:
//!
//! * [`EXPECTED`] covers every model at 8–32 GPUs, plus the two models the
//!   scale work targets (`CandleUnoConfig::full()`, `zoo::moe`) at 64, and
//!   runs in every build;
//! * [`EXPECTED_SCALE`] covers the other 64-GPU cells and every model at
//!   128 GPUs with beam width 8, plus the slow baseline rows. Its GraphPipe
//!   rows alone take about 15 s in a debug build and Piper's MoE rows
//!   minutes, so it runs only in release builds (`cargo test --release
//!   --test golden_planner`, a CI step; about 40 s on a 2-core host).
//!
//! Wall-clock search time is *not* pinned (it is machine-dependent); the
//! deterministic counters `dp_evals`/`dp_states`/`memo_hits`/
//! `binary_iters`/`configs_tried` stand in for it, mirroring Table 1's
//! cost accounting.
//!
//! Both tables end with baseline rows, labelled with their planner:
//! PipeDream on the five models, and Piper on the two-branch MMT, on MoE,
//! and on DLRM, where its downset lattice explodes (a `✗` row pinning the
//! evals it spent). Every planner prices stages through the same gp-cost
//! functions, so these rows pin that shared cost model as well.
//!
//! Every planned row also pins the planner's memory estimate against the
//! simulator: the estimate is never below the simulated peak, and the
//! same stage-memory function with each stage's in-flight samples capped
//! at the mini-batch gives the simulated peak exactly (DESIGN.md §"Memory
//! accounting").

use graphpipe::cost::CostModel;
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
        "mmt-two-branch" => zoo::mmt(&zoo::MmtConfig::two_branch()),
        "dlrm" => zoo::dlrm(&zoo::DlrmConfig::default()),
        "candle-uno" => zoo::candle_uno(&zoo::CandleUnoConfig::default()),
        "candle-uno-full" => zoo::candle_uno(&zoo::CandleUnoConfig::full()),
        "moe" => zoo::moe(&zoo::MoeConfig::default()),
        other => panic!("unknown model {other}"),
    }
}

/// The planner a row runs.
#[derive(Debug, Clone, Copy)]
enum Who {
    GraphPipe,
    PipeDream,
    Piper,
}

/// One table row: (planner, model, devices, mini-batch, beam width).
type Row = (Who, &'static str, usize, u64, Option<u32>);

/// Baseline rows in every build, at the same operating points (4 GPUs
/// halves the 8-GPU mini-batch): PipeDream at 4 and 8 GPUs on the five
/// models, Piper on the two-branch MMT at 4–16 GPUs, and Piper's `✗` on
/// DLRM at 8.
const BASELINE_CELLS: &[(Who, &str, usize, u64)] = &[
    (Who::PipeDream, "mmt", 4, 64),
    (Who::PipeDream, "mmt", 8, 128),
    (Who::PipeDream, "dlrm", 4, 256),
    (Who::PipeDream, "dlrm", 8, 512),
    (Who::PipeDream, "candle-uno", 4, 4096),
    (Who::PipeDream, "candle-uno", 8, 8192),
    (Who::PipeDream, "candle-uno-full", 4, 4096),
    (Who::PipeDream, "candle-uno-full", 8, 8192),
    (Who::PipeDream, "moe", 4, 128),
    (Who::PipeDream, "moe", 8, 256),
    (Who::Piper, "mmt-two-branch", 4, 64),
    (Who::Piper, "mmt-two-branch", 8, 128),
    (Who::Piper, "mmt-two-branch", 16, 256),
    (Who::Piper, "dlrm", 8, 512),
];

/// Release-only baseline rows: PipeDream at 16 and 32 GPUs and Piper on
/// MoE, which take seconds to minutes each in a debug build.
const BASELINE_SCALE_CELLS: &[(Who, &str, usize, u64)] = &[
    (Who::PipeDream, "mmt", 16, 256),
    (Who::PipeDream, "mmt", 32, 512),
    (Who::PipeDream, "dlrm", 16, 1024),
    (Who::PipeDream, "dlrm", 32, 2048),
    (Who::PipeDream, "candle-uno", 16, 16384),
    (Who::PipeDream, "candle-uno", 32, 32768),
    (Who::PipeDream, "candle-uno-full", 16, 16384),
    (Who::PipeDream, "candle-uno-full", 32, 32768),
    (Who::PipeDream, "moe", 16, 512),
    (Who::PipeDream, "moe", 32, 1024),
    (Who::Piper, "moe", 4, 128),
    (Who::Piper, "moe", 8, 256),
    (Who::Piper, "moe", 16, 512),
];

fn options() -> PlanOptions {
    PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    }
}

/// GraphPipe's rows, then the baselines'.
fn rows(
    graphpipe: &[(&'static str, usize, u64, Option<u32>)],
    baselines: &[(Who, &'static str, usize, u64)],
) -> Vec<Row> {
    let ours = graphpipe.iter().map(|&(name, devices, mini_batch, beam)| {
        (Who::GraphPipe, name, devices, mini_batch, beam)
    });
    let theirs = baselines
        .iter()
        .map(|&(who, name, devices, mini_batch)| (who, name, devices, mini_batch, None));
    ours.chain(theirs).collect()
}

fn plan_row(
    who: Who,
    model: &SpModel,
    cluster: &Cluster,
    mini_batch: u64,
    beam_width: Option<u32>,
) -> Result<Plan, PlanError> {
    match who {
        Who::GraphPipe => GraphPipePlanner::with_options(PlanOptions {
            beam_width,
            ..options()
        })
        .plan(model, cluster, mini_batch),
        Who::PipeDream => {
            PipeDreamPlanner::with_options(options()).plan(model, cluster, mini_batch)
        }
        Who::Piper => PiperPlanner::with_options(options()).plan(model, cluster, mini_batch),
    }
}

/// Pins the planner's memory estimate against the simulated peak: never
/// below it, and equal to it once each stage's in-flight samples are
/// capped at the mini-batch (a stage cannot hold more micro-batches than
/// exist).
fn assert_memory_estimate(
    label: &str,
    model: &SpModel,
    cluster: &Cluster,
    plan: &Plan,
    report: &SimReport,
) {
    let simulated = report.max_peak_memory();
    assert!(
        plan.peak_memory_bytes >= simulated,
        "{label}: estimate {} below the simulated peak {simulated}",
        plan.peak_memory_bytes
    );
    let cost = CostModel::new(cluster);
    let mini_batch = plan.stage_graph.mini_batch();
    let capped = plan
        .stage_graph
        .stages()
        .map(|s| {
            let in_flight = plan.in_flight.samples(s.id).min(mini_batch);
            cost.stage_memory_bytes(
                model.graph(),
                &s.ops,
                in_flight,
                s.micro_batch,
                s.dp_degree(),
            )
        })
        .max()
        .unwrap_or(0);
    assert_eq!(
        capped, simulated,
        "{label}: capped estimate vs simulated peak"
    );
}

fn actual_table(rows: &[Row]) -> String {
    let mut out = String::new();
    for &(who, name, devices, mini_batch, beam_width) in rows {
        let mut label = match who {
            Who::GraphPipe => String::new(),
            Who::PipeDream => "pipedream ".to_string(),
            Who::Piper => "piper ".to_string(),
        };
        let _ = write!(label, "{name} gpus={devices} b={mini_batch}");
        if let Some(width) = beam_width {
            let _ = write!(label, " beam={width}");
        }
        let model = model(name);
        let cluster = Cluster::summit_like(devices);
        let plan = match plan_row(who, &model, &cluster, mini_batch, beam_width) {
            Ok(plan) => plan,
            Err(PlanError::SearchExplosion { evals }) => {
                let _ = writeln!(out, "{label} ✗ evals={evals}");
                continue;
            }
            Err(e) => panic!("{label}: {e}"),
        };
        let report = graphpipe::simulate_plan(&model, &cluster, &plan)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_memory_estimate(&label, &model, &cluster, &plan, &report);
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

fn assert_table(rows: &[Row], expected: &str) {
    let actual = actual_table(rows);
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "\n--- actual table (paste over the expected one if the change is intended) ---\n{actual}"
    );
}

const EXPECTED: &str = "\
mmt gpus=8 b=128 makespan=1.400232949e0 stages=4 depth=2 micro=64 evals=2950 states=164 hits=1088 iters=8 configs=18 fp=dbe8f9292f23daa2c5112aba6cdc24ba
mmt gpus=16 b=256 makespan=1.401588110e0 stages=4 depth=2 micro=64 evals=41641 states=603 hits=20031 iters=8 configs=24 fp=9becf606b9a18ced3d609ac0a8003bec
mmt gpus=32 b=512 makespan=2.322646468e0 stages=9 depth=3 micro=128 evals=482380 states=1843 hits=268593 iters=8 configs=33 fp=6b076db0e007de2b51917cf138b4e517
dlrm gpus=8 b=512 makespan=4.009272153e-2 stages=6 depth=2 micro=256 evals=15016 states=379 hits=9973 iters=7 configs=22 fp=f336e9529283a14591873c7cf2635b27
dlrm gpus=16 b=1024 makespan=3.913955829e-2 stages=15 depth=2 micro=1024 evals=182578 states=1949 hits=148128 iters=7 configs=26 fp=0c2ce491cd71c7d3f0469c43bd8b8c90
dlrm gpus=32 b=2048 makespan=3.265472466e-2 stages=16 depth=3 micro=256 evals=1511583 states=4867 hits=1032791 iters=9 configs=34 fp=e6af98d649f02e3778c19cafe1416c05
candle-uno gpus=8 b=8192 makespan=2.140994895e-1 stages=8 depth=2 micro=4096 evals=3815 states=326 hits=1718 iters=8 configs=37 fp=fba1571a980719c51f9d01f9b9395f08
candle-uno gpus=16 b=16384 makespan=2.708418455e-1 stages=8 depth=2 micro=2048 evals=55962 states=988 hits=29586 iters=8 configs=32 fp=bd1db64010d886a5294217e6ee8c606b
candle-uno gpus=32 b=32768 makespan=2.495837234e-1 stages=8 depth=2 micro=1024 evals=587725 states=2300 hits=409153 iters=7 configs=35 fp=dca0f36997350e7ff37ed3e96d570252
candle-uno-full gpus=8 b=8192 makespan=6.886048953e-1 stages=8 depth=2 micro=4096 evals=10753 states=930 hits=12496 iters=8 configs=37 fp=850498fc6a04cb51a9cd5c868102ac2c
candle-uno-full gpus=16 b=16384 makespan=7.418773963e-1 stages=8 depth=2 micro=2048 evals=165246 states=4003 hits=185901 iters=8 configs=32 fp=5845ad21efa2d7c42419c3fe09b2ab75
candle-uno-full gpus=32 b=32768 makespan=8.682303883e-1 stages=22 depth=2 micro=512 evals=1208564 states=9764 hits=1370045 iters=7 configs=42 fp=5211c5cbc3e0b8e6d696f27fe354e0a2
candle-uno-full gpus=64 b=65536 makespan=1.068724394e0 stages=22 depth=2 micro=1024 evals=22174546 states=35664 hits=25421684 iters=8 configs=43 fp=0c9ca747916a1f228af19c5f66952e07
moe gpus=8 b=256 makespan=7.019171528e-3 stages=6 depth=3 micro=256 evals=22975 states=362 hits=13401 iters=9 configs=29 fp=78f0d19fb603f82016a6c888640ddc79
moe gpus=16 b=512 makespan=7.006966486e-3 stages=10 depth=3 micro=512 evals=283106 states=1353 hits=185049 iters=9 configs=36 fp=c5f0ead4e6507c31111a0522fd12d3ad
moe gpus=32 b=1024 makespan=1.229349628e-2 stages=10 depth=3 micro=128 evals=1234241 states=3583 hits=919173 iters=9 configs=43 fp=50201733d37455edf3248fb338cf3ffc
moe gpus=64 b=2048 makespan=1.417729438e-2 stages=11 depth=4 micro=512 evals=11331193 states=8217 hits=9194151 iters=10 configs=52 fp=81b372aed9906f638b164218a99066e9
pipedream mmt gpus=4 b=64 makespan=1.786184716e0 stages=4 depth=4 micro=32 evals=367375 states=0 hits=0 iters=0 configs=7 fp=604573eb93fea1d62460f258a67654b0
pipedream mmt gpus=8 b=128 makespan=1.446590132e0 stages=2 depth=2 micro=32 evals=1900107 states=0 hits=0 iters=0 configs=8 fp=bd8c69250ff660f1a046cbd9ebb8f1fd
pipedream dlrm gpus=4 b=256 makespan=7.567183356e-2 stages=4 depth=4 micro=256 evals=203314 states=0 hits=0 iters=0 configs=8 fp=aa75b5cbd191d20091c5cbaa426a7d80
pipedream dlrm gpus=8 b=512 makespan=1.443614282e-1 stages=8 depth=8 micro=512 evals=941809 states=0 hits=0 iters=0 configs=8 fp=c8cc9770812565d4ae785b2a0cfaaf60
pipedream candle-uno gpus=4 b=4096 makespan=7.585983041e-1 stages=4 depth=4 micro=4096 evals=105072 states=0 hits=0 iters=0 configs=8 fp=379ded424ec213c83c6a019babea94db
pipedream candle-uno gpus=8 b=8192 makespan=4.087332792e-1 stages=2 depth=2 micro=2048 evals=484704 states=0 hits=0 iters=0 configs=8 fp=01f7e60c616b8786a76052683a995b98
pipedream candle-uno-full gpus=4 b=4096 makespan=2.269375091e0 stages=4 depth=4 micro=4096 evals=830664 states=0 hits=0 iters=0 configs=8 fp=272b62dbd624a4f52a286db5c2c19dc7
pipedream candle-uno-full gpus=8 b=8192 makespan=1.220634964e0 stages=2 depth=2 micro=2048 evals=3890585 states=0 hits=0 iters=0 configs=8 fp=09f02cf83cc923f6dba8df914dc19120
pipedream moe gpus=4 b=128 makespan=8.559296868e-3 stages=4 depth=4 micro=128 evals=70416 states=0 hits=0 iters=0 configs=8 fp=0a67375741957c144c18e2a5071c8b52
pipedream moe gpus=8 b=256 makespan=1.577098899e-2 stages=8 depth=8 micro=256 evals=324000 states=0 hits=0 iters=0 configs=8 fp=f6dfd22afa7c151fc1de92c0d0c524f2
piper mmt-two-branch gpus=4 b=64 makespan=7.170435894e-1 stages=2 depth=2 micro=32 evals=21175 states=101 hits=0 iters=0 configs=7 fp=d8f116430b5b679daf7c8b7d57d7baba
piper mmt-two-branch gpus=8 b=128 makespan=7.233340664e-1 stages=2 depth=2 micro=32 evals=24200 states=101 hits=0 iters=0 configs=8 fp=ebdd4ac504363e04240e5149a50574d8
piper mmt-two-branch gpus=16 b=256 makespan=7.758393189e-1 stages=2 depth=2 micro=32 evals=24200 states=101 hits=0 iters=0 configs=8 fp=3ec246e351ee70ac5b98ed3a31a6aadc
piper dlrm gpus=8 b=512 ✗ evals=0
";
const EXPECTED_SCALE: &str = "\
mmt gpus=64 b=1024 makespan=2.392505301e0 stages=10 depth=4 micro=128 evals=9055582 states=6301 hits=5414565 iters=8 configs=42 fp=bb83a8300123d6530fedd640545cc36d
dlrm gpus=64 b=4096 makespan=1.120619616e-1 stages=16 depth=3 micro=128 evals=23886607 states=17885 hits=18905923 iters=10 configs=40 fp=76a20ec78b24dee0c0a94ae05f270d88
candle-uno gpus=64 b=65536 makespan=4.869815797e-1 stages=1 depth=1 micro=1024 evals=5393953 states=8425 hits=4430210 iters=9 configs=44 fp=ee16aeec97cfdaff787faf8070f0201d
mmt gpus=128 b=2048 beam=8 makespan=1.014624636e0 stages=1 depth=1 micro=16 evals=6957230 states=3529 hits=5727532 iters=8 configs=29 fp=e7b3593673c7f10d67c531c9f5f71b32
dlrm gpus=128 b=8192 beam=8 makespan=1.208564715e-1 stages=16 depth=3 micro=256 evals=3607269 states=9690 hits=4230093 iters=11 configs=54 fp=05736281ec48424689b77b6837d4bbba
candle-uno gpus=128 b=131072 beam=8 makespan=4.906111067e-1 stages=1 depth=1 micro=1024 evals=482886 states=301 hits=419746 iters=9 configs=51 fp=6b4c902fb0fc28df391658418c557bda
candle-uno-full gpus=128 b=131072 beam=8 makespan=2.166610647e0 stages=22 depth=2 micro=1024 evals=10043126 states=25957 hits=16201060 iters=9 configs=58 fp=5ee86e7997f9bb4110e41e93cc863c8c
moe gpus=128 b=4096 beam=8 makespan=2.549905075e-2 stages=18 depth=4 micro=1024 evals=1889851 states=4085 hits=1624970 iters=11 configs=56 fp=b379539cbdd0b2d983d2b925c921d470
pipedream mmt gpus=16 b=256 makespan=4.355733015e0 stages=6 depth=6 micro=64 evals=7825299 states=0 hits=0 iters=0 configs=8 fp=18d76f4908619292ef3c64bfd0fe36ce
pipedream mmt gpus=32 b=512 makespan=5.495435337e0 stages=7 depth=7 micro=64 evals=30875867 states=0 hits=0 iters=0 configs=8 fp=d833b5ab64b757e89aaf7c712014e1c4
pipedream dlrm gpus=16 b=1024 makespan=1.531313112e-1 stages=9 depth=9 micro=512 evals=4024786 states=0 hits=0 iters=0 configs=8 fp=8d76cb35ecad95e8e34debdd1bd17813
pipedream dlrm gpus=32 b=2048 makespan=1.552763330e-1 stages=8 depth=8 micro=512 evals=16610009 states=0 hits=0 iters=0 configs=8 fp=3c0d7b48904bd37f36876c00ee07933c
pipedream candle-uno gpus=16 b=16384 makespan=8.025040726e-1 stages=4 depth=4 micro=4096 evals=2062773 states=0 hits=0 iters=0 configs=8 fp=c2e1e8123ce30301ec8e1b76d4297df9
pipedream candle-uno gpus=32 b=32768 makespan=1.332352782e0 stages=3 depth=3 micro=512 evals=8461788 states=0 hits=0 iters=0 configs=8 fp=f2a57a0708a8d97838c2edb7bd54be2b
pipedream candle-uno-full gpus=16 b=16384 makespan=3.092443416e0 stages=5 depth=5 micro=4096 evals=16489385 states=0 hits=0 iters=0 configs=8 fp=ed5f7b82ffcd24b532f99cae7f0b3a86
pipedream candle-uno-full gpus=32 b=32768 makespan=5.118139977e0 stages=4 depth=4 micro=512 evals=66035328 states=0 hits=0 iters=0 configs=8 fp=dd657ac5be50994a948407f72ce5a052
pipedream moe gpus=16 b=512 makespan=1.697257529e-2 stages=14 depth=14 micro=256 evals=1380672 states=0 hits=0 iters=0 configs=8 fp=d9725fbdf61766ee09aa84df172a1ac9
pipedream moe gpus=32 b=1024 makespan=3.329666742e-2 stages=15 depth=15 micro=512 evals=5692032 states=0 hits=0 iters=0 configs=8 fp=2d17c9bb24e30c4968ffe22fd9922ae0
piper moe gpus=4 b=128 makespan=8.608230415e-3 stages=4 depth=4 micro=128 evals=13489424 states=6563 hits=0 iters=0 configs=8 fp=5858526069c24c14ecd63294b9d2d218
piper moe gpus=8 b=256 makespan=1.577098899e-2 stages=8 depth=8 micro=256 evals=13489424 states=6563 hits=0 iters=0 configs=8 fp=5145787f99800a7fd4f6ab0c81b57b24
piper moe gpus=16 b=512 makespan=1.625264382e-2 stages=8 depth=8 micro=256 evals=13489424 states=6563 hits=0 iters=0 configs=8 fp=82cc7955b4a19e2bec26a44b721df673
";

#[test]
fn planner_outputs_match_golden_table() {
    let cells: Vec<_> = CELLS
        .iter()
        .map(|&(name, devices, mini_batch)| (name, devices, mini_batch, None))
        .collect();
    assert_table(&rows(&cells, BASELINE_CELLS), EXPECTED);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with `cargo test --release`"
)]
fn planner_outputs_match_golden_table_at_scale() {
    assert_table(&rows(SCALE_CELLS, BASELINE_SCALE_CELLS), EXPECTED_SCALE);
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
