//! Planner performance profile: search wall time and DP-search counters
//! for every zoo model at 8/16/32/64/128 GPUs, emitted as
//! `BENCH_planner.json`.
//!
//! This is the perf-trajectory artifact for the ROADMAP's "partition hot
//! path" item: run it before and after planner changes and diff the wall
//! times (the counters are deterministic and double as a drift check).
//! When a committed `BENCH_planner.json` exists, each cell also carries
//! that baseline's wall and the resulting speedup, so the before/after
//! story is readable from the artifact alone.
//!
//! Beam policy: cells below 128 GPUs run the exhaustive search (beam
//! unbounded — bit-compatible with every earlier profile); 128-GPU cells
//! run with the default scale beam ([`DEFAULT_SCALE_BEAM`]) so the sweep
//! meets the ROADMAP's "under 1s/cell at 128 GPUs" target.
//!
//! Flags:
//!
//! * `--smoke` — small fixed-budget subset with pinned plan fingerprints;
//!   exits non-zero when any fingerprint drifts (CI uses this);
//! * `--beam W` — beam width for every cell (`0` = unbounded), overriding
//!   the per-device-count policy;
//! * `--warm` — plan each cell twice (cold, then warm-started from the
//!   cold plan) and report the warm wall; fingerprints are unchanged by
//!   construction;
//! * `--models a,b` / `--gpus 8,16` — restrict the sweep;
//! * `--out PATH` — where to write the JSON (default `BENCH_planner.json`).
//!
//! The planner fans each large probe out onto idle cores, so walls depend
//! on the host: the JSON header records its `host_cores`.

use gp_bench::harness::{harness_options, paper_mini_batch};
use graphpipe::prelude::*;
use graphpipe::serve::fingerprint::plan_fingerprint;
use graphpipe::serve::json::Json;
use std::fmt::Write as _;
use std::time::Instant;

/// Beam width applied at 128+ GPUs unless `--beam` overrides it. Eight
/// device-split candidates around the work-proportional pivot keep every
/// zoo model under the 1s/cell target while the golden table pins the
/// makespan delta vs. exhaustive search.
const DEFAULT_SCALE_BEAM: u32 = 8;

/// Device count at which the default beam kicks in.
const SCALE_BEAM_THRESHOLD: usize = 128;

struct CellResult {
    model: &'static str,
    gpus: usize,
    mini_batch: u64,
    wall_secs: f64,
    stats: SearchStats,
    stages: usize,
    depth: usize,
    fingerprint: String,
    /// Beam width the cell ran with (`None` = unbounded).
    beam_width: Option<u32>,
    /// Whether the reported wall is a warm-started plan.
    warm_start: bool,
    /// Wall of the same `(model, gpus)` cell in the committed profile,
    /// when one existed before this run.
    baseline_wall_secs: Option<f64>,
}

/// The smoke subset: cheap cells with pinned plan fingerprints, plus one
/// 128-GPU cell exercising the beam + warm-start path at scale. The
/// fingerprint is the gp-serve artifact fingerprint of the produced plan
/// (stage graph + in-flight + schedule, wall-clock excluded), so any
/// behaviour change in the planner shows up as drift here before the
/// golden tables are even consulted. Entries: (model, gpus, beam width
/// with 0 = unbounded, warm-start, pinned fingerprint).
const SMOKE_CELLS: &[(&str, usize, u32, bool, &str)] = &[
    ("mmt", 8, 0, false, "dbe8f9292f23daa2c5112aba6cdc24ba"),
    ("dlrm", 8, 0, false, "f336e9529283a14591873c7cf2635b27"),
    (
        "candle-uno",
        8,
        0,
        false,
        "fba1571a980719c51f9d01f9b9395f08",
    ),
    (
        "candle-uno-full",
        8,
        0,
        false,
        "850498fc6a04cb51a9cd5c868102ac2c",
    ),
    ("moe", 8, 0, false, "78f0d19fb603f82016a6c888640ddc79"),
    (
        "moe",
        128,
        DEFAULT_SCALE_BEAM,
        true,
        "b379539cbdd0b2d983d2b925c921d470",
    ),
];

/// Eval budget for the smoke run: far above the smoke cells' real cost
/// yet a hard ceiling against search regressions.
const SMOKE_EVAL_BUDGET: u64 = 12_000_000;

fn model_by_name(name: &str) -> SpModel {
    match name {
        "mmt" => zoo::mmt(&zoo::MmtConfig::default()),
        "dlrm" => zoo::dlrm(&zoo::DlrmConfig::default()),
        "candle-uno" => zoo::candle_uno(&zoo::CandleUnoConfig::default()),
        "candle-uno-full" => zoo::candle_uno(&zoo::CandleUnoConfig::full()),
        "moe" => zoo::moe(&zoo::MoeConfig::default()),
        other => panic!("unknown model {other}"),
    }
}

fn plan_once(
    model: &SpModel,
    cluster: &Cluster,
    mini_batch: u64,
    opts: &PlanOptions,
    warm: Option<WarmStart>,
) -> Result<Plan, PlanError> {
    let mut p = GraphPipePlanner::with_options(opts.clone());
    if let Some(w) = warm {
        p = p.with_warm_start(w);
    }
    p.plan(model, cluster, mini_batch)
}

fn run_cell(name: &'static str, gpus: usize, opts: &PlanOptions, warm: bool) -> CellResult {
    let model = model_by_name(name);
    let cluster = Cluster::summit_like(gpus);
    let mini_batch = paper_mini_batch(name, gpus);
    let warm_hint = if warm {
        // Seed from a cold plan of the same cell: the warm walk must land
        // on the identical strategy, so only the wall below changes.
        let cold = plan_once(&model, &cluster, mini_batch, opts, None)
            .unwrap_or_else(|e| panic!("{name}@{gpus} (cold): {e}"));
        Some(WarmStart::from_plan(&cold, gpus as u32, gpus as u32))
    } else {
        None
    };
    let t0 = Instant::now();
    let plan = plan_once(&model, &cluster, mini_batch, opts, warm_hint)
        .unwrap_or_else(|e| panic!("{name}@{gpus}: {e}"));
    let wall_secs = t0.elapsed().as_secs_f64();
    CellResult {
        model: name,
        gpus,
        mini_batch,
        wall_secs,
        stats: plan.stats,
        stages: plan.stage_graph.len(),
        depth: plan.pipeline_depth(),
        fingerprint: plan_fingerprint(&plan).to_string(),
        beam_width: opts.beam_width,
        warm_start: warm,
        baseline_wall_secs: None,
    }
}

/// The host's core count, which bounds how far a search fans out.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall times of the committed profile, keyed `(model, gpus)`. Only
/// profiles from a host with as many cores count as baselines, plus
/// single-threaded ones from before the fan-out (`parallelism: 1`).
fn load_baseline(path: &str) -> Vec<(String, usize, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    let comparable = match doc.get("host_cores").and_then(Json::as_u64) {
        Some(cores) => cores == host_cores() as u64,
        None => doc.get("parallelism").and_then(Json::as_u64) == Some(1),
    };
    if !comparable {
        return Vec::new();
    }
    let Some(cells) = doc.get("cells").and_then(Json::as_arr) else {
        return Vec::new();
    };
    cells
        .iter()
        .filter_map(|c| {
            Some((
                c.get("model")?.as_str()?.to_string(),
                c.get("gpus")?.as_u64()? as usize,
                c.get("wall_secs")?.as_f64()?,
            ))
        })
        .collect()
}

fn emit_json(results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"planner_profile\",\n");
    let _ = writeln!(out, "  \"host_cores\": {},", host_cores());
    out.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let s = &r.stats;
        let _ = write!(
            out,
            "    {{\"model\": \"{}\", \"gpus\": {}, \"mini_batch\": {}, \
             \"wall_secs\": {:.6}, \"dp_evals\": {}, \"dp_states\": {}, \
             \"memo_hits\": {}, \"memo_misses\": {}, \"memo_hit_rate\": {:.4}, \
             \"work_bound_prunes\": {}, \"memory_prunes\": {}, \
             \"beam_width\": {}, \"beam_prunes\": {}, \"eval_batches\": {}, \
             \"warm_start\": {}, \
             \"binary_iters\": {}, \"configs_tried\": {}, \
             \"stages\": {}, \"depth\": {}, \"fingerprint\": \"{}\"",
            r.model,
            r.gpus,
            r.mini_batch,
            r.wall_secs,
            s.dp_evals,
            s.dp_states,
            s.memo_hits,
            s.memo_misses,
            s.memo_hit_rate(),
            s.work_bound_prunes,
            s.memory_prunes,
            r.beam_width.unwrap_or(0),
            s.beam_prunes,
            s.eval_batches,
            r.warm_start,
            s.binary_iters,
            s.configs_tried,
            r.stages,
            r.depth,
            r.fingerprint,
        );
        if let Some(base) = r.baseline_wall_secs {
            let _ = write!(
                out,
                ", \"baseline_wall_secs\": {:.6}, \"speedup\": {:.2}",
                base,
                base / r.wall_secs.max(1e-9),
            );
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut beam_override: Option<u32> = None;
    let mut warm = false;
    let mut models: Vec<String> = vec![
        "mmt".into(),
        "dlrm".into(),
        "candle-uno".into(),
        "candle-uno-full".into(),
        "moe".into(),
    ];
    let mut gpus: Vec<usize> = vec![8, 16, 32, 64, 128];
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--beam" => {
                beam_override = Some(it.next().and_then(|v| v.parse().ok()).expect("--beam W"));
            }
            "--warm" => warm = true,
            "--models" => {
                models = it
                    .next()
                    .expect("--models a,b")
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--gpus" => {
                gpus = it
                    .next()
                    .expect("--gpus 8,16")
                    .split(',')
                    .map(|v| v.parse().expect("gpu count"))
                    .collect();
            }
            "--out" => out_path = Some(it.next().expect("--out PATH").clone()),
            other => panic!("unknown flag {other}"),
        }
    }
    // The tracked perf-trajectory artifact for full sweeps; the smoke
    // variant stays out of the checkout (CI runs it on every push).
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "target/planner_smoke.json".to_string()
        } else {
            "BENCH_planner.json".to_string()
        }
    });

    let static_names: &[&'static str] = &["mmt", "dlrm", "candle-uno", "candle-uno-full", "moe"];
    let as_static = |m: &str| -> &'static str {
        static_names
            .iter()
            .copied()
            .find(|s| *s == m)
            .unwrap_or_else(|| panic!("unknown model {m}"))
    };
    // Per-cell options: `--beam 0` forces unbounded, `--beam W` forces a
    // beam, no flag applies the scale policy.
    let cell_options = |base: &PlanOptions, g: usize| -> PlanOptions {
        let beam = match beam_override {
            Some(0) => None,
            Some(w) => Some(w),
            None => (g >= SCALE_BEAM_THRESHOLD).then_some(DEFAULT_SCALE_BEAM),
        };
        let mut o = base.clone();
        o.beam_width = beam;
        o
    };

    if smoke {
        let base = PlanOptions {
            eval_budget: SMOKE_EVAL_BUDGET,
            ..harness_options()
        };
        let mut drifted = false;
        let mut results = Vec::new();
        for &(name, g, beam, warm_cell, expected) in SMOKE_CELLS {
            let mut opts = base.clone();
            opts.beam_width = (beam != 0).then_some(beam);
            let r = run_cell(as_static(name), g, &opts, warm_cell);
            let ok = r.fingerprint == expected;
            println!(
                "{:<16} gpus={:<3} beam={:<2} warm={:<5} wall={:.3}s evals={} hit-rate={:.1}% fp={} {}",
                r.model,
                r.gpus,
                beam,
                warm_cell,
                r.wall_secs,
                r.stats.dp_evals,
                r.stats.memo_hit_rate() * 100.0,
                r.fingerprint,
                if ok { "ok" } else { "DRIFT" },
            );
            if !ok {
                eprintln!("  expected {expected}");
                drifted = true;
            }
            results.push(r);
        }
        std::fs::write(&out_path, emit_json(&results)).expect("write json");
        if drifted {
            eprintln!("plan fingerprint drift detected (see above)");
            std::process::exit(1);
        }
        println!("smoke ok: {} cells, fingerprints stable", results.len());
        return;
    }

    // Committed walls, read before this run overwrites the artifact.
    let baseline = load_baseline(&out_path);
    let opts = harness_options();
    let mut results = Vec::new();
    for m in &models {
        let name = as_static(m);
        for &g in &gpus {
            let cell_opts = cell_options(&opts, g);
            let mut r = run_cell(name, g, &cell_opts, warm);
            r.baseline_wall_secs = baseline
                .iter()
                .find(|(bm, bg, _)| bm == name && *bg == g)
                .map(|&(_, _, w)| w);
            let speedup = r
                .baseline_wall_secs
                .map(|b| format!(" speedup={:.2}x", b / r.wall_secs.max(1e-9)))
                .unwrap_or_default();
            println!(
                "{:<16} gpus={:<3} wall={:>8.3}s evals={:>10} states={:>8} hit-rate={:.1}% stages={} depth={}{}",
                r.model,
                r.gpus,
                r.wall_secs,
                r.stats.dp_evals,
                r.stats.dp_states,
                r.stats.memo_hit_rate() * 100.0,
                r.stages,
                r.depth,
                speedup,
            );
            results.push(r);
        }
    }
    std::fs::write(&out_path, emit_json(&results)).expect("write json");
    println!("wrote {out_path}");
}
