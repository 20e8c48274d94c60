//! Simulator performance profile: wall time, span counts, and report
//! fingerprints for scaled pipeline strategies, emitted as
//! `BENCH_sim.json`.
//!
//! This is the perf-trajectory artifact for the ROADMAP's "scale the
//! simulator" item: the paper's scalability claims (Figures 6–9) rest on
//! evaluating schedules far beyond the planner's 8–64 GPU operating
//! points, so this harness drives `gp-sim` directly — it builds scaled
//! strategies over the zoo by hand (contiguous chunks of the linearized
//! model, data-parallel replicas filling the device count) instead of
//! paying for a 512-GPU planner search, and sweeps
//! {64, 256, 512, 1024} devices x {1k, 10k} micro-batches.
//!
//! Flags:
//!
//! * `--smoke` — small fixed cells with pinned report fingerprints; exits
//!   non-zero when any fingerprint drifts (CI uses this);
//! * `--models a,b` / `--devices 64,256` / `--micro-batches 1000` —
//!   restrict the sweep;
//! * `--baseline PATH` — a previous `BENCH_sim.json`; matching cells gain
//!   `baseline_wall_secs` and `speedup` fields;
//! * `--out PATH` — where to write the JSON (default `BENCH_sim.json`).
//!
//! Memory caveat: `rss_hwm_kb_process` is the *process* high-water mark
//! (`VmHWM`), which only ever rises — once an early cell pushes it up,
//! later (smaller) cells repeat the same number; it must not be read as a
//! per-cell cost. `rss_hwm_delta_kb` is the amount *this* cell raised the
//! watermark (0 when a previous cell's peak still dominates), and
//! `report_bytes` is the deterministic share.

use graphpipe::prelude::*;
use graphpipe::sched::{assign_in_flight, schedule_tasks, Stage, StageGraph, StageId};
use graphpipe::sim::SimReport;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-stage micro-batch size of the scaled strategies. Small enough that
/// 10k micro-batches stay a plausible mini-batch, large enough to keep
/// per-task durations off the kernel-overhead floor.
const MICRO_BATCH: u64 = 4;

/// The smoke subset: cheap cells with pinned report fingerprints
/// ([`SimReport::fingerprint`] folds every scalar bit pattern and every
/// timeline span, so any engine behaviour change shows up as drift here
/// before the golden table is even consulted).
const SMOKE_CELLS: &[(&str, usize, u64, &str)] = &[
    ("mmt", 64, 256, "7e93113acf323336"),
    ("dlrm", 64, 256, "abd1cbb0bea72312"),
    ("candle-uno", 64, 256, "e19b0876c4d64435"),
    ("candle-uno-full", 64, 256, "cc54596f9374a5ac"),
    ("moe", 64, 256, "1b70bd53f50bff2a"),
];

struct CellResult {
    model: &'static str,
    devices: usize,
    micro_batches: u64,
    stages: usize,
    spans: usize,
    wall_secs: f64,
    makespan: f64,
    fingerprint: String,
    report_bytes: usize,
    rss_hwm_kb_process: u64,
    rss_hwm_delta_kb: u64,
    baseline_wall_secs: Option<f64>,
}

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
) -> (StageGraph, graphpipe::sched::PipelineSchedule) {
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
    let mini_batch = MICRO_BATCH * micro_batches;
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
    let sg = StageGraph::new(model.graph(), cluster, stages, mini_batch)
        .expect("scaled strategies are valid stage graphs");
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    (sg, schedule)
}

/// `VmHWM` from `/proc/self/status` in KiB — the process peak-RSS
/// watermark (0 where unavailable). Monotone across cells: it never
/// falls, so by itself it reads as the sweep's high-water trajectory,
/// not a per-cell cost — cells report it alongside the per-cell delta
/// (see the module docs).
fn rss_high_water_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// Bytes held by the report itself (timeline + per-device vectors) — the
/// deterministic share of the memory cost.
fn report_bytes(report: &SimReport) -> usize {
    report.timeline.capacity() * std::mem::size_of::<graphpipe::sim::TaskSpan>()
        + report.per_device_busy.capacity() * std::mem::size_of::<f64>()
        + report.peak_memory_bytes.capacity() * std::mem::size_of::<u64>()
}

fn run_cell(name: &'static str, devices: usize, micro_batches: u64) -> CellResult {
    let model = model_by_name(name);
    let cluster = Cluster::summit_like(devices);
    let (sg, schedule) = scaled_strategy(&model, &cluster, micro_batches);
    let hwm_before = rss_high_water_kb();
    let t0 = Instant::now();
    let report = graphpipe::sim::simulate(model.graph(), &cluster, &sg, &schedule)
        .unwrap_or_else(|e| panic!("{name}@{devices}x{micro_batches}: {e}"));
    let wall_secs = t0.elapsed().as_secs_f64();
    let hwm_after = rss_high_water_kb();
    CellResult {
        model: name,
        devices,
        micro_batches,
        stages: sg.len(),
        spans: report.timeline.len(),
        wall_secs,
        makespan: report.iteration_time,
        fingerprint: format!("{:016x}", report.fingerprint()),
        report_bytes: report_bytes(&report),
        rss_hwm_kb_process: hwm_after,
        rss_hwm_delta_kb: hwm_after.saturating_sub(hwm_before),
        baseline_wall_secs: None,
    }
}

/// Pulls `(model, devices, micro_batches) -> wall_secs` out of a previous
/// `BENCH_sim.json`. The emitter writes one cell per line, so a line-wise
/// field scan is enough — no JSON parser needed offline.
fn parse_baseline(text: &str) -> Vec<(String, usize, u64, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    text.lines()
        .filter(|l| l.contains("\"model\""))
        .filter_map(|l| {
            Some((
                field(l, "model")?,
                field(l, "devices")?.parse().ok()?,
                field(l, "micro_batches")?.parse().ok()?,
                field(l, "wall_secs")?.parse().ok()?,
            ))
        })
        .collect()
}

fn emit_json(results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"sim_profile\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"model\": \"{}\", \"devices\": {}, \"micro_batches\": {}, \
             \"stages\": {}, \"spans\": {}, \"wall_secs\": {:.6}, \
             \"makespan\": {:.9e}, \"fingerprint\": \"{}\", \
             \"report_bytes\": {}, \"rss_hwm_kb_process\": {}, \"rss_hwm_delta_kb\": {}",
            r.model,
            r.devices,
            r.micro_batches,
            r.stages,
            r.spans,
            r.wall_secs,
            r.makespan,
            r.fingerprint,
            r.report_bytes,
            r.rss_hwm_kb_process,
            r.rss_hwm_delta_kb,
        );
        if let Some(base) = r.baseline_wall_secs {
            let _ = write!(
                out,
                ", \"baseline_wall_secs\": {:.6}, \"speedup\": {:.2}",
                base,
                base / r.wall_secs.max(1e-12),
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
    let mut models: Vec<String> = vec![
        "mmt".into(),
        "dlrm".into(),
        "candle-uno".into(),
        "candle-uno-full".into(),
        "moe".into(),
    ];
    let mut devices: Vec<usize> = vec![64, 256, 512, 1024];
    let mut micro_batches: Vec<u64> = vec![1_000, 10_000];
    let mut baseline_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--models" => {
                models = it
                    .next()
                    .expect("--models a,b")
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--devices" => {
                devices = it
                    .next()
                    .expect("--devices 64,256")
                    .split(',')
                    .map(|v| v.parse().expect("device count"))
                    .collect();
            }
            "--micro-batches" => {
                micro_batches = it
                    .next()
                    .expect("--micro-batches 1000,10000")
                    .split(',')
                    .map(|v| v.parse().expect("micro-batch count"))
                    .collect();
            }
            "--baseline" => baseline_path = Some(it.next().expect("--baseline PATH").clone()),
            "--out" => out_path = Some(it.next().expect("--out PATH").clone()),
            other => panic!("unknown flag {other}"),
        }
    }
    // The tracked perf-trajectory artifact for full sweeps; the smoke
    // variant stays out of the checkout (CI runs it on every push).
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "target/sim_smoke.json".to_string()
        } else {
            "BENCH_sim.json".to_string()
        }
    });
    let baseline: Vec<(String, usize, u64, f64)> = baseline_path
        .map(|p| parse_baseline(&std::fs::read_to_string(&p).expect("read baseline")))
        .unwrap_or_default();

    let static_names: &[&'static str] = &["mmt", "dlrm", "candle-uno", "candle-uno-full", "moe"];
    let as_static = |m: &str| -> &'static str {
        static_names
            .iter()
            .copied()
            .find(|s| *s == m)
            .unwrap_or_else(|| panic!("unknown model {m}"))
    };

    if smoke {
        let mut drifted = false;
        let mut results = Vec::new();
        for &(name, d, m, expected) in SMOKE_CELLS {
            let r = run_cell(as_static(name), d, m);
            let ok = r.fingerprint == expected;
            println!(
                "{:<16} devices={:<4} mbs={:<5} wall={:.3}s spans={} fp={} {}",
                r.model,
                r.devices,
                r.micro_batches,
                r.wall_secs,
                r.spans,
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
            eprintln!("sim report fingerprint drift detected (see above)");
            std::process::exit(1);
        }
        println!("smoke ok: {} cells, fingerprints stable", results.len());
        return;
    }

    let mut results = Vec::new();
    for m in &models {
        let name = as_static(m);
        for &d in &devices {
            for &mb in &micro_batches {
                let mut r = run_cell(name, d, mb);
                r.baseline_wall_secs = baseline
                    .iter()
                    .find(|(bm, bd, bmb, _)| bm == name && *bd == d && *bmb == mb)
                    .map(|&(_, _, _, w)| w);
                println!(
                    "{:<16} devices={:<4} mbs={:<5} wall={:>8.3}s spans={:>8} makespan={:.6e} fp={}{}",
                    r.model,
                    r.devices,
                    r.micro_batches,
                    r.wall_secs,
                    r.spans,
                    r.makespan,
                    r.fingerprint,
                    match r.baseline_wall_secs {
                        Some(b) => format!(" speedup={:.2}x", b / r.wall_secs.max(1e-12)),
                        None => String::new(),
                    },
                );
                results.push(r);
            }
        }
    }
    std::fs::write(&out_path, emit_json(&results)).expect("write json");
    println!("wrote {out_path}");
}
