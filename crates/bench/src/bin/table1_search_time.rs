//! Table 1: planner search times (seconds) for Piper, PipeDream, and
//! GraphPipe on the two-branch MMT, DLRM, and CANDLE-Uno at 4-32 GPUs.
//!
//! Expected shape (paper): GraphPipe fastest everywhere; Piper slowest and
//! "✗" (search explosion) on the 8-branch DLRM/CANDLE-Uno models.
//!
//! Each cell is the median of [`RUNS`] plans, with their min–max beside
//! it: one plan's wall time swings with host noise (two single-shot runs
//! of one binary read PD/GP as 2.4–16.7x and 2.3–18.7x on a 2-core host),
//! so only the median is comparable across runs. The ratios divide
//! medians.

use gp_bench::harness::{harness_options, paper_mini_batch, row};
use graphpipe::prelude::*;
use std::time::Instant;

/// Plans timed per (planner, cell).
const RUNS: usize = 3;

/// The sorted search wall times of [`RUNS`] plans, in seconds, and the
/// search counters (identical across the runs); `None` when the planner
/// fails (the paper's "✗"), which it does on the first run if at all.
fn time_plan(
    planner: &dyn Planner,
    model: &SpModel,
    cluster: &Cluster,
    b: u64,
) -> Option<(Vec<f64>, SearchStats)> {
    let mut walls = Vec::with_capacity(RUNS);
    let mut stats = SearchStats::default();
    for _ in 0..RUNS {
        let t0 = Instant::now();
        match planner.plan(model, cluster, b) {
            Ok(plan) => {
                walls.push(t0.elapsed().as_secs_f64());
                stats = plan.stats;
            }
            Err(PlanError::SearchExplosion { .. }) => return None,
            Err(other) => {
                eprintln!("warning: {} failed: {other}", planner.name());
                return None;
            }
        }
    }
    walls.sort_by(f64::total_cmp);
    Some((walls, stats))
}

fn main() {
    // §7.2: the search-time comparison uses the *two-branch* MMT.
    let models: Vec<(&str, SpModel)> = vec![
        ("mmt(2-branch)", zoo::mmt(&zoo::MmtConfig::two_branch())),
        ("dlrm", zoo::dlrm(&zoo::DlrmConfig::default())),
        (
            "candle-uno",
            zoo::candle_uno(&zoo::CandleUnoConfig::default()),
        ),
    ];
    println!("# Table 1: solution search times (seconds; median (min–max) of {RUNS} plans)\n");
    println!(
        "{}",
        row(&[
            "model".into(),
            "GPUs".into(),
            "Piper".into(),
            "PipeDream".into(),
            "GraphPipe".into(),
            "Piper/GP".into(),
            "PD/GP".into(),
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 7]));
    let mut counter_rows: Vec<String> = Vec::new();
    for (name, model) in &models {
        for devices in [4usize, 8, 16, 32] {
            let lookup = if *name == "mmt(2-branch)" {
                "mmt"
            } else {
                name
            };
            let mini_batch = paper_mini_batch(lookup, devices);
            let cluster = Cluster::summit_like(devices);
            let opts = harness_options();
            let gp = time_plan(
                &GraphPipePlanner::with_options(opts.clone()),
                model,
                &cluster,
                mini_batch,
            );
            if let Some((_, s)) = &gp {
                counter_rows.push(row(&[
                    name.to_string(),
                    devices.to_string(),
                    s.dp_evals.to_string(),
                    s.dp_states.to_string(),
                    s.memo_hits.to_string(),
                    format!("{:.1}%", s.memo_hit_rate() * 100.0),
                    s.work_bound_prunes.to_string(),
                    s.memory_prunes.to_string(),
                ]));
            }
            let pd = time_plan(
                &PipeDreamPlanner::with_options(opts.clone()),
                model,
                &cluster,
                mini_batch,
            );
            // §7.2 analyses Piper at operator granularity (|D| >= k^n over
            // operators), which is what its search time is charged for.
            let piper = time_plan(
                &PiperPlanner::with_options(opts.clone()).with_unit_ops(1),
                model,
                &cluster,
                mini_batch,
            );
            let median = |v: &Option<(Vec<f64>, SearchStats)>| v.as_ref().map(|(w, _)| w[RUNS / 2]);
            let fmt = |v: &Option<(Vec<f64>, SearchStats)>| {
                v.as_ref().map_or("✗".to_string(), |(w, _)| {
                    format!("{:.3} ({:.3}–{:.3})", w[RUNS / 2], w[0], w[RUNS - 1])
                })
            };
            let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
                (Some(n), Some(d)) if d > 0.0 => format!("{:.1}x", n / d),
                _ => "-".to_string(),
            };
            println!(
                "{}",
                row(&[
                    name.to_string(),
                    devices.to_string(),
                    fmt(&piper),
                    fmt(&pd),
                    fmt(&gp),
                    ratio(median(&piper), median(&gp)),
                    ratio(median(&pd), median(&gp)),
                ])
            );
        }
    }
    // The §5 search-cost accounting behind GraphPipe's column: how much of
    // the work the memo absorbed and the bounds pruned.
    println!("\n# GraphPipe search counters\n");
    println!(
        "{}",
        row(&[
            "model".into(),
            "GPUs".into(),
            "dp_evals".into(),
            "dp_states".into(),
            "memo_hits".into(),
            "hit-rate".into(),
            "work-bound prunes".into(),
            "memory prunes".into(),
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 8]));
    for r in counter_rows {
        println!("{r}");
    }
}
