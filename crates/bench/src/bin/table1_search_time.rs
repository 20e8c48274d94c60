//! Table 1: planner search times (seconds) for Piper, PipeDream, and
//! GraphPipe on the two-branch MMT, DLRM, and CANDLE-Uno at 4-32 GPUs.
//!
//! Expected shape (paper): GraphPipe fastest everywhere; Piper slowest and
//! "✗" (search explosion) on the 8-branch DLRM/CANDLE-Uno models.
//!
//! Each cell is the median of [`RUNS`] plans, with their min–max beside
//! it: one plan's wall time swings with host noise (two single-shot runs
//! of one binary read PD/GP as 2.4–16.7x and 2.3–18.7x on a 2-core host),
//! so only the median is comparable across runs. The plans run
//! round-robin, one per planner per round, so host drift during a cell
//! hits the three columns evenly; each ratio is the median of the
//! per-round ratios.

use gp_bench::harness::{harness_options, paper_mini_batch, row};
use graphpipe::prelude::*;
use std::time::Instant;

/// Rounds of plans per cell.
const RUNS: usize = 3;

/// Times one plan: its search wall time in seconds and its counters, or
/// `None` when the planner fails (the paper's "✗").
fn time_plan(
    planner: &dyn Planner,
    model: &SpModel,
    cluster: &Cluster,
    b: u64,
) -> Option<(f64, SearchStats)> {
    let t0 = Instant::now();
    match planner.plan(model, cluster, b) {
        Ok(plan) => Some((t0.elapsed().as_secs_f64(), plan.stats)),
        Err(PlanError::SearchExplosion { .. }) => None,
        Err(other) => {
            eprintln!("warning: {} failed: {other}", planner.name());
            None
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
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
            let planners: [Box<dyn Planner>; 3] = [
                Box::new(GraphPipePlanner::with_options(opts.clone())),
                Box::new(PipeDreamPlanner::with_options(opts.clone())),
                // §7.2 analyses Piper at operator granularity (|D| >= k^n
                // over operators), which is what its search time is
                // charged for.
                Box::new(PiperPlanner::with_options(opts.clone()).with_unit_ops(1)),
            ];
            // Per planner, the wall time of each round in round order;
            // `None` after its ✗, which comes on its first plan if at all.
            let mut walls: [Option<Vec<f64>>; 3] =
                [Some(Vec::new()), Some(Vec::new()), Some(Vec::new())];
            let mut gp_stats = None;
            for _ in 0..RUNS {
                for (i, (planner, column)) in planners.iter().zip(&mut walls).enumerate() {
                    let Some(column_walls) = column.as_mut() else {
                        continue;
                    };
                    match time_plan(planner.as_ref(), model, &cluster, mini_batch) {
                        Some((wall, stats)) => {
                            column_walls.push(wall);
                            if i == 0 {
                                gp_stats = Some(stats);
                            }
                        }
                        None => *column = None,
                    }
                }
            }
            if let Some(s) = gp_stats {
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
            let [gp, pd, piper] = &walls;
            let fmt = |v: &Option<Vec<f64>>| {
                v.as_ref().map_or("✗".to_string(), |w| {
                    let min = w.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = w.iter().copied().fold(0.0, f64::max);
                    format!("{:.3} ({min:.3}–{max:.3})", median(w))
                })
            };
            let ratio = |num: &Option<Vec<f64>>| match (num, gp) {
                (Some(n), Some(d)) => {
                    let per_round: Vec<f64> = n.iter().zip(d).map(|(n, d)| n / d).collect();
                    format!("{:.1}x", median(&per_round))
                }
                _ => "-".to_string(),
            };
            println!(
                "{}",
                row(&[
                    name.to_string(),
                    devices.to_string(),
                    fmt(piper),
                    fmt(pd),
                    fmt(gp),
                    ratio(piper),
                    ratio(pd),
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
