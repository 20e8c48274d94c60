//! Beam-pruning coverage for the GraphPipe planner (the "planner at 128+
//! GPUs" perf work; DESIGN.md §"Planner search: pruning and
//! vectorization").
//!
//! Two contracts are pinned here:
//!
//! * **a saturating beam is a no-op** — `beam_width` wide enough to admit
//!   every device window must replay the exhaustive search byte-for-byte,
//!   search counters included (the truncation keeps survivors in
//!   enumeration order, so a window that fits inside the beam is
//!   untouched);
//! * **bounded beams degrade gracefully and deterministically** — the
//!   makespan delta vs. exhaustive at widths {4, 8, 16} is pinned per zoo
//!   model, so a change to the pruning order shows up as a table diff
//!   rather than a silent quality regression.

use graphpipe::prelude::*;
use graphpipe::serve::artifact::encode_plan;
use std::fmt::Write as _;

/// A zoo model with its per-device-count mini-batches (the golden-table
/// operating points, restricted to the scales this file exercises).
type Cell = (&'static str, SpModel, Vec<(usize, u64)>);

fn zoo_cells() -> Vec<Cell> {
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

fn base_options() -> PlanOptions {
    PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    }
}

fn mini_batch_at(points: &[(usize, u64)], devices: usize) -> u64 {
    points
        .iter()
        .find(|&&(d, _)| d == devices)
        .map(|&(_, b)| b)
        .unwrap_or_else(|| panic!("no operating point at {devices} devices"))
}

fn strip(mut p: Plan) -> Plan {
    p.stats.zero_walls();
    p
}

/// A beam wide enough to admit every candidate window must be
/// byte-identical to the unbounded default — same plan, same artifact
/// bytes, same search counters, zero beam prunes. This is the golden
/// replay that makes `beam_width: None` and `beam_width: Some(huge)`
/// interchangeable, so enabling the beam plumbing can never perturb a
/// fingerprint on its own.
#[test]
fn saturating_beam_replays_the_exhaustive_plans() {
    for (name, model, points) in zoo_cells() {
        let devices = 8;
        let mini_batch = mini_batch_at(&points, devices);
        let cluster = Cluster::summit_like(devices);
        let exhaustive = GraphPipePlanner::with_options(base_options())
            .plan(&model, &cluster, mini_batch)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let saturated = GraphPipePlanner::with_options(base_options().with_beam_width(u32::MAX))
            .plan(&model, &cluster, mini_batch)
            .unwrap_or_else(|e| panic!("{name} (saturating beam): {e}"));
        assert_eq!(saturated.stats.beam_prunes, 0, "{name}: beam truncated");
        let (exhaustive, saturated) = (strip(exhaustive), strip(saturated));
        assert_eq!(exhaustive, saturated, "{name}: plans diverged");
        assert_eq!(
            encode_plan(&exhaustive, None),
            encode_plan(&saturated, None),
            "{name}: artifact bytes diverged"
        );
    }
}

/// Bounded beams trade plan quality for search effort; this table pins
/// the trade at 16 GPUs so it only moves when someone means it to. The
/// delta column is the simulated-makespan ratio vs. the exhaustive search
/// (1.0 = no quality loss); evals counts the surviving search effort.
#[test]
fn bounded_beam_makespan_deltas_match_golden_table() {
    let mut out = String::new();
    for (name, model, points) in zoo_cells() {
        let devices = 16;
        let mini_batch = mini_batch_at(&points, devices);
        let cluster = Cluster::summit_like(devices);
        let simulate = |plan: &Plan| {
            graphpipe::simulate_plan(&model, &cluster, plan)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .iteration_time
        };
        let exhaustive = GraphPipePlanner::with_options(base_options())
            .plan(&model, &cluster, mini_batch)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let base_makespan = simulate(&exhaustive);
        for beam in [4u32, 8, 16] {
            let pruned = GraphPipePlanner::with_options(base_options().with_beam_width(beam))
                .plan(&model, &cluster, mini_batch)
                .unwrap_or_else(|e| panic!("{name} beam={beam}: {e}"));
            let _ = writeln!(
                out,
                "{name} beam={beam} delta={:.6} evals={} prunes={}",
                simulate(&pruned) / base_makespan,
                pruned.stats.dp_evals,
                pruned.stats.beam_prunes,
            );
        }
    }
    assert_eq!(
        out.trim(),
        EXPECTED_BEAM_TABLE.trim(),
        "\n--- actual table (paste over EXPECTED_BEAM_TABLE if intended) ---\n{out}"
    );
}

/// Note `delta` may dip below 1.0 (moe at beam=4): the DP minimizes
/// *estimated* bottleneck TPS, while this column is the *simulated*
/// makespan, so a pruned search can land on a plan that happens to
/// simulate faster than the exhaustive optimum.
const EXPECTED_BEAM_TABLE: &str = "\
mmt beam=4 delta=1.000000 evals=37611 prunes=1
mmt beam=8 delta=1.000000 evals=41641 prunes=0
mmt beam=16 delta=1.000000 evals=41641 prunes=0
dlrm beam=4 delta=1.000000 evals=146656 prunes=2100
dlrm beam=8 delta=1.000000 evals=182578 prunes=0
dlrm beam=16 delta=1.000000 evals=182578 prunes=0
candle-uno beam=4 delta=1.000000 evals=47237 prunes=163
candle-uno beam=8 delta=1.000000 evals=55962 prunes=0
candle-uno beam=16 delta=1.000000 evals=55962 prunes=0
candle-uno-full beam=4 delta=1.000000 evals=141794 prunes=4052
candle-uno-full beam=8 delta=1.000000 evals=165246 prunes=0
candle-uno-full beam=16 delta=1.000000 evals=165246 prunes=0
moe beam=4 delta=0.909262 evals=162049 prunes=9702
moe beam=8 delta=1.000000 evals=282712 prunes=16
moe beam=16 delta=1.000000 evals=283106 prunes=0
";
