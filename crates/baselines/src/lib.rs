//! # gp-baselines — sequential pipeline-parallel baselines
//!
//! The planners GraphPipe is evaluated against in §7:
//!
//! * [`PipeDreamPlanner`] — operator-granularity DP over the linearized
//!   model (covers the partitioning/scheduling space of DAPPLE, PipeDream
//!   and the SPP configurations of Alpa, per §7.1);
//! * [`PiperPlanner`] — downset-lattice DP allowing cross-branch stages,
//!   whose exponential blow-up on many-branch models reproduces the "✗"
//!   entries of Table 1;
//! * [`parallel_ablation`] — the "Parallel" strategy of Figure 9 (GPP
//!   partition, SPP micro-batch size).
//!
//! All planners emit the same [`gp_partition::Plan`] type and run on the
//! same simulator/runtime, exactly as the paper executes every planner's
//! strategies on the same distributed runtime. PipeDream and Piper differ
//! only in their cut space; one driver (`plan_sequential`) sweeps the
//! micro-batch sizes, picks, and places the stages for both.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod pipedream;
mod piper;

pub use ablation::parallel_ablation;
pub use pipedream::PipeDreamPlanner;
pub use piper::PiperPlanner;

use gp_cluster::{Cluster, DeviceRange};
use gp_cost::{CostModel, OpTable};
use gp_ir::{OpId, SpModel};
use gp_obs::ClockHandle;
use gp_partition::{Plan, PlanError, PlanOptions, SearchStats};
use gp_sched::{Stage, StageGraph, StageId};

/// One Pareto entry of a baseline's suffix DP: a partition of the work
/// left after a cut, with its bottleneck TPS and stage count, plus
/// back-pointers for reconstruction.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tps: f64,
    depth: u32,
    /// The cut where the suffix's first stage ends: a chain position
    /// (PipeDream) or the index of the superset downset (Piper).
    next: u32,
    /// Devices of the suffix's first stage.
    d1: u32,
    /// Index of the chosen entry in the front that follows the first
    /// stage.
    child: u32,
}

impl Entry {
    /// The empty partition of the empty suffix.
    const SINK: Entry = Entry {
        tps: 0.0,
        depth: 0,
        next: u32::MAX,
        d1: 0,
        child: 0,
    };
}

/// Keeps `front` minimal under (tps, depth) dominance.
fn insert_pareto(front: &mut Vec<Entry>, cand: Entry) {
    if front
        .iter()
        .any(|e| e.tps <= cand.tps && e.depth <= cand.depth)
    {
        return;
    }
    front.retain(|e| !(cand.tps <= e.tps && cand.depth <= e.depth));
    front.push(cand);
}

/// A suffix DP's Pareto fronts: `fronts[cut][d]` partitions the work after
/// `cut` over `d` devices. Cut 0 is the source (nothing placed), and the
/// sink's zero-device front holds [`Entry::SINK`].
type Fronts = Vec<Vec<Vec<Entry>>>;

/// DP evaluations charged against [`PlanOptions::eval_budget`].
struct Evals {
    count: u64,
    budget: u64,
}

impl Evals {
    /// Charges one evaluation; the first one past the budget explodes the
    /// search, so an explosion always reports `budget + 1`.
    fn charge(&mut self) -> Result<(), PlanError> {
        self.count += 1;
        if self.count > self.budget {
            return Err(PlanError::SearchExplosion { evals: self.count });
        }
        Ok(())
    }
}

/// One micro-batch size of the sweep, with what a DP prices it by.
struct Size<'a> {
    cost: &'a CostModel,
    table: &'a OpTable,
    /// The size's column in `table`.
    col: usize,
    b: u64,
    devices: u32,
    mini_batch: u64,
}

/// A baseline's cut space, built once per plan: the DP runs between its
/// cuts, and a stage is the ops between two of them.
trait CutSpace {
    /// The suffix DP's fronts at one micro-batch size.
    fn fronts(&self, size: &Size<'_>, evals: &mut Evals) -> Result<Fronts, PlanError>;

    /// The ops of the stage from cut `from` to cut `to`.
    fn stage_ops(&self, from: u32, to: u32) -> Vec<OpId>;

    /// What `SearchStats::dp_states` reports.
    fn dp_states(&self) -> u64 {
        0
    }
}

/// The one driver under both baselines' `Planner::plan`: checks the
/// mini-batch, builds the cut space once, sweeps the micro-batch sizes,
/// keeps the lowest-TPS source entry (the first in its front, then the
/// earliest size, wins a tie), walks its back-pointers and places the
/// stages in order on consecutive devices.
fn plan_sequential<S: CutSpace>(
    options: &PlanOptions,
    model: &SpModel,
    cluster: &Cluster,
    mini_batch: u64,
    space: impl FnOnce() -> Result<S, PlanError>,
) -> Result<Plan, PlanError> {
    let clock = ClockHandle::default();
    let start = clock.now_nanos();
    let sizes = options.micro_batch_sizes(mini_batch)?;
    let graph = model.graph();
    let cost = CostModel::new(cluster);
    let table = OpTable::new(&cost, graph, &sizes);
    let space = space()?;
    let devices = cluster.device_count() as u32;
    let mut stats = SearchStats {
        dp_states: space.dp_states(),
        ..SearchStats::default()
    };
    let mut evals = Evals {
        count: 0,
        budget: options.eval_budget,
    };
    let mut best: Option<(f64, Vec<Stage>)> = None;
    for (col, &b) in sizes.iter().enumerate() {
        stats.configs_tried += 1;
        let size = Size {
            cost: &cost,
            table: &table,
            col,
            b,
            devices,
            mini_batch,
        };
        let fronts = space.fronts(&size, &mut evals)?;
        let source = fronts[0][devices as usize].iter();
        if let Some(&e) = source.min_by(|x, y| x.tps.total_cmp(&y.tps)) {
            if best.as_ref().is_none_or(|(tps, _)| e.tps < *tps) {
                best = Some((e.tps, walk(&space, &fronts, e, &size)));
            }
        }
    }
    stats.dp_evals = evals.count;
    let (_, stages) = best.ok_or_else(|| {
        PlanError::Infeasible("no sequential partition fits the device memory budget".to_string())
    })?;
    let stage_graph = StageGraph::new_sequential(graph, cluster, stages, mini_batch)
        .map_err(|e| PlanError::Internal(e.to_string()))?;
    stats.wall = clock.since(start);
    Ok(Plan::from_stage_graph(stage_graph, model, &cost, stats))
}

/// Follows a source entry's back-pointers to the sink, placing each stage
/// on the next devices in order.
fn walk(space: &impl CutSpace, fronts: &Fronts, mut e: Entry, size: &Size<'_>) -> Vec<Stage> {
    let (mut stages, mut at, mut d) = (Vec::new(), 0, size.devices);
    while e.next != Entry::SINK.next {
        stages.push(Stage {
            id: StageId(stages.len() as u32),
            ops: space.stage_ops(at, e.next),
            devices: DeviceRange::new(size.devices - d, e.d1),
            micro_batch: size.b,
            kfkb: 1,
        });
        (at, d) = (e.next, d - e.d1);
        e = fronts[at as usize][d as usize][e.child as usize];
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_partition::Planner;

    #[test]
    fn hostile_mini_batches_are_infeasible() {
        // Past u32::MAX, PipeDream's and Piper's stage pricing overflowed
        // op_time's moved bytes (a debug panic) and the stage memory (a
        // release build returned a one-stage plan with u64::MAX peak
        // memory, which gp-verify rejected).
        let model = gp_ir::zoo::mlp_chain(2, 512);
        let cluster = Cluster::summit_like(4);
        let planners: [&dyn Planner; 2] = [&PipeDreamPlanner::new(), &PiperPlanner::new()];
        for planner in planners {
            for mini_batch in [1u64 << 32, 1 << 62, 1 << 63] {
                let label = format!("{} mini_batch {mini_batch}", planner.name());
                match planner.plan(&model, &cluster, mini_batch) {
                    Err(PlanError::Infeasible(msg)) if msg.starts_with("mini_batch") => {}
                    other => panic!("{label}: expected a mini_batch error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn explosions_stop_at_the_first_eval_past_the_budget() {
        // Every evaluation is charged against the budget, so a search
        // stops at the first one past it; a check after each size's DP
        // would let PipeDream run that whole DP first.
        let model = gp_ir::zoo::mmt(&gp_ir::zoo::MmtConfig::two_branch());
        let cluster = Cluster::summit_like(4);
        let options = PlanOptions {
            eval_budget: 1_000,
            ..PlanOptions::default()
        };
        let planners: [&dyn Planner; 2] = [
            &PipeDreamPlanner::with_options(options.clone()),
            &PiperPlanner::with_options(options),
        ];
        for planner in planners {
            match planner.plan(&model, &cluster, 64) {
                Err(PlanError::SearchExplosion { evals: 1_001 }) => {}
                other => panic!("{}: expected 1001 evals, got {other:?}", planner.name()),
            }
        }
    }
}
