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
//! strategies on the same distributed runtime.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod pipedream;
mod piper;

pub use ablation::parallel_ablation;
pub use pipedream::PipeDreamPlanner;
pub use piper::PiperPlanner;

/// One Pareto entry of a baseline's suffix DP: a partition of the work
/// left after a cut, with its bottleneck TPS and stage count, plus
/// back-pointers for reconstruction.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tps: f64,
    depth: u32,
    /// Where the suffix's first stage ends: a chain position (PipeDream)
    /// or the index of the superset downset (Piper).
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

/// The front's lowest-TPS entry, the first among ties.
fn best_entry(front: &[Entry]) -> Option<Entry> {
    front.iter().copied().min_by(|a, b| a.tps.total_cmp(&b.tps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_partition::{PlanError, Planner};

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
}
