//! The PipeDream baseline planner (Narayanan et al., SOSP'19 / ICML'21).
//!
//! PipeDream linearizes the DNN into a single operator chain and partitions
//! it into *sequential* stages with optional data-parallel replication per
//! stage, running the synchronous 1F1B schedule (the configuration the
//! GraphPipe paper compares against: "PipeDream with the operator
//! granularity ... covers the pipeline partitioning and scheduling
//! strategies of all baseline SPP approaches", §7.1).
//!
//! The planner is a dynamic program over chain suffixes that minimizes the
//! bottleneck stage's Time-Per-Sample subject to the 1F1B memory constraint
//! (a stage at distance `p` from the sink keeps `p + 1` micro-batches in
//! flight). Because the model is linearized first, parallel branches are
//! pipelined one after another — the missed opportunity GPP exploits.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::{insert_pareto, plan_sequential, CutSpace, Entry, Evals, Fronts, Size};
use gp_cluster::Cluster;
use gp_cost::CostModel;
use gp_ir::{OpId, SpModel};
use gp_partition::{Plan, PlanError, PlanOptions, Planner};

/// Sequential-pipeline planner at operator granularity.
///
/// # Examples
///
/// ```
/// use gp_cluster::Cluster;
/// use gp_ir::zoo::{self, MmtConfig};
/// use gp_baselines::PipeDreamPlanner;
/// use gp_partition::Planner;
///
/// let model = zoo::mmt(&MmtConfig::two_branch());
/// let plan = PipeDreamPlanner::new().plan(&model, &Cluster::summit_like(4), 64)?;
/// // SPP: pipeline depth equals the stage count.
/// assert_eq!(plan.pipeline_depth(), plan.stage_graph.len());
/// # Ok::<(), gp_partition::PlanError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipeDreamPlanner {
    options: PlanOptions,
}

/// PipeDream's cut space: the positions of the linearized chain, with the
/// prefix sums that do not depend on the micro-batch size.
struct Chain {
    order: Vec<OpId>,
    params: Vec<u64>,
    act: Vec<u64>,
    /// `cut[c]`: activation bytes per sample crossing position `c` (the live
    /// set a sequential pipeline must hand from stage to stage).
    cut: Vec<u64>,
}

impl Chain {
    fn build(model: &SpModel) -> Chain {
        let graph = model.graph();
        let order = model.linearize();
        let n = order.len();
        let mut pos = vec![0usize; graph.len()];
        let (mut params, mut act) = (vec![0u64; n + 1], vec![0u64; n + 1]);
        for (i, &op) in order.iter().enumerate() {
            pos[op.index()] = i;
            params[i + 1] = params[i] + graph.param_bytes(op);
            act[i + 1] = act[i] + graph.stashed_bytes(op);
        }
        // diff[c] accumulates edge contributions: an edge (u, v) is live
        // across every cut strictly between u and v.
        let mut diff = vec![0i64; n + 2];
        for (u, v) in graph.edges() {
            let (pu, pv) = (pos[u.index()], pos[v.index()]);
            debug_assert!(pu < pv, "linearization must be topological");
            let bytes = graph.output_bytes(u) as i64;
            diff[pu + 1] += bytes;
            diff[pv + 1] -= bytes;
        }
        let mut cut = vec![0u64; n + 1];
        let mut acc = 0i64;
        for c in 0..=n {
            acc += diff[c];
            cut[c] = acc as u64;
        }
        Chain {
            order,
            params,
            act,
            cut,
        }
    }
}

impl CutSpace for Chain {
    /// `f[i][d]`: Pareto entries for partitioning ops `[i..n)` over `d`
    /// devices; an entry's `next` is the end `j` of its first stage
    /// `[i..j)`, and `child` indexes `f[j][d - d1]`.
    fn fronts(&self, size: &Size<'_>, evals: &mut Evals) -> Result<Fronts, PlanError> {
        let n = self.order.len();
        let (mut fwd, mut bwd) = (vec![0.0; n + 1], vec![0.0; n + 1]);
        for (i, &op) in self.order.iter().enumerate() {
            fwd[i + 1] = fwd[i] + size.table.fwd(op, size.col);
            bwd[i + 1] = bwd[i] + size.table.bwd(op, size.col);
        }
        let (b, mem_budget) = (size.b, size.cost.memory_budget());
        let mut f: Fronts = vec![vec![Vec::new(); size.devices as usize + 1]; n + 1];
        f[n][0].push(Entry::SINK);
        for i in (0..n).rev() {
            for d in 1..=size.devices {
                let mut front: Vec<Entry> = Vec::new();
                for j in i + 1..=n {
                    let seg_time = (fwd[j] - fwd[i]) + (bwd[j] - bwd[i]);
                    let seg_params = self.params[j] - self.params[i];
                    let seg_act = self.act[j] - self.act[i];
                    let comm_bytes = self.cut[i] + self.cut[j];
                    for d1 in 1..=d {
                        let d_rest = d - d1;
                        if f[j][d_rest as usize].is_empty() {
                            continue;
                        }
                        evals.charge()?;
                        let tps_stage = size.cost.candidate_tps(
                            seg_time,
                            comm_bytes,
                            seg_params,
                            b,
                            d1,
                            size.mini_batch,
                        );
                        for (ci, child) in f[j][d_rest as usize].iter().enumerate() {
                            // 1F1B: this stage sits child.depth stages from
                            // the sink and keeps depth+1 micro-batches.
                            let in_flight = (child.depth as u64 + 1) * b;
                            let mem = CostModel::stage_memory(
                                seg_params,
                                seg_act,
                                in_flight,
                                b,
                                d1 as usize,
                            );
                            if mem > mem_budget {
                                continue;
                            }
                            let cand = Entry {
                                tps: tps_stage.max(child.tps),
                                depth: child.depth + 1,
                                next: j as u32,
                                d1,
                                child: ci as u32,
                            };
                            insert_pareto(&mut front, cand);
                        }
                    }
                }
                f[i][d as usize] = front;
            }
        }
        Ok(f)
    }

    fn stage_ops(&self, from: u32, to: u32) -> Vec<OpId> {
        self.order[from as usize..to as usize].to_vec()
    }
}

impl PipeDreamPlanner {
    /// Planner with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with explicit options.
    pub fn with_options(options: PlanOptions) -> Self {
        PipeDreamPlanner { options }
    }
}

impl Planner for PipeDreamPlanner {
    fn name(&self) -> &str {
        "pipedream"
    }

    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError> {
        plan_sequential(&self.options, model, cluster, mini_batch, || {
            Ok(Chain::build(model))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig};
    use gp_sched::StageId;

    #[test]
    fn sequential_stages_use_all_devices() {
        let model = zoo::mlp_chain(8, 512);
        let cluster = Cluster::summit_like(4);
        let plan = PipeDreamPlanner::new().plan(&model, &cluster, 32).unwrap();
        let total: usize = plan.stage_graph.stages().map(|s| s.dp_degree()).sum();
        assert_eq!(total, 4);
        gp_verify::verify_plan(model.graph(), &cluster, &plan)
            .into_result()
            .unwrap();
    }

    #[test]
    fn pipeline_depth_equals_stage_count() {
        // The SPP hallmark: linearization makes the pipeline as deep as it
        // is long, even for branchy models.
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let plan = PipeDreamPlanner::new()
            .plan(&model, &Cluster::summit_like(8), 1024)
            .unwrap();
        assert_eq!(plan.pipeline_depth(), plan.stage_graph.len());
    }

    #[test]
    fn stages_are_contiguous_in_linearized_order() {
        let model = zoo::mmt(&MmtConfig::two_branch());
        let plan = PipeDreamPlanner::new()
            .plan(&model, &Cluster::summit_like(4), 64)
            .unwrap();
        let order = model.linearize();
        let mut cursor = 0;
        for s in plan.stage_graph.stages() {
            assert_eq!(s.ops[..], order[cursor..cursor + s.ops.len()]);
            cursor += s.ops.len();
        }
        assert_eq!(cursor, order.len());
    }

    #[test]
    fn in_flight_grows_towards_the_source() {
        let model = zoo::mlp_chain(8, 512);
        let plan = PipeDreamPlanner::new()
            .plan(&model, &Cluster::summit_like(4), 32)
            .unwrap();
        let n = plan.stage_graph.len();
        if n >= 2 {
            let first = plan.in_flight.samples(StageId(0));
            let last = plan.in_flight.samples(StageId(n as u32 - 1));
            assert!(first > last);
        }
    }

    #[test]
    fn infeasible_memory_reported() {
        let model = zoo::mmt(&MmtConfig::default());
        let cluster = Cluster::summit_like(4).with_memory_capacity(1 << 20);
        let err = PipeDreamPlanner::new()
            .plan(&model, &cluster, 64)
            .unwrap_err();
        assert!(matches!(err, PlanError::Infeasible(_)));
    }

    #[test]
    fn pareto_insert_prunes_dominated() {
        let mk = |tps: f64, depth: u32| Entry {
            tps,
            depth,
            next: 0,
            d1: 0,
            child: 0,
        };
        let mut front = Vec::new();
        insert_pareto(&mut front, mk(1.0, 4));
        insert_pareto(&mut front, mk(2.0, 2)); // trades tps for depth: kept
        insert_pareto(&mut front, mk(3.0, 5)); // dominated: dropped
        insert_pareto(&mut front, mk(0.5, 1)); // dominates everything
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].depth, 1);
    }
}
