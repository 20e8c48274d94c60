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

use crate::{best_entry, insert_pareto, Entry};
use gp_cluster::{Cluster, DeviceRange};
use gp_cost::{CostModel, OpTable};
use gp_ir::{Graph, OpId, SpModel};
use gp_obs::ClockHandle;
use gp_partition::{Plan, PlanError, PlanOptions, Planner, SearchStats};
use gp_sched::{Stage, StageGraph, StageId};

/// A reconstructed stage on the linearized chain: `(first op index,
/// one-past-last op index, device count)`.
type ChainCut = (u32, u32, u32);

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
    /// Wall-clock seam: feeds only `SearchStats.wall`, which fingerprints
    /// exclude.
    clock: ClockHandle,
}

/// Per-prefix aggregate costs of the linearized chain.
struct Prefix {
    fwd: Vec<f64>,
    bwd: Vec<f64>,
    params: Vec<u64>,
    act: Vec<u64>,
    /// `cut[c]`: activation bytes per sample crossing position `c` (the live
    /// set a sequential pipeline must hand from stage to stage).
    cut: Vec<u64>,
}

impl Prefix {
    /// The prefixes at the table's micro-batch size `col`.
    fn build(graph: &Graph, table: &OpTable, order: &[OpId], col: usize) -> Prefix {
        let n = order.len();
        let mut pos = vec![0usize; graph.len()];
        for (i, &op) in order.iter().enumerate() {
            pos[op.index()] = i;
        }
        let (mut fwd, mut bwd) = (vec![0.0; n + 1], vec![0.0; n + 1]);
        let (mut params, mut act) = (vec![0u64; n + 1], vec![0u64; n + 1]);
        for (i, &op) in order.iter().enumerate() {
            fwd[i + 1] = fwd[i] + table.fwd(op, col);
            bwd[i + 1] = bwd[i] + table.bwd(op, col);
            params[i + 1] = params[i] + table.param_bytes(op);
            act[i + 1] = act[i] + table.stashed_bytes(op);
        }
        // diff[c] accumulates edge contributions: an edge (u, v) is live
        // across every cut strictly between u and v.
        let mut diff = vec![0i64; n + 2];
        for (u, v) in graph.edges() {
            let (pu, pv) = (pos[u.index()], pos[v.index()]);
            debug_assert!(pu < pv, "linearization must be topological");
            let bytes = table.output_bytes(u) as i64;
            diff[pu + 1] += bytes;
            diff[pv + 1] -= bytes;
        }
        let mut cut = vec![0u64; n + 1];
        let mut acc = 0i64;
        for c in 0..=n {
            acc += diff[c];
            cut[c] = acc as u64;
        }
        Prefix {
            fwd,
            bwd,
            params,
            act,
            cut,
        }
    }
}

impl PipeDreamPlanner {
    /// Planner with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with explicit options.
    pub fn with_options(options: PlanOptions) -> Self {
        PipeDreamPlanner {
            options,
            ..Self::default()
        }
    }

    /// Runs the suffix DP at the table's micro-batch size `col`; returns
    /// the cut positions and device counts of the best partition, with
    /// its estimated bottleneck TPS.
    #[allow(clippy::too_many_arguments)]
    fn dp(
        &self,
        graph: &Graph,
        cost: &CostModel,
        table: &OpTable,
        order: &[OpId],
        devices: u32,
        col: usize,
        mini_batch: u64,
        evals: &mut u64,
    ) -> Option<(Vec<ChainCut>, f64)> {
        let n = order.len() as u32;
        let b = table.sizes()[col];
        let pre = Prefix::build(graph, table, order, col);
        let mem_budget = cost.memory_budget();
        // f[i][d] = Pareto entries for partitioning ops [i..n) over d
        // devices; an entry's `next` is the end `j` of its first stage
        // `[i..j)`, and `child` indexes `f[j][d - d1]`.
        let mut f: Vec<Vec<Vec<Entry>>> =
            vec![vec![Vec::new(); devices as usize + 1]; n as usize + 1];
        f[n as usize][0].push(Entry::SINK);
        for i in (0..n).rev() {
            for d in 1..=devices {
                let mut front: Vec<Entry> = Vec::new();
                for j in i + 1..=n {
                    let seg_fwd = pre.fwd[j as usize] - pre.fwd[i as usize];
                    let seg_bwd = pre.bwd[j as usize] - pre.bwd[i as usize];
                    let seg_params = pre.params[j as usize] - pre.params[i as usize];
                    let seg_act = pre.act[j as usize] - pre.act[i as usize];
                    let comm_bytes = pre.cut[i as usize] + pre.cut[j as usize];
                    for d1 in 1..=d {
                        let d_rest = d - d1;
                        if f[j as usize][d_rest as usize].is_empty() {
                            continue;
                        }
                        *evals += 1;
                        let tps_stage = cost.candidate_tps(
                            seg_fwd + seg_bwd,
                            comm_bytes,
                            seg_params,
                            b,
                            d1,
                            mini_batch,
                        );
                        for (ci, child) in f[j as usize][d_rest as usize].iter().enumerate() {
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
                                next: j,
                                d1,
                                child: ci as u32,
                            };
                            insert_pareto(&mut front, cand);
                        }
                    }
                }
                f[i as usize][d as usize] = front;
            }
        }
        // Best entry at the source with all devices in use.
        let best = best_entry(&f[0][devices as usize])?;
        // Reconstruct (start, end, devices) triples.
        let mut cuts = Vec::new();
        let (mut i, mut d, mut e) = (0u32, devices, best);
        loop {
            cuts.push((i, e.next, e.d1));
            if e.next == n {
                break;
            }
            let next = f[e.next as usize][(d - e.d1) as usize][e.child as usize];
            i = e.next;
            d -= e.d1;
            e = next;
        }
        debug_assert_eq!(i, cuts.last().unwrap().0);
        Some((cuts, best.tps))
    }
}

impl Planner for PipeDreamPlanner {
    fn name(&self) -> &str {
        "pipedream"
    }

    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError> {
        let start = self.clock.now_nanos();
        let graph = model.graph();
        let cost = CostModel::new(cluster);
        let order = model.linearize();
        let devices = cluster.device_count() as u32;
        let b_all = self.options.micro_batch_sizes(mini_batch)?;
        let table = OpTable::new(&cost, graph, &b_all);
        let mut stats = SearchStats::default();
        let mut best: Option<(Vec<ChainCut>, f64, u64)> = None;
        for (col, &b) in b_all.iter().enumerate() {
            stats.configs_tried += 1;
            let mut evals = 0u64;
            if let Some((cuts, tps)) = self.dp(
                graph, &cost, &table, &order, devices, col, mini_batch, &mut evals,
            ) {
                if best.as_ref().is_none_or(|(_, cur, _)| tps < *cur) {
                    best = Some((cuts, tps, b));
                }
            }
            stats.dp_evals += evals;
            if stats.dp_evals > self.options.eval_budget {
                return Err(PlanError::SearchExplosion {
                    evals: stats.dp_evals,
                });
            }
        }
        let (cuts, _, b) = best.ok_or_else(|| {
            PlanError::Infeasible(
                "no sequential partition fits the device memory budget".to_string(),
            )
        })?;
        let mut cursor = 0u32;
        let stages: Vec<Stage> = cuts
            .iter()
            .enumerate()
            .map(|(idx, &(i, j, d1))| {
                let devices = DeviceRange::new(cursor, d1);
                cursor += d1;
                Stage {
                    id: StageId(idx as u32),
                    ops: order[i as usize..j as usize].to_vec(),
                    devices,
                    micro_batch: b,
                    kfkb: 1,
                }
            })
            .collect();
        let stage_graph = StageGraph::new_sequential(graph, cluster, stages, mini_batch)
            .map_err(|e| PlanError::Internal(e.to_string()))?;
        stats.wall = self.clock.since(start);
        Ok(Plan::from_stage_graph(stage_graph, model, &cost, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig};

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
