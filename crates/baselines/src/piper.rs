//! The Piper baseline planner (Tarnawski et al., NeurIPS'21).
//!
//! Piper is a multidimensional planner for *sequential* pipelines whose
//! stages may span multiple branches: a stage is the difference of two
//! *downsets* (predecessor-closed sets) of the layer graph, and the planner
//! dynamically programs over the downset lattice. Its `O(|D|^2)` running
//! time is what the GraphPipe paper measures in Table 1 — and the reason it
//! "cannot generate training strategies for DLRM and CANDLE-Uno, since its
//! time and space complexity increases exponentially with respect to the
//! number of parallel branches" (§7.1). This implementation reproduces that
//! behaviour honestly: the downset enumeration and the pair loop are
//! budgeted, and exceeding either budget returns
//! [`PlanError::SearchExplosion`] (rendered as "✗" by the harness).
//!
//! Faithful simplifications (see DESIGN.md §"Baseline simplifications"):
//!
//! * the planner works on *layer units* — short runs of consecutive chain
//!   operators — matching Piper's layer-graph granularity (PipeDream is the
//!   operator-granularity baseline);
//! * per-stage device counts are powers of two, as in Piper's
//!   tensor/data-parallel configuration enumeration.

use crate::{best_entry, insert_pareto, Entry};
use gp_cluster::{Cluster, DeviceRange};
use gp_cost::{CostModel, OpTable};
use gp_ir::{Graph, OpId, SpBlock, SpModel};
use gp_obs::ClockHandle;
use gp_partition::{Plan, PlanError, PlanOptions, Planner, SearchStats};
use gp_sched::{Stage, StageGraph, StageId};
use std::collections::{BTreeSet, HashMap};

/// Downset-lattice planner for sequential pipelines with cross-branch
/// stages.
///
/// # Examples
///
/// ```
/// use gp_cluster::Cluster;
/// use gp_ir::zoo::{self, DlrmConfig};
/// use gp_baselines::PiperPlanner;
/// use gp_partition::{PlanError, Planner};
///
/// // Eight-plus-branch models blow up Piper's downset lattice (Table 1 "✗").
/// let model = zoo::dlrm(&DlrmConfig::default());
/// let err = PiperPlanner::new().plan(&model, &Cluster::summit_like(4), 256);
/// assert!(matches!(err, Err(PlanError::SearchExplosion { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct PiperPlanner {
    options: PlanOptions,
    /// Operators grouped per layer unit.
    unit_ops: usize,
    /// Wall-clock seam: feeds only `SearchStats.wall`, which fingerprints
    /// exclude.
    clock: ClockHandle,
}

impl Default for PiperPlanner {
    fn default() -> Self {
        PiperPlanner {
            options: PlanOptions::default(),
            unit_ops: 4,
            clock: ClockHandle::default(),
        }
    }
}

/// Abort once the downset lattice exceeds this many downsets.
const DOWNSET_CAP: usize = 10_000;

/// A reconstructed stage in bitset form: `(outer downset, inner downset,
/// device count)` — the stage's units are `outer \ inner`.
type DownsetCut = (u128, u128, u32);

struct UnitGraph {
    /// Operators of each unit, in topological order.
    units: Vec<Vec<OpId>>,
    /// Unit-level predecessor lists.
    preds: Vec<Vec<u32>>,
}

impl UnitGraph {
    /// Groups runs of consecutive chain leaves into units of at most
    /// `unit_ops` operators, preserving the SP structure.
    fn build(model: &SpModel, unit_ops: usize) -> UnitGraph {
        let mut units: Vec<Vec<OpId>> = Vec::new();
        fn walk(block: &SpBlock, unit_ops: usize, units: &mut Vec<Vec<OpId>>) {
            match block {
                SpBlock::Leaf(op) => units.push(vec![*op]),
                SpBlock::Chain(items) => {
                    let mut run: Vec<OpId> = Vec::new();
                    for item in items {
                        match item {
                            SpBlock::Leaf(op) => {
                                run.push(*op);
                                if run.len() >= unit_ops {
                                    units.push(std::mem::take(&mut run));
                                }
                            }
                            other => {
                                if !run.is_empty() {
                                    units.push(std::mem::take(&mut run));
                                }
                                walk(other, unit_ops, units);
                            }
                        }
                    }
                    if !run.is_empty() {
                        units.push(run);
                    }
                }
                SpBlock::Branches(items) => {
                    for item in items {
                        walk(item, unit_ops, units);
                    }
                }
            }
        }
        walk(model.root(), unit_ops, &mut units);
        let graph = model.graph();
        let mut unit_of = vec![u32::MAX; graph.len()];
        for (u, ops) in units.iter().enumerate() {
            for op in ops {
                unit_of[op.index()] = u as u32;
            }
        }
        let mut preds = vec![Vec::new(); units.len()];
        for (a, b) in graph.edges() {
            let (ua, ub) = (unit_of[a.index()], unit_of[b.index()]);
            if ua != ub && !preds[ub as usize].contains(&ua) {
                preds[ub as usize].push(ua);
            }
        }
        UnitGraph { units, preds }
    }
}

/// Per-downset cost aggregates at a fixed micro-batch size.
struct DownsetCosts {
    time: Vec<f64>,
    params: Vec<u64>,
    act: Vec<u64>,
    /// Live activation bytes crossing the downset boundary, per sample.
    cut: Vec<u64>,
}

impl PiperPlanner {
    /// Planner with default options (layer units of 4 operators, 10k
    /// downset cap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with explicit options.
    pub fn with_options(options: PlanOptions) -> Self {
        PiperPlanner {
            options,
            ..Self::default()
        }
    }

    /// Overrides the layer-unit coarsening (operators per unit). Larger
    /// units shrink the downset lattice at the cost of partition
    /// granularity.
    pub fn with_unit_ops(mut self, unit_ops: usize) -> Self {
        self.unit_ops = unit_ops.max(1);
        self
    }

    /// Enumerates all downsets of the unit graph (bitset form), capped.
    /// Both exits fire before the DP evaluates anything, so they report
    /// `evals: 0`.
    fn enumerate_downsets(&self, ug: &UnitGraph) -> Result<Vec<u128>, PlanError> {
        let n = ug.units.len();
        if n > 127 {
            return Err(PlanError::SearchExplosion { evals: 0 });
        }
        let pred_mask: Vec<u128> = ug
            .preds
            .iter()
            .map(|ps| ps.iter().fold(0u128, |m, &p| m | (1 << p)))
            .collect();
        // Membership-only set; BTreeSet keeps the module free of
        // iteration-order hazards (`gp-lint: deterministic`).
        let mut seen: BTreeSet<u128> = BTreeSet::new();
        let mut stack = vec![0u128];
        seen.insert(0);
        let mut out = Vec::new();
        while let Some(d) = stack.pop() {
            out.push(d);
            if out.len() > DOWNSET_CAP {
                return Err(PlanError::SearchExplosion { evals: 0 });
            }
            for (u, &pm) in pred_mask.iter().enumerate() {
                let bit = 1u128 << u;
                if d & bit == 0 && pm & !d == 0 {
                    let next = d | bit;
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The downsets' cost aggregates at the table's micro-batch size
    /// `col`.
    fn downset_costs(
        &self,
        graph: &Graph,
        table: &OpTable,
        ug: &UnitGraph,
        downsets: &[u128],
        col: usize,
    ) -> DownsetCosts {
        let n = ug.units.len();
        let mut unit_time = vec![0.0f64; n];
        let mut unit_params = vec![0u64; n];
        let mut unit_act = vec![0u64; n];
        for (u, ops) in ug.units.iter().enumerate() {
            for &op in ops {
                unit_time[u] += table.time(op, col);
                unit_params[u] += table.param_bytes(op);
                unit_act[u] += table.stashed_bytes(op);
            }
        }
        // Unit-level edge list with live bytes.
        let mut unit_of = vec![u32::MAX; graph.len()];
        for (u, ops) in ug.units.iter().enumerate() {
            for op in ops {
                unit_of[op.index()] = u as u32;
            }
        }
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for (a, bb) in graph.edges() {
            let (ua, ub) = (unit_of[a.index()], unit_of[bb.index()]);
            if ua != ub {
                edges.push((ua, ub, table.output_bytes(a)));
            }
        }
        let mut time = Vec::with_capacity(downsets.len());
        let mut params = Vec::with_capacity(downsets.len());
        let mut act = Vec::with_capacity(downsets.len());
        let mut cut = Vec::with_capacity(downsets.len());
        for &d in downsets {
            let mut t = 0.0;
            let (mut p, mut a) = (0u64, 0u64);
            for u in 0..n {
                if d & (1 << u) != 0 {
                    t += unit_time[u];
                    p += unit_params[u];
                    a += unit_act[u];
                }
            }
            let mut c = 0u64;
            for &(ua, ub, bytes) in &edges {
                if d & (1 << ua) != 0 && d & (1 << ub) == 0 {
                    c += bytes;
                }
            }
            time.push(t);
            params.push(p);
            act.push(a);
            cut.push(c);
        }
        DownsetCosts {
            time,
            params,
            act,
            cut,
        }
    }

    /// Suffix DP over the downset lattice for one micro-batch size.
    #[allow(clippy::too_many_arguments)]
    fn dp(
        &self,
        cost: &CostModel,
        downsets: &[u128],
        costs: &DownsetCosts,
        devices: u32,
        b: u64,
        mini_batch: u64,
        evals: &mut u64,
    ) -> Result<Option<(Vec<DownsetCut>, f64)>, PlanError> {
        let full: u128 = *downsets
            .iter()
            .max_by_key(|d| d.count_ones())
            .expect("lattice contains the full set");
        // Order: descending popcount, so supersets are finalized first.
        let mut order: Vec<u32> = (0..downsets.len() as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(downsets[i as usize].count_ones()));
        let index_of: HashMap<u128, u32> = downsets
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        let d_choices: Vec<u32> = (0..)
            .map(|e| 1u32 << e)
            .take_while(|&p| p <= devices)
            .collect();
        let mem_budget = cost.memory_budget();
        // g[downset][d] = Pareto front for partitioning the complement; an
        // entry's `next` is the superset downset its first stage reaches,
        // and `child` indexes that downset's front.
        let mut g: Vec<Vec<Vec<Entry>>> =
            vec![vec![Vec::new(); devices as usize + 1]; downsets.len()];
        g[index_of[&full] as usize][0].push(Entry::SINK);
        for (pi, &i2) in order.iter().enumerate() {
            let d2 = downsets[i2 as usize];
            // Transitions into every strict subset processed later.
            for &i1 in &order[pi + 1..] {
                let d1set = downsets[i1 as usize];
                if d1set & !d2 != 0 {
                    continue; // not a subset
                }
                *evals += 1;
                if *evals > self.options.eval_budget {
                    return Err(PlanError::SearchExplosion { evals: *evals });
                }
                let stage_time = costs.time[i2 as usize] - costs.time[i1 as usize];
                let stage_params = costs.params[i2 as usize] - costs.params[i1 as usize];
                let stage_act = costs.act[i2 as usize] - costs.act[i1 as usize];
                let comm_bytes = costs.cut[i1 as usize] + costs.cut[i2 as usize];
                for &dd in &d_choices {
                    let tps_stage =
                        cost.candidate_tps(stage_time, comm_bytes, stage_params, b, dd, mini_batch);
                    for d_rest in 0..=devices.saturating_sub(dd) {
                        if g[i2 as usize][d_rest as usize].is_empty() {
                            continue;
                        }
                        for ci in 0..g[i2 as usize][d_rest as usize].len() {
                            let child = g[i2 as usize][d_rest as usize][ci];
                            let in_flight = (child.depth as u64 + 1) * b;
                            let mem = CostModel::stage_memory(
                                stage_params,
                                stage_act,
                                in_flight,
                                b,
                                dd as usize,
                            );
                            if mem > mem_budget {
                                continue;
                            }
                            let cand = Entry {
                                tps: tps_stage.max(child.tps),
                                depth: child.depth + 1,
                                next: i2,
                                d1: dd,
                                child: ci as u32,
                            };
                            let front = &mut g[i1 as usize][(d_rest + dd) as usize];
                            insert_pareto(front, cand);
                        }
                    }
                }
            }
        }
        let empty_idx = index_of[&0] as usize;
        let Some(best) = best_entry(&g[empty_idx][devices as usize]) else {
            return Ok(None);
        };
        // Reconstruct stages from the source: (from_set, to_set, devices).
        let mut stages = Vec::new();
        let (mut idx, mut d, mut e) = (empty_idx, devices, best);
        while e.next != Entry::SINK.next {
            let from = downsets[idx];
            let to = downsets[e.next as usize];
            stages.push((from, to, e.d1));
            idx = e.next as usize;
            d -= e.d1;
            e = g[idx][d as usize][e.child as usize];
        }
        Ok(Some((stages, best.tps)))
    }
}

impl Planner for PiperPlanner {
    fn name(&self) -> &str {
        "piper"
    }

    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError> {
        let start = self.clock.now_nanos();
        let graph = model.graph();
        let cost = CostModel::new(cluster);
        let devices = cluster.device_count() as u32;
        let b_all = self.options.micro_batch_sizes(mini_batch)?;
        let ug = UnitGraph::build(model, self.unit_ops);
        let downsets = self.enumerate_downsets(&ug)?;
        let table = OpTable::new(&cost, graph, &b_all);
        let mut stats = SearchStats {
            dp_states: downsets.len() as u64,
            ..SearchStats::default()
        };
        let mut best: Option<(Vec<DownsetCut>, f64, u64)> = None;
        let mut evals = 0u64;
        for (col, &b) in b_all.iter().enumerate() {
            stats.configs_tried += 1;
            let costs = self.downset_costs(graph, &table, &ug, &downsets, col);
            if let Some((cuts, tps)) =
                self.dp(&cost, &downsets, &costs, devices, b, mini_batch, &mut evals)?
            {
                if best.as_ref().is_none_or(|(_, cur, _)| tps < *cur) {
                    best = Some((cuts, tps, b));
                }
            }
        }
        stats.dp_evals = evals;
        let (cuts, _, b) = best.ok_or_else(|| {
            PlanError::Infeasible("no downset partition fits the device memory budget".to_string())
        })?;
        let mut cursor = 0u32;
        let stages: Vec<Stage> = cuts
            .iter()
            .enumerate()
            .map(|(idx, &(from, to, d1))| {
                let mut ops: Vec<OpId> = Vec::new();
                for (u, unit) in ug.units.iter().enumerate() {
                    if to & (1 << u) != 0 && from & (1 << u) == 0 {
                        ops.extend_from_slice(unit);
                    }
                }
                ops.sort_unstable();
                let devices = DeviceRange::new(cursor, d1);
                cursor += d1;
                Stage {
                    id: StageId(idx as u32),
                    ops,
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
    fn unit_graph_groups_chain_runs() {
        let model = zoo::mlp_chain(8, 64);
        // 1 input + 16 layer ops + loss = 18 ops -> units of <= 4.
        let ug = UnitGraph::build(&model, 4);
        assert!(ug.units.iter().all(|u| u.len() <= 4));
        let total: usize = ug.units.iter().map(Vec::len).sum();
        assert_eq!(total, model.graph().len());
        // Chain units form a path.
        for (u, preds) in ug.preds.iter().enumerate() {
            assert!(preds.len() <= 1, "unit {u} has {preds:?}");
        }
    }

    #[test]
    fn downsets_of_a_path_are_prefixes() {
        let model = zoo::mlp_chain(4, 32);
        let planner = PiperPlanner::new();
        let ug = UnitGraph::build(&model, 4);
        let ds = planner.enumerate_downsets(&ug).unwrap();
        // A path of n units has exactly n + 1 downsets.
        assert_eq!(ds.len(), ug.units.len() + 1);
    }

    #[test]
    fn downsets_multiply_across_branches() {
        let model = zoo::candle_uno(&CandleUnoConfig::with_branches(2));
        let planner = PiperPlanner::new();
        let ug = UnitGraph::build(&model, 4);
        let ds = planner.enumerate_downsets(&ug).unwrap();
        // Two independent branches multiply their prefix counts.
        assert!(ds.len() > ug.units.len() + 1);
    }

    #[test]
    fn plans_two_branch_mmt() {
        let model = zoo::mmt(&MmtConfig::two_branch());
        let cluster = Cluster::summit_like(4);
        let plan = PiperPlanner::new().plan(&model, &cluster, 64).unwrap();
        // Sequential pipeline: depth equals stage count.
        assert_eq!(plan.pipeline_depth(), plan.stage_graph.len());
        gp_verify::verify_plan(model.graph(), &cluster, &plan)
            .into_result()
            .unwrap();
    }

    #[test]
    fn eight_branch_models_explode() {
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let planner = PiperPlanner {
            options: PlanOptions {
                eval_budget: 10_000_000,
                ..PlanOptions::default()
            },
            ..PiperPlanner::default()
        };
        let err = planner
            .plan(&model, &Cluster::summit_like(4), 4096)
            .unwrap_err();
        // The downset lattice overflows its cap before the DP runs.
        assert!(
            matches!(err, PlanError::SearchExplosion { evals: 0 }),
            "{err:?}"
        );
    }
}
