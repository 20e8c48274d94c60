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
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::{insert_pareto, plan_sequential, CutSpace, Entry, Evals, Fronts, Size};
use gp_cluster::Cluster;
use gp_cost::CostModel;
use gp_ir::{Graph, OpId, SpBlock, SpModel};
use gp_partition::{Plan, PlanError, PlanOptions, Planner};
use std::collections::BTreeSet;

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
}

impl Default for PiperPlanner {
    fn default() -> Self {
        PiperPlanner {
            options: PlanOptions::default(),
            unit_ops: 4,
        }
    }
}

/// Abort once the downset lattice exceeds this many downsets.
const DOWNSET_CAP: usize = 10_000;

struct UnitGraph {
    /// Operators of each unit, in topological order.
    units: Vec<Vec<OpId>>,
    /// Unit-level predecessor lists.
    preds: Vec<Vec<u32>>,
    /// Op edges between units: `(from unit, to unit, producing op)`.
    edges: Vec<(u32, u32, OpId)>,
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
        let mut edges = Vec::new();
        for (a, b) in graph.edges() {
            let (ua, ub) = (unit_of[a.index()], unit_of[b.index()]);
            if ua != ub {
                edges.push((ua, ub, a));
                if !preds[ub as usize].contains(&ua) {
                    preds[ub as usize].push(ua);
                }
            }
        }
        UnitGraph {
            units,
            preds,
            edges,
        }
    }
}

/// Piper's cut space: the downset lattice of the unit graph, with the
/// per-downset aggregates that do not depend on the micro-batch size.
struct Lattice {
    units: Vec<Vec<OpId>>,
    /// Bitset form; index 0 is the empty set (the source).
    downsets: Vec<u128>,
    /// Downset indices by descending popcount, so supersets are finalized
    /// first; the full set (the sink) leads.
    order: Vec<u32>,
    params: Vec<u64>,
    act: Vec<u64>,
    /// Live activation bytes crossing the downset boundary, per sample.
    cut: Vec<u64>,
}

/// The ops of the units in `set`, unit by unit.
fn ops_in(units: &[Vec<OpId>], set: u128) -> impl Iterator<Item = OpId> + '_ {
    (units.iter().enumerate())
        .filter(move |&(u, _)| set & (1 << u) != 0)
        .flat_map(|(_, ops)| ops.iter().copied())
}

impl Lattice {
    fn build(ug: UnitGraph, downsets: Vec<u128>, graph: &Graph) -> Lattice {
        let mut order: Vec<u32> = (0..downsets.len() as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(downsets[i as usize].count_ones()));
        let has = |set: u128, u: u32| set & (1 << u) != 0;
        let params = downsets
            .iter()
            .map(|&d| ops_in(&ug.units, d).map(|op| graph.param_bytes(op)).sum())
            .collect();
        let act = downsets
            .iter()
            .map(|&d| ops_in(&ug.units, d).map(|op| graph.stashed_bytes(op)).sum())
            .collect();
        let cut = downsets
            .iter()
            .map(|&d| {
                let crossing = ug
                    .edges
                    .iter()
                    .filter(|&&(ua, ub, _)| has(d, ua) && !has(d, ub));
                crossing.map(|&(_, _, op)| graph.output_bytes(op)).sum()
            })
            .collect();
        Lattice {
            units: ug.units,
            downsets,
            order,
            params,
            act,
            cut,
        }
    }
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
        // iteration-order hazards.
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
}

impl CutSpace for Lattice {
    /// `g[downset][d]`: Pareto front for partitioning the complement; an
    /// entry's `next` is the superset downset its first stage reaches, and
    /// `child` indexes that downset's front.
    fn fronts(&self, size: &Size<'_>, evals: &mut Evals) -> Result<Fronts, PlanError> {
        let (b, devices) = (size.b, size.devices);
        let unit_time: Vec<f64> = self
            .units
            .iter()
            .map(|ops| {
                ops.iter()
                    .fold(0.0, |t, &op| t + size.table.time(op, size.col))
            })
            .collect();
        let time: Vec<f64> = self
            .downsets
            .iter()
            .map(|&d| {
                let in_d = (0..unit_time.len()).filter(|&u| d & (1 << u) != 0);
                in_d.fold(0.0, |t, u| t + unit_time[u])
            })
            .collect();
        let d_choices: Vec<u32> = (0..)
            .map(|e| 1u32 << e)
            .take_while(|&p| p <= devices)
            .collect();
        let mem_budget = size.cost.memory_budget();
        let mut g: Fronts = vec![vec![Vec::new(); devices as usize + 1]; self.downsets.len()];
        g[self.order[0] as usize][0].push(Entry::SINK);
        for (pi, &i2) in self.order.iter().enumerate() {
            let (i2, d2) = (i2 as usize, self.downsets[i2 as usize]);
            // Transitions into every strict subset processed later.
            for &i1 in &self.order[pi + 1..] {
                let i1 = i1 as usize;
                if self.downsets[i1] & !d2 != 0 {
                    continue; // not a subset
                }
                evals.charge()?;
                let stage_time = time[i2] - time[i1];
                let stage_params = self.params[i2] - self.params[i1];
                let stage_act = self.act[i2] - self.act[i1];
                let comm_bytes = self.cut[i1] + self.cut[i2];
                for &dd in &d_choices {
                    let tps_stage = size.cost.candidate_tps(
                        stage_time,
                        comm_bytes,
                        stage_params,
                        b,
                        dd,
                        size.mini_batch,
                    );
                    for d_rest in 0..=devices.saturating_sub(dd) {
                        for ci in 0..g[i2][d_rest as usize].len() {
                            let child = g[i2][d_rest as usize][ci];
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
                                next: i2 as u32,
                                d1: dd,
                                child: ci as u32,
                            };
                            insert_pareto(&mut g[i1][(d_rest + dd) as usize], cand);
                        }
                    }
                }
            }
        }
        Ok(g)
    }

    fn stage_ops(&self, from: u32, to: u32) -> Vec<OpId> {
        let stage = self.downsets[to as usize] & !self.downsets[from as usize];
        let mut ops: Vec<OpId> = ops_in(&self.units, stage).collect();
        ops.sort_unstable();
        ops
    }

    fn dp_states(&self) -> u64 {
        self.downsets.len() as u64
    }
}

impl Planner for PiperPlanner {
    fn name(&self) -> &str {
        "piper"
    }

    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError> {
        plan_sequential(&self.options, model, cluster, mini_batch, || {
            let ug = UnitGraph::build(model, self.unit_ops);
            let downsets = self.enumerate_downsets(&ug)?;
            Ok(Lattice::build(ug, downsets, model.graph()))
        })
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
