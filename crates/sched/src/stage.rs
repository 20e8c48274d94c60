//! Pipeline stages and the stage graph (§3 of the paper).
//!
//! A GPP strategy is a DAG of stages `S_i = <G_i, b_i, D_i, Pi_i>`: a convex
//! subgraph of the model, a micro-batch size, a device set, and a micro-batch
//! schedule. This module defines the first three elements plus the derived
//! stage DAG, whose constructors accept only stage lists that pass the
//! validity conditions C1–C3 ([`crate::verify_stages`]); schedules (`Pi_i`,
//! condition C4) live in [`crate::tasks`].
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::report::{verify_stages, Check, Location, VerifyError, VerifyReport};
use gp_cluster::{Cluster, DeviceRange};
use gp_ir::{Graph, OpId};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a stage within a [`StageGraph`]; dense indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(pub u32);

impl StageId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One pipeline stage: a convex subgraph executed on a device range with a
/// per-stage micro-batch size and kFkB schedule parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The stage's id (must equal its position in the stage list).
    pub id: StageId,
    /// Operators of the stage (`G_i`), in topological order.
    pub ops: Vec<OpId>,
    /// Devices assigned to the stage (`D_i`); replicas if more than one.
    pub devices: DeviceRange,
    /// Micro-batch size (`b_i`); there are `B / b_i` micro-batches.
    pub micro_batch: u64,
    /// `k` of the stage's kFkB schedule (1 = the classic 1F1B).
    pub kfkb: u64,
}

impl Stage {
    /// Data-parallel degree of the stage (`|D_i|`).
    pub fn dp_degree(&self) -> usize {
        self.devices.len()
    }

    /// Number of micro-batches per mini-batch of size `mini_batch`.
    pub fn num_micro_batches(&self, mini_batch: u64) -> u64 {
        mini_batch / self.micro_batch
    }
}

/// A validated DAG of pipeline stages over a model graph.
///
/// Stage dependency edges are *derived* from the model's data edges
/// (condition C2): `S_i -> S_j` exists iff some operator edge crosses from
/// `S_i` into `S_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageGraph {
    stages: Vec<Stage>,
    preds: Vec<Vec<StageId>>,
    succs: Vec<Vec<StageId>>,
    mini_batch: u64,
    /// `stage_of[op] = stage index` lookup.
    stage_of: Vec<u32>,
}

impl StageGraph {
    /// Builds a stage graph over `graph` for the given cluster and
    /// mini-batch size, after [`verify_stages`] accepts the stage list.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] naming every stage-list check the stages
    /// violate: the §3 validity conditions C1–C3, dense ids, non-empty
    /// stages, a positive mini-batch that every micro-batch size divides,
    /// and an acyclic derived stage DAG.
    pub fn new(
        graph: &Graph,
        cluster: &Cluster,
        stages: Vec<Stage>,
        mini_batch: u64,
    ) -> Result<Self, VerifyError> {
        verify_stages(graph, cluster, &stages, mini_batch).into_result()?;
        // The stages cover every operator exactly once, so every slot is
        // written.
        let mut stage_of = vec![u32::MAX; graph.len()];
        for s in &stages {
            for &op in &s.ops {
                stage_of[op.index()] = s.id.0;
            }
        }
        // C2: derive stage edges from operator edges.
        let n = stages.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs: Vec<Vec<StageId>> = vec![Vec::new(); n];
        for (u, v) in graph.edges() {
            let (su, sv) = (StageId(stage_of[u.index()]), StageId(stage_of[v.index()]));
            if su != sv && !succs[su.index()].contains(&sv) {
                succs[su.index()].push(sv);
                preds[sv.index()].push(su);
            }
        }
        for list in preds.iter_mut().chain(succs.iter_mut()) {
            list.sort_unstable();
        }
        Ok(StageGraph {
            stages,
            preds,
            succs,
            mini_batch,
            stage_of,
        })
    }

    /// Like [`StageGraph::new`], but additionally imposes a strict
    /// sequential order `S_0 -> S_1 -> ... -> S_n`.
    ///
    /// This is how sequential pipeline parallelism (SPP) realizes a
    /// linearized model: even when two consecutive stages have no data
    /// dependency (e.g. they hold different branches of the DNN), the SPP
    /// scheduler executes them in pipeline order — the "imaginary linear
    /// dependencies" of Figure 2. The extra edges keep C2 satisfied while
    /// making the pipeline depth equal to the stage count.
    ///
    /// # Errors
    ///
    /// Same as [`StageGraph::new`], plus `stage-acyclic` when an imposed
    /// chain edge runs against the data flow and closes a cycle.
    pub fn new_sequential(
        graph: &Graph,
        cluster: &Cluster,
        stages: Vec<Stage>,
        mini_batch: u64,
    ) -> Result<Self, VerifyError> {
        Self::new(graph, cluster, stages, mini_batch)?.into_sequential()
    }

    /// Imposes [`StageGraph::new_sequential`]'s chain on a graph built by
    /// [`StageGraph::new`], without re-running the stage-list checks.
    ///
    /// # Errors
    ///
    /// `stage-acyclic` when a chain edge closes a cycle against the data
    /// flow.
    pub fn into_sequential(mut self) -> Result<Self, VerifyError> {
        for i in 1..self.len() {
            self.succs[i - 1].push(StageId(i as u32));
            self.preds[i].push(StageId(i as u32 - 1));
        }
        for list in self.preds.iter_mut().chain(self.succs.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        // `verify_stages` proved the data-derived DAG acyclic; a chain edge
        // can still close a cycle against a data edge.
        let mut report = VerifyReport::new();
        if self.topo_order().len() != self.len() {
            let detail = "an imposed sequential chain edge closes a cycle";
            report.fail(Check::StageAcyclic, Location::global(), detail);
        }
        report.into_result().map(|()| self)
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether there are no stages (never true for a validated graph).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    /// Iterates over stages in id order; `as_slice` lends them as a list.
    pub fn stages(&self) -> std::slice::Iter<'_, Stage> {
        self.stages.iter()
    }

    /// The global mini-batch size `B`.
    pub fn mini_batch(&self) -> u64 {
        self.mini_batch
    }

    /// Stages that must run before `id` in a forward pass.
    pub fn preds(&self, id: StageId) -> &[StageId] {
        &self.preds[id.index()]
    }

    /// Stages that consume `id`'s outputs.
    pub fn succs(&self, id: StageId) -> &[StageId] {
        &self.succs[id.index()]
    }

    /// The stage owning an operator.
    pub fn stage_of(&self, op: OpId) -> StageId {
        StageId(self.stage_of[op.index()])
    }

    /// All stage dependency edges `(upstream, downstream)`, in `(upstream,
    /// downstream)` id order. Includes both data-derived edges (C2) and any
    /// sequential edges imposed by [`StageGraph::new_sequential`] — which is
    /// what lets a serialized stage graph be reconstructed and verified
    /// exactly (see the `gp-serve` plan artifact codec).
    pub fn stage_edges(&self) -> Vec<(StageId, StageId)> {
        let mut edges: Vec<(StageId, StageId)> = self
            .stages
            .iter()
            .flat_map(|s| self.succs[s.id.index()].iter().map(move |&t| (s.id, t)))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// A topological order of stage ids.
    pub fn topo_order(&self) -> Vec<StageId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: VecDeque<StageId> = (0..self.stages.len() as u32)
            .map(StageId)
            .filter(|s| indeg[s.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.stages.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in &self.succs[id.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        order
    }

    /// Pipeline depth: the diameter of the stage DAG in stages (§2,
    /// "Reduced memory requirement"). For a sequential pipeline this equals
    /// the stage count; GPP's parallel branches shrink it.
    pub fn pipeline_depth(&self) -> usize {
        let order = self.topo_order();
        let mut depth = vec![1usize; self.stages.len()];
        for &id in &order {
            for &s in self.succs(id) {
                depth[s.index()] = depth[s.index()].max(depth[id.index()] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo;

    /// Split a 4-layer MLP chain (10 ops) into `n` stages of contiguous ops
    /// on a cluster of `n` devices.
    fn chain_stages(n: usize) -> (gp_ir::SpModel, Cluster, Vec<Stage>) {
        let model = zoo::mlp_chain(4, 16);
        let cluster = Cluster::tiny_test(n);
        let ops = model.linearize();
        let per = ops.len().div_ceil(n);
        let stages: Vec<Stage> = ops
            .chunks(per)
            .enumerate()
            .map(|(i, chunk)| Stage {
                id: StageId(i as u32),
                ops: chunk.to_vec(),
                devices: DeviceRange::new(i as u32, 1),
                micro_batch: 2,
                kfkb: 1,
            })
            .collect();
        (model, cluster, stages)
    }

    #[test]
    fn sequential_chain_has_linear_depth() {
        let (model, cluster, stages) = chain_stages(2);
        let sg = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap();
        assert_eq!(sg.len(), 2);
        assert_eq!(sg.pipeline_depth(), 2);
        assert_eq!(sg.succs(StageId(0)), &[StageId(1)]);
        assert_eq!(sg.preds(StageId(1)), &[StageId(0)]);
    }

    #[test]
    fn branch_model_depth_is_diameter() {
        // Two-branch model: branches in parallel stages + a merge stage.
        let model = zoo::candle_uno(&gp_ir::zoo::CandleUnoConfig::tiny());
        let cluster = Cluster::tiny_test(3);
        let g = model.graph();
        // Ops: branch0 = input,fc,relu,fc,relu (0-4), branch1 = 5-9,
        // merge = concat..loss (10-15).
        let all: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: all[0..5].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: all[5..10].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(2),
                ops: all[10..].to_vec(),
                devices: DeviceRange::new(2, 1),
                micro_batch: 2,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(g, &cluster, stages, 8).unwrap();
        // 3 stages but depth 2: the branches are parallel.
        assert_eq!(sg.len(), 3);
        assert_eq!(sg.pipeline_depth(), 2);
        assert_eq!(sg.succs(StageId(0)), &[StageId(2)]);
        assert_eq!(sg.succs(StageId(1)), &[StageId(2)]);
    }

    #[test]
    fn rejects_op_in_two_stages() {
        let (model, cluster, mut stages) = chain_stages(2);
        let dup = stages[0].ops[0];
        stages[1].ops.push(dup);
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::OpCoverExact, "{err}");
        assert_eq!(err.violation().location.op, Some(dup), "{err}");
    }

    #[test]
    fn rejects_missing_op() {
        let (model, cluster, mut stages) = chain_stages(2);
        let dropped = stages[1].ops.pop().unwrap();
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::OpCoverExact, "{err}");
        assert_eq!(err.violation().location.op, Some(dropped), "{err}");
    }

    #[test]
    fn rejects_out_of_range_op() {
        let (model, cluster, mut stages) = chain_stages(2);
        let stray = OpId(model.graph().len() as u32);
        stages[1].ops.push(stray);
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::OpCoverExact, "{err}");
        assert_eq!(err.violation().location.op, Some(stray), "{err}");
    }

    #[test]
    fn rejects_non_convex_stage() {
        let (model, cluster, _) = chain_stages(2);
        let ops = model.linearize();
        // Stage 0 takes ops {0, 2}, skipping 1: not convex.
        let mut s0: Vec<OpId> = vec![ops[0], ops[2]];
        let mut s1: Vec<OpId> = vec![ops[1]];
        s1.extend_from_slice(&ops[3..]);
        s0.sort();
        s1.sort();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: s0,
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: s1,
                devices: DeviceRange::new(1, 1),
                micro_batch: 2,
                kfkb: 1,
            },
        ];
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        // Either stage may be flagged first; both are non-convex here.
        assert_eq!(err.violation().check, Check::OpConvex, "{err}");
    }

    #[test]
    fn rejects_overlapping_devices() {
        let (model, cluster, mut stages) = chain_stages(2);
        stages[1].devices = DeviceRange::new(0, 1);
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::DeviceOverlap, "{err}");
        assert_eq!(err.violation().location.stage, Some(StageId(0)), "{err}");
    }

    #[test]
    fn rejects_incomplete_device_coverage() {
        let (model, _, stages) = chain_stages(2);
        let bigger = Cluster::tiny_test(4);
        let err = StageGraph::new(model.graph(), &bigger, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::DeviceCoverage, "{err}");
    }

    #[test]
    fn rejects_bad_micro_batch() {
        let (model, cluster, mut stages) = chain_stages(2);
        stages[0].micro_batch = 3; // does not divide 8
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::MicroBatchDivides, "{err}");
        assert_eq!(err.violation().location.stage, Some(StageId(0)), "{err}");
    }

    #[test]
    fn rejects_empty_stage() {
        let (model, cluster, mut stages) = chain_stages(2);
        stages[0].kfkb = 0;
        let err = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::StageNonEmpty, "{err}");
        assert_eq!(err.violation().location.stage, Some(StageId(0)), "{err}");
    }

    #[test]
    fn stage_of_lookup() {
        let (model, cluster, stages) = chain_stages(2);
        let sg = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap();
        let first_op = sg.stage(StageId(0)).ops[0];
        assert_eq!(sg.stage_of(first_op), StageId(0));
        let last_op = *sg.stage(StageId(1)).ops.last().unwrap();
        assert_eq!(sg.stage_of(last_op), StageId(1));
    }

    #[test]
    fn micro_batch_helpers() {
        let s = Stage {
            id: StageId(0),
            ops: vec![OpId(0)],
            devices: DeviceRange::new(0, 2),
            micro_batch: 4,
            kfkb: 1,
        };
        assert_eq!(s.dp_degree(), 2);
        assert_eq!(s.num_micro_batches(32), 8);
    }

    #[test]
    fn error_display() {
        let (model, _, stages) = chain_stages(2);
        let e = StageGraph::new(model.graph(), &Cluster::tiny_test(4), stages, 8).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("device-coverage"), "{text}");
        assert!(text.contains("2 devices"), "{text}");
    }
}

#[cfg(test)]
mod sequential_tests {
    use super::*;
    use gp_ir::zoo;

    #[test]
    fn sequential_constructor_imposes_chain() {
        // Two parallel branch stages: without imposition they'd be
        // concurrent; SPP forces S0 -> S1.
        let model = zoo::candle_uno(&gp_ir::zoo::CandleUnoConfig::tiny());
        let g = model.graph();
        let cluster = Cluster::tiny_test(3);
        let all: Vec<gp_ir::OpId> = g.nodes().map(|n| n.id).collect();
        let make = |ops: &[gp_ir::OpId], i: u32| Stage {
            id: StageId(i),
            ops: ops.to_vec(),
            devices: DeviceRange::new(i, 1),
            micro_batch: 2,
            kfkb: 1,
        };
        let stages = vec![
            make(&all[0..5], 0),
            make(&all[5..10], 1),
            make(&all[10..], 2),
        ];
        let dag = StageGraph::new(g, &cluster, stages.clone(), 8).unwrap();
        assert_eq!(dag.pipeline_depth(), 2);
        let chain = StageGraph::new_sequential(g, &cluster, stages, 8).unwrap();
        assert_eq!(chain.pipeline_depth(), 3);
        // The imposed edge S0 -> S1 joins the real data edge S0 -> S2.
        assert!(chain.succs(StageId(0)).contains(&StageId(1)));
        assert!(chain.succs(StageId(0)).contains(&StageId(2)));
        assert!(chain.succs(StageId(1)).contains(&StageId(2)));
        // Merge stage first: the chain S0 -> S1 runs against the data edge
        // S1 -> S0 and closes a cycle.
        let merge_first = vec![
            make(&all[10..], 0),
            make(&all[0..5], 1),
            make(&all[5..10], 2),
        ];
        let err = StageGraph::new_sequential(g, &cluster, merge_first, 8).unwrap_err();
        assert_eq!(err.violation().check, Check::StageAcyclic, "{err}");
    }
}
