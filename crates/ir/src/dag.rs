//! Planning arbitrary DAGs: SP recognition, SP-ization, and the
//! clustering fallback.
//!
//! The GraphPipe DP core (paper §5) consumes a series-parallel tree, but
//! production graphs — deep GNN layer pipelines, skip-connection
//! transformers — arrive as raw DAGs, and hand-authoring the tree is
//! error-prone even when one exists. This module recovers the tree
//! automatically, walking a three-rung fallback ladder
//! (DESIGN.md §"Arbitrary DAGs"):
//!
//! 1. **Recognition** ([`recognize`]): a comparability decomposition.
//!    Nodes comparable (by reachability) with every other node in scope
//!    are *series separators*; they are totally ordered and split the
//!    remaining nodes into segments, whose undirected connected
//!    components become parallel branches, recursively. When the
//!    decomposition bottoms out in singletons everywhere, the tree
//!    represents the DAG exactly ([`PlanPath::ExactSp`]).
//! 2. **SP-ization**: an irreducible component (no separators, one
//!    component) is laid out as a *level chain* — `Chain` of `Branches`
//!    keyed by longest-path depth. Every edge is preserved (same-level
//!    nodes are never adjacent; cross-level edges flow forward), at the
//!    price of *distortion*: a skip edge's activation transits the
//!    intermediate chain positions. [`transit_volume`] quantifies that
//!    extra communication volume in bytes; the model's construction
//!    audit computes it once and records it as [`PlanPath::SpIzed`].
//! 3. **Clustering** ([`PlanPath::Clustered`]): past the distortion
//!    budget, fall back to a flat topological chain coarsened
//!    Piper-style into `ceil(ops / unit_ops)` unit groups — the same
//!    granularity `Session::compare`'s Piper arm uses.
//!
//! [`plan_dag`] drives the ladder end to end and is what
//! `Session::builder().model_dag(graph)` calls.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::graph::{Graph, GraphError, OpId};
use crate::sp::{PlanPath, SpAudit, SpBlock, SpModel};

/// Default distortion budget (1 GiB of extra activation transit) before
/// [`plan_dag`] abandons SP-ization for the clustering fallback.
pub const DEFAULT_DISTORTION_BUDGET: u64 = 1 << 30;

/// Default unit-op group size for the clustering fallback — matches the
/// Piper comparison granularity (`Session::compare`).
pub const DEFAULT_UNIT_OPS: u32 = 8;

/// Knobs for the [`plan_dag`] fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagOptions {
    /// Maximum SP-ization distortion (bytes of extra activation transit,
    /// see [`transit_volume`]) before falling back to clustering.
    pub distortion_budget: u64,
    /// Unit-op group size of the clustering fallback.
    pub unit_ops: u32,
}

impl Default for DagOptions {
    fn default() -> Self {
        DagOptions {
            distortion_budget: DEFAULT_DISTORTION_BUDGET,
            unit_ops: DEFAULT_UNIT_OPS,
        }
    }
}

impl DagOptions {
    /// Sets the distortion budget.
    pub fn with_distortion_budget(mut self, bytes: u64) -> Self {
        self.distortion_budget = bytes;
        self
    }

    /// Sets the clustering unit size.
    ///
    /// # Panics
    ///
    /// Panics when `unit_ops` is zero.
    pub fn with_unit_ops(mut self, unit_ops: u32) -> Self {
        assert!(unit_ops > 0, "unit_ops must be positive");
        self.unit_ops = unit_ops;
        self
    }
}

/// Plans an arbitrary DAG into an [`SpModel`], walking the recognition →
/// SP-ization → clustering ladder and recording the rung taken in the
/// model's [`PlanPath`].
///
/// # Errors
///
/// Returns the graph's own validation error ([`GraphError`]) when the
/// input is not a well-formed computation graph; the ladder itself always
/// succeeds on a valid graph.
pub fn plan_dag(
    name: impl Into<String>,
    graph: Graph,
    options: &DagOptions,
) -> Result<SpModel, GraphError> {
    graph.validate()?;
    let (root, exact) = decompose(&graph);
    if exact {
        return Ok(
            SpModel::new(name, graph, root).expect("recognized SP tree is valid by construction")
        );
    }
    let sp_ized = SpModel::audited(name, graph, root, |distortion| PlanPath::SpIzed {
        distortion,
    })
    .expect("SP-ized level chain is valid by construction");
    if matches!(sp_ized.path(), PlanPath::SpIzed { distortion }
        if distortion <= options.distortion_budget)
    {
        return Ok(sp_ized);
    }
    let (name, graph) = sp_ized.into_parts();
    let flat = SpBlock::Chain(graph.topo_order().into_iter().map(SpBlock::Leaf).collect());
    let units = (graph.len() as u32).div_ceil(options.unit_ops.max(1));
    let clustered = SpModel::audited(name, graph, flat, |_| PlanPath::Clustered { units });
    Ok(clustered.expect("a topological chain is valid by construction"))
}

/// Recovers the exact SP tree of a graph, or `None` when the graph is not
/// series-parallel (callers then take the [`plan_dag`] ladder).
///
/// On true-SP graphs this reproduces the tree a careful author would
/// write: branches appear in first-operator order, chains in data order,
/// and the result is normalized — so models built from it plan (and
/// fingerprint) byte-identically to hand-authored ones.
pub fn recognize(graph: &Graph) -> Option<SpBlock> {
    let (root, exact) = decompose(graph);
    exact.then_some(root)
}

/// The extra activation-transit volume (bytes) a tree imposes over the
/// raw DAG: for every data edge whose endpoints sit `gap` positions apart
/// under their lowest common `Chain` ancestor, the producer's output is
/// carried across the `gap - 1` intermediate positions. Zero for trees
/// whose every edge connects adjacent chain positions (or crosses into an
/// immediately following block).
///
/// This is the quantity [`PlanPath::SpIzed`] reports as `distortion`:
/// [`plan_dag`] reads it from the same audit that validates the model.
pub fn transit_volume(graph: &Graph, root: &SpBlock) -> u64 {
    SpAudit::new(graph, root).transit_volume
}

/// Data edges the tree cannot admit: endpoints missing from the tree,
/// split across sibling `Branches`, or flowing backwards along a `Chain`.
/// Empty exactly when the tree covers the original edge set, which every
/// [`SpModel`]'s tree does.
pub fn edge_cover_violations(graph: &Graph, root: &SpBlock) -> Vec<(OpId, OpId)> {
    let faults = SpAudit::new(graph, root).faults;
    faults.into_iter().map(|(u, v, _)| (u, v)).collect()
}

// ---------------------------------------------------------------------------
// The comparability decomposition.

/// Per-node reachability closure as dense bitsets (`reach[u]` has bit `v`
/// set iff a directed path `u -> v` exists).
fn reachability(graph: &Graph) -> Vec<Vec<u64>> {
    let n = graph.len();
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    let order = graph.topo_order();
    for &u in order.iter().rev() {
        let mut acc = std::mem::take(&mut reach[u.index()]);
        for &v in graph.succs(u) {
            let vi = v.index();
            acc[vi / 64] |= 1 << (vi % 64);
            for (a, b) in acc.iter_mut().zip(&reach[vi]) {
                *a |= *b;
            }
        }
        reach[u.index()] = acc;
    }
    reach
}

struct Decomposer<'g> {
    graph: &'g Graph,
    reach: Vec<Vec<u64>>,
    /// Topological position per operator (Kahn order — deterministic).
    pos: Vec<usize>,
    /// Whether every recursion bottomed out without the level-chain
    /// fallback.
    exact: bool,
}

/// Decomposes a graph into a valid SP tree, returning `(tree, exact)`;
/// `exact` is false iff some irreducible component was laid out as a
/// level chain (SP-ization).
fn decompose(graph: &Graph) -> (SpBlock, bool) {
    let order = graph.topo_order();
    let mut pos = vec![0usize; graph.len()];
    for (i, &op) in order.iter().enumerate() {
        pos[op.index()] = i;
    }
    let mut d = Decomposer {
        graph,
        reach: reachability(graph),
        pos,
        exact: true,
    };
    let tree = d.subset(order).normalize();
    (tree, d.exact)
}

impl Decomposer<'_> {
    fn reaches(&self, u: OpId, v: OpId) -> bool {
        let vi = v.index();
        self.reach[u.index()][vi / 64] & (1 << (vi % 64)) != 0
    }

    fn comparable(&self, u: OpId, v: OpId) -> bool {
        self.reaches(u, v) || self.reaches(v, u)
    }

    /// Decomposes one sub-DAG (`subset` sorted by topological position).
    fn subset(&mut self, subset: Vec<OpId>) -> SpBlock {
        if subset.len() == 1 {
            return SpBlock::Leaf(subset[0]);
        }
        let is_separator: Vec<bool> = subset
            .iter()
            .map(|&u| subset.iter().all(|&v| v == u || self.comparable(u, v)))
            .collect();
        let separators: Vec<OpId> = subset
            .iter()
            .zip(&is_separator)
            .filter_map(|(&u, &sep)| sep.then_some(u))
            .collect();
        if separators.len() == subset.len() {
            // Totally ordered: a plain chain in topological order.
            return SpBlock::Chain(subset.into_iter().map(SpBlock::Leaf).collect());
        }
        if separators.is_empty() {
            let components = self.components(&subset);
            if components.len() == 1 {
                // Irreducible: SP-ize as a level chain.
                self.exact = false;
                return self.level_chain(subset);
            }
            let branches = components.into_iter().map(|c| self.subset(c)).collect();
            return SpBlock::Branches(branches);
        }
        // Segment index per non-separator = number of separators that
        // reach it (every node is comparable with every separator, so
        // this fully orders nodes relative to the separator chain).
        let mut segments: Vec<Vec<OpId>> = vec![Vec::new(); separators.len() + 1];
        for (&u, &sep) in subset.iter().zip(&is_separator) {
            if !sep {
                let g = separators.iter().filter(|&&s| self.reaches(s, u)).count();
                segments[g].push(u);
            }
        }
        let mut children = Vec::new();
        for (g, segment) in segments.into_iter().enumerate() {
            if !segment.is_empty() {
                let components = self.components(&segment);
                if components.len() == 1 {
                    children.push(self.subset(segment));
                } else {
                    children.push(SpBlock::Branches(
                        components.into_iter().map(|c| self.subset(c)).collect(),
                    ));
                }
            }
            if g < separators.len() {
                children.push(SpBlock::Leaf(separators[g]));
            }
        }
        SpBlock::Chain(children)
    }

    /// Undirected connected components within `subset`, each sorted by
    /// topological position, ordered by their first member.
    fn components(&self, subset: &[OpId]) -> Vec<Vec<OpId>> {
        let mut member = vec![false; self.graph.len()];
        for &u in subset {
            member[u.index()] = true;
        }
        let mut visited = vec![false; self.graph.len()];
        let mut components = Vec::new();
        for &start in subset {
            if visited[start.index()] {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = vec![start];
            visited[start.index()] = true;
            while let Some(u) = queue.pop() {
                component.push(u);
                for &v in self.graph.preds(u).iter().chain(self.graph.succs(u)) {
                    if member[v.index()] && !visited[v.index()] {
                        visited[v.index()] = true;
                        queue.push(v);
                    }
                }
            }
            component.sort_by_key(|&u| self.pos[u.index()]);
            components.push(component);
        }
        components
    }

    /// Lays an irreducible component out as a chain of longest-path
    /// levels: same-level nodes are independent (an edge between them
    /// would separate their levels), cross-level edges flow forward, so
    /// the result is always a valid SP block over the component.
    fn level_chain(&self, subset: Vec<OpId>) -> SpBlock {
        let mut member = vec![false; self.graph.len()];
        for &u in &subset {
            member[u.index()] = true;
        }
        let mut level = vec![0usize; self.graph.len()];
        let mut depth = 0usize;
        for &u in &subset {
            // `subset` is topologically sorted, so predecessors are done.
            let l = self
                .graph
                .preds(u)
                .iter()
                .filter(|p| member[p.index()])
                .map(|p| level[p.index()] + 1)
                .max()
                .unwrap_or(0);
            level[u.index()] = l;
            depth = depth.max(l);
        }
        let mut tiers: Vec<Vec<SpBlock>> = vec![Vec::new(); depth + 1];
        for &u in &subset {
            tiers[level[u.index()]].push(SpBlock::Leaf(u));
        }
        SpBlock::Chain(tiers.into_iter().map(SpBlock::Branches).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::op::OpKind;
    use crate::shape::Shape;

    /// x -> {a | b} -> cat -> loss: a true-SP fork-join.
    fn fork_join() -> (Graph, SpBlock) {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(8));
        let a = b.linear("a", x, 8, false).unwrap();
        let c = b.linear("b", x, 8, false).unwrap();
        let cat = b.op("cat", OpKind::Concat, &[a, c]).unwrap();
        let l = b.loss("loss", &[cat]);
        let g = b.finish().unwrap();
        let tree = SpBlock::Chain(vec![
            SpBlock::Leaf(x),
            SpBlock::Branches(vec![SpBlock::Leaf(a), SpBlock::Leaf(c)]),
            SpBlock::Leaf(cat),
            SpBlock::Leaf(l),
        ]);
        (g, tree)
    }

    /// A genuinely non-SP graph (an N-shaped dependency plus a skip):
    /// x -> {a, b}; c = linear(a); d = cat(a, b); d2 = linear(d);
    /// e = cat(c, d2) -> loss. `a` and `b` are incomparable yet share a
    /// consumer, so no separator splits the middle.
    fn n_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(8));
        let a = b.linear("a", x, 8, false).unwrap();
        let bb = b.linear("b", x, 8, false).unwrap();
        let c = b.linear("c", a, 8, false).unwrap();
        let d = b.op("d", OpKind::Concat, &[a, bb]).unwrap();
        let d2 = b.linear("d2", d, 8, false).unwrap();
        let e = b.op("e", OpKind::Concat, &[c, d2]).unwrap();
        b.loss("loss", &[e]);
        b.finish().unwrap()
    }

    #[test]
    fn recognition_recovers_a_fork_join_exactly() {
        let (g, hand) = fork_join();
        let recovered = recognize(&g).expect("fork-join is SP");
        assert_eq!(recovered, hand.normalize());
        let model = plan_dag("fj", g, &DagOptions::default()).unwrap();
        assert_eq!(model.path(), PlanPath::ExactSp);
    }

    #[test]
    fn recognition_handles_plain_chains() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(4));
        let h = b.linear("h", x, 4, false).unwrap();
        b.loss("loss", &[h]);
        let g = b.finish().unwrap();
        let tree = recognize(&g).expect("a chain is SP");
        assert!(matches!(tree, SpBlock::Chain(ref c) if c.len() == 3));
    }

    #[test]
    fn non_sp_graph_is_sp_ized_with_exact_distortion() {
        let g = n_graph();
        assert!(recognize(&g).is_none(), "the N graph must not be SP");
        let model = plan_dag("n", g, &DagOptions::default()).unwrap();
        let PlanPath::SpIzed { distortion } = model.path() else {
            panic!("expected SpIzed, got {:?}", model.path());
        };
        // The only skip edge is c -> e (c sits one level below d2):
        // 8 features * 4 bytes * gap 1.
        assert_eq!(distortion, 32);
        assert_eq!(distortion, transit_volume(model.graph(), model.root()));
        assert!(edge_cover_violations(model.graph(), model.root()).is_empty());
    }

    #[test]
    fn distortion_budget_forces_clustering() {
        let g = n_graph();
        let ops = g.len() as u32;
        let options = DagOptions::default()
            .with_distortion_budget(0)
            .with_unit_ops(3);
        let model = plan_dag("n", g, &options).unwrap();
        assert_eq!(
            model.path(),
            PlanPath::Clustered {
                units: ops.div_ceil(3)
            }
        );
        // The flat chain still admits every edge.
        assert!(edge_cover_violations(model.graph(), model.root()).is_empty());
        assert!(model.graph().is_topo_order(&model.linearize()));
    }

    /// The clustered unit count is `ceil(ops / unit_ops)`, which lies in
    /// `1..=ops` for every positive `unit_ops`, so a plan that records the
    /// model's path carries a sane count.
    #[test]
    fn clustered_unit_counts_lie_in_one_to_ops() {
        use crate::zoo::{gnn_pipe_graph, GnnPipeConfig};
        let graphs = [
            gnn_pipe_graph(&GnnPipeConfig::tiny()),
            gnn_pipe_graph(&GnnPipeConfig::default()),
            n_graph(),
        ];
        for graph in graphs {
            let ops = graph.len() as u32;
            for unit_ops in [1, 3, 8, u32::MAX] {
                let options = DagOptions::default()
                    .with_distortion_budget(0)
                    .with_unit_ops(unit_ops);
                let model = plan_dag("g", graph.clone(), &options).unwrap();
                let PlanPath::Clustered { units } = model.path() else {
                    panic!("budget 0 must cluster, got {:?}", model.path());
                };
                assert_eq!(units, ops.div_ceil(unit_ops), "unit_ops {unit_ops}");
                assert!((1..=ops).contains(&units), "{units} units, {ops} ops");
            }
        }
    }

    #[test]
    fn edge_cover_violations_flag_cross_branch_trees() {
        let (g, _) = fork_join();
        // Dependent ops x (0) and a (1) forced into sibling branches.
        let bad = SpBlock::Chain(vec![
            SpBlock::Branches(vec![SpBlock::Leaf(OpId(0)), SpBlock::Leaf(OpId(1))]),
            SpBlock::Leaf(OpId(2)),
            SpBlock::Leaf(OpId(3)),
            SpBlock::Leaf(OpId(4)),
        ]);
        let violations = edge_cover_violations(&g, &bad);
        assert!(violations.contains(&(OpId(0), OpId(1))));
    }

    #[test]
    fn transit_volume_counts_chain_skips() {
        let (g, tree) = fork_join();
        assert_eq!(transit_volume(&g, &tree.clone().normalize()), 0);
        // Flat chain: the x->b edge now skips over a (x's 32-byte output
        // transits one position), and a->cat skips b.
        let flat = SpBlock::Chain((0..5).map(|i| SpBlock::Leaf(OpId(i))).collect());
        assert_eq!(transit_volume(&g, &flat), 64);
    }

    #[test]
    fn plan_path_displays() {
        assert_eq!(PlanPath::ExactSp.to_string(), "exact-sp");
        assert_eq!(
            PlanPath::SpIzed { distortion: 7 }.to_string(),
            "sp-ized (distortion 7 bytes)"
        );
        assert_eq!(
            PlanPath::Clustered { units: 3 }.to_string(),
            "clustered (3 units)"
        );
    }

    #[test]
    fn design_md_documents_the_ladder() {
        let design = include_str!("../../../DESIGN.md");
        for needle in [
            "## Arbitrary DAGs",
            "recognize",
            "transit_volume",
            "PlanPath::SpIzed",
            "PlanPath::Clustered",
            "distortion_budget",
            "plan-path-consistent",
        ] {
            assert!(
                design.contains(needle),
                "DESIGN.md lost its DAG-ladder coverage: missing `{needle}`"
            );
        }
    }

    #[test]
    fn readme_documents_the_non_sp_quickstart() {
        let readme = include_str!("../../../README.md");
        for needle in ["model_dag", "plan_path", "Arbitrary DAGs"] {
            assert!(
                readme.contains(needle),
                "README.md lost its non-SP quickstart: missing `{needle}`"
            );
        }
    }
}
