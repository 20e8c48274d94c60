//! Series-parallel structure of a computation graph.
//!
//! GraphPipe exploits the observation that "most DNNs structurally reflect
//! series-parallel graphs" (section 5): its partitioner works on a recursive
//! series-parallel decomposition rather than the raw DAG. This module defines
//! that decomposition as an explicit tree ([`SpBlock`]) paired with the graph
//! it describes ([`SpModel`]), and checks that the tree is a faithful
//! description: every operator appears exactly once and every data edge runs
//! forward along the lowest `Chain` holding both endpoints. One walk, the
//! crate-private `SpAudit`, checks it. Every model is built through it
//! once: [`SpModel::new`] turns its first defect into an [`SpError`], and
//! the DAG ladder records its transit volume as the SP-ized distortion. A
//! model has no setters, so an `SpModel` is valid by construction and
//! nothing downstream re-audits it.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::graph::{Graph, OpId};
use crate::identity;
use std::fmt;
use std::sync::OnceLock;

/// One node of the series-parallel decomposition tree.
///
/// * [`SpBlock::Leaf`] — a single operator;
/// * [`SpBlock::Chain`] — children execute in series (data flows from each
///   child into the next);
/// * [`SpBlock::Branches`] — children are computationally independent and
///   may execute concurrently (the structure GPP exploits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpBlock {
    /// A single operator.
    Leaf(OpId),
    /// Sequential composition of blocks.
    Chain(Vec<SpBlock>),
    /// Parallel (independent) composition of blocks.
    Branches(Vec<SpBlock>),
}

impl SpBlock {
    /// All operator ids in this block, in depth-first (series) order.
    ///
    /// For a valid [`SpModel`] this order is a topological order of the
    /// sub-DAG, and for the root block it is exactly the linearization the
    /// SPP baselines (PipeDream/Piper-style) consume.
    pub fn ops(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        self.collect_ops(&mut out);
        out
    }

    fn collect_ops(&self, out: &mut Vec<OpId>) {
        match self {
            SpBlock::Leaf(id) => out.push(*id),
            SpBlock::Chain(items) | SpBlock::Branches(items) => {
                for item in items {
                    item.collect_ops(out);
                }
            }
        }
    }

    /// Number of `Branches` nodes in this block (a rough measure of the
    /// parallel structure available to GPP).
    pub fn branch_points(&self) -> usize {
        match self {
            SpBlock::Leaf(_) => 0,
            SpBlock::Chain(items) => items.iter().map(SpBlock::branch_points).sum(),
            SpBlock::Branches(items) => 1 + items.iter().map(SpBlock::branch_points).sum::<usize>(),
        }
    }

    /// Flattens nested chains/branches and unwraps singleton composites.
    ///
    /// Normalized trees satisfy: no `Chain` directly contains a `Chain`, no
    /// `Branches` directly contains a `Branches`, and every composite has at
    /// least two children.
    pub fn normalize(self) -> SpBlock {
        match self {
            SpBlock::Leaf(id) => SpBlock::Leaf(id),
            SpBlock::Chain(items) => {
                let mut flat = Vec::new();
                for item in items {
                    match item.normalize() {
                        SpBlock::Chain(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    SpBlock::Chain(flat)
                }
            }
            SpBlock::Branches(items) => {
                let mut flat = Vec::new();
                for item in items {
                    match item.normalize() {
                        SpBlock::Branches(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    SpBlock::Branches(flat)
                }
            }
        }
    }
}

/// How a model's series-parallel tree was obtained from its graph — the
/// fallback ladder of the arbitrary-DAG planning pipeline (see the
/// [`crate::dag`] module and DESIGN.md §"Arbitrary DAGs").
///
/// The path rides on the [`SpModel`] (and is stamped into every plan built
/// from it), so fingerprints, artifacts, and the verifier all see which
/// rung produced the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanPath {
    /// The tree represents the graph exactly: hand-authored and validated,
    /// or recovered losslessly by SP recognition.
    ExactSp,
    /// The graph is not series-parallel; an SP-ized supergraph decomposition
    /// was used instead.
    SpIzed {
        /// The distortion bound: extra activation-transit volume in bytes
        /// that the decomposition adds over the raw DAG's edges (each skip
        /// edge pays its producer's output once per chain position it
        /// crosses). [`crate::dag::plan_dag`] records it from the model's
        /// construction audit, so it equals [`crate::dag::transit_volume`]
        /// over the model's graph and tree.
        distortion: u64,
    },
    /// The graph exceeded the distortion budget; a coarse Piper-style
    /// clustering over a flat topological chain was used.
    Clustered {
        /// Number of unit-op groups the chain coarsens into
        /// (`ceil(ops / unit_ops)`).
        units: u32,
    },
}

impl fmt::Display for PlanPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanPath::ExactSp => write!(f, "exact-sp"),
            PlanPath::SpIzed { distortion } => {
                write!(f, "sp-ized (distortion {distortion} bytes)")
            }
            PlanPath::Clustered { units } => write!(f, "clustered ({units} units)"),
        }
    }
}

/// Errors raised when an [`SpBlock`] does not faithfully describe a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpError {
    /// An operator appears more than once in the tree.
    DuplicateOp(OpId),
    /// A graph operator is missing from the tree.
    MissingOp(OpId),
    /// The tree references an operator not present in the graph.
    UnknownOp(OpId),
    /// A data edge connects two different branches of a `Branches` node,
    /// so the branches are not actually independent.
    CrossBranchEdge(OpId, OpId),
    /// A data edge flows backwards within a `Chain`.
    BackwardEdge(OpId, OpId),
}

impl fmt::Display for SpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpError::DuplicateOp(id) => write!(f, "operator {id} appears twice in the SP tree"),
            SpError::MissingOp(id) => write!(f, "operator {id} is missing from the SP tree"),
            SpError::UnknownOp(id) => write!(f, "SP tree references unknown operator {id}"),
            SpError::CrossBranchEdge(u, v) => write!(
                f,
                "edge {u} -> {v} crosses between parallel branches; \
                 the model is not series-parallel as described"
            ),
            SpError::BackwardEdge(u, v) => {
                write!(f, "edge {u} -> {v} flows backwards within a chain")
            }
        }
    }
}

impl std::error::Error for SpError {}

/// A computation graph together with its validated series-parallel
/// decomposition.
///
/// # Examples
///
/// ```
/// use gp_ir::zoo;
///
/// let model = zoo::candle_uno(&zoo::CandleUnoConfig::default());
/// assert!(model.root().branch_points() >= 1);
/// let order = model.linearize();
/// assert!(model.graph().is_topo_order(&order));
/// ```
#[derive(Clone)]
pub struct SpModel {
    graph: Graph,
    root: SpBlock,
    /// Human-readable model name (e.g. `"mmt"`).
    name: String,
    /// How the tree was obtained from the graph (see [`PlanPath`]).
    path: PlanPath,
    /// Memo of [`SpModel::fingerprint`]; a clone carries it.
    fingerprint: OnceLock<u128>,
    /// Memo of [`SpModel::numbering_signature`]; a clone carries it.
    numbering: OnceLock<u64>,
}

/// Leaves the identity memos out: whether a model was hashed yet is not
/// part of what it is.
impl fmt::Debug for SpModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpModel")
            .field("graph", &self.graph)
            .field("root", &self.root)
            .field("name", &self.name)
            .field("path", &self.path)
            .finish()
    }
}

impl SpModel {
    /// Pairs a graph with its SP decomposition, validating faithfulness.
    ///
    /// The tree is normalized first (see [`SpBlock::normalize`]).
    ///
    /// # Errors
    ///
    /// Returns an [`SpError`] when the tree and graph disagree: the
    /// audit's coverage defect, else its first fault — an edge that
    /// crosses parallel branches (whichever way it runs) or flows backwards
    /// along a chain.
    pub fn new(name: impl Into<String>, graph: Graph, root: SpBlock) -> Result<Self, SpError> {
        SpModel::audited(name, graph, root, |_| PlanPath::ExactSp)
    }

    /// The one constructor: normalizes `root`, audits it against `graph`
    /// once, and reads the model's path off the audit's transit volume with
    /// `path`. [`SpModel::new`] records [`PlanPath::ExactSp`], and
    /// [`crate::dag::plan_dag`] the rung it took.
    pub(crate) fn audited(
        name: impl Into<String>,
        graph: Graph,
        root: SpBlock,
        path: impl FnOnce(u64) -> PlanPath,
    ) -> Result<Self, SpError> {
        let root = root.normalize();
        let audit = SpAudit::new(&graph, &root);
        if let Some(defect) = audit.coverage {
            return Err(defect);
        }
        if let Some(&(u, v, fault)) = audit.faults.first() {
            return Err(match fault {
                EdgeFault::CrossBranch => SpError::CrossBranchEdge(u, v),
                // An uncovered endpoint is a coverage defect, returned above.
                _ => SpError::BackwardEdge(u, v),
            });
        }
        Ok(SpModel {
            graph,
            root,
            name: name.into(),
            path: path(audit.transit_volume),
            fingerprint: OnceLock::new(),
            numbering: OnceLock::new(),
        })
    }

    /// Takes the model apart into its name and graph, for the next rung of
    /// [`crate::dag::plan_dag`].
    pub(crate) fn into_parts(self) -> (String, Graph) {
        (self.name, self.graph)
    }

    /// The underlying computation graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The root of the series-parallel tree.
    pub fn root(&self) -> &SpBlock {
        &self.root
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How the SP tree was obtained from the graph ([`PlanPath::ExactSp`]
    /// for hand-authored or exactly recognized trees).
    pub fn path(&self) -> PlanPath {
        self.path
    }

    /// The linearization used by sequential-pipeline baselines: the SP tree's
    /// depth-first operator order, which flattens parallel branches one after
    /// another exactly like the "imaginary linear dependencies" of Figure 2.
    pub fn linearize(&self) -> Vec<OpId> {
        self.root.ops()
    }

    /// The model's canonical 128-bit fingerprint: graph structure (WL
    /// refined, so independent of node-insertion order and operator names),
    /// SP decomposition, and [`PlanPath`] (see the `identity` module docs).
    ///
    /// Computed on the first call and memoized, so every later call, and
    /// every clone of an already-hashed model, reads it for free.
    pub fn fingerprint(&self) -> u128 {
        *self
            .fingerprint
            .get_or_init(|| identity::model_digest(self))
    }

    /// The order-sensitive signature of the graph's concrete numbering:
    /// equal only for identical labelled graphs, so it guards serving a
    /// cached plan (whose stage op lists are raw ids) to a renumbered
    /// model that shares its [`fingerprint`](Self::fingerprint).
    ///
    /// Memoized like [`SpModel::fingerprint`].
    pub fn numbering_signature(&self) -> u64 {
        *self
            .numbering
            .get_or_init(|| identity::numbering_signature(&self.graph))
    }
}

/// Why an SP tree does not admit a data edge (see [`SpAudit::faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeFault {
    /// An endpoint is missing from the tree.
    Uncovered,
    /// The endpoints' lowest common ancestor is a `Branches` node.
    CrossBranch,
    /// The consumer comes first along the endpoints' lowest common `Chain`.
    Backward,
}

/// One walk of an SP tree against its graph's operators and data edges.
///
/// It places each operator at its tree position and records the first
/// coverage defect. It classifies each data edge the tree does not admit,
/// and sums the transit volume of the edges it does admit. A tree faithful
/// to its graph has no coverage defect and no fault.
#[derive(Debug)]
pub(crate) struct SpAudit {
    /// The first coverage defect: an unknown or duplicate leaf in walk
    /// order (depth first, last child first), else the lowest-numbered
    /// operator missing from the tree.
    pub(crate) coverage: Option<SpError>,
    /// Every data edge the tree does not admit, in [`Graph::edges`] order.
    pub(crate) faults: Vec<(OpId, OpId, EdgeFault)>,
    /// Bytes of activation transit the tree adds over the graph: each
    /// admitted edge whose endpoints sit `gap` positions apart under their
    /// lowest common `Chain` carries its producer's output across the
    /// `gap - 1` positions between them (see [`crate::dag::transit_volume`]).
    pub(crate) transit_volume: u64,
}

impl SpAudit {
    /// Walks `root` against `graph` once.
    pub(crate) fn new(graph: &Graph, root: &SpBlock) -> Self {
        // Each operator's position: the steps from the root, each naming
        // whether it leaves a `Chain` and which child it takes. A duplicate
        // keeps the position the walk meets first.
        let mut position: Vec<Option<Vec<(bool, u32)>>> = vec![None; graph.len()];
        let mut coverage = None;
        let mut stack = vec![(root, Vec::new())];
        while let Some((block, path)) = stack.pop() {
            match block {
                SpBlock::Leaf(id) => {
                    let defect = match position.get_mut(id.index()) {
                        None => Some(SpError::UnknownOp(*id)),
                        Some(Some(_)) => Some(SpError::DuplicateOp(*id)),
                        Some(slot) => {
                            *slot = Some(path);
                            None
                        }
                    };
                    coverage = coverage.or(defect);
                }
                SpBlock::Chain(items) | SpBlock::Branches(items) => {
                    let chain = matches!(block, SpBlock::Chain(_));
                    for (i, item) in items.iter().enumerate() {
                        let mut p = path.clone();
                        p.push((chain, i as u32));
                        stack.push((item, p));
                    }
                }
            }
        }
        coverage = coverage.or_else(|| {
            let missing = graph.nodes().find(|n| position[n.id.index()].is_none());
            missing.map(|n| SpError::MissingOp(n.id))
        });
        let (mut faults, mut transit_volume) = (Vec::new(), 0);
        for (u, v) in graph.edges() {
            let (Some(pu), Some(pv)) = (&position[u.index()], &position[v.index()]) else {
                faults.push((u, v, EdgeFault::Uncovered));
                continue;
            };
            // Two distinct leaves: the paths part at the endpoints' lowest
            // common ancestor, in the children that hold them.
            let depth = pu.iter().zip(pv).take_while(|(a, b)| a == b).count();
            let ((chain, su), (_, sv)) = (pu[depth], pv[depth]);
            if !chain {
                faults.push((u, v, EdgeFault::CrossBranch));
            } else if su > sv {
                faults.push((u, v, EdgeFault::Backward));
            } else {
                transit_volume += graph.node(u).output_bytes() * u64::from(sv - su - 1);
            }
        }
        SpAudit {
            coverage,
            faults,
            transit_volume,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::op::OpKind;
    use crate::shape::Shape;

    /// x -> {a | b} -> cat -> loss, as graph + SP tree.
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

    #[test]
    fn valid_model_roundtrips() {
        let (g, tree) = fork_join();
        let m = SpModel::new("forkjoin", g, tree).unwrap();
        assert_eq!(m.root().ops().len(), 5);
        assert_eq!(m.root().branch_points(), 1);
        let lin = m.linearize();
        assert!(m.graph().is_topo_order(&lin));
    }

    #[test]
    fn duplicate_op_rejected() {
        let (g, _) = fork_join();
        let tree = SpBlock::Chain(vec![
            SpBlock::Leaf(OpId(0)),
            SpBlock::Leaf(OpId(0)),
            SpBlock::Leaf(OpId(1)),
            SpBlock::Leaf(OpId(2)),
            SpBlock::Leaf(OpId(3)),
            SpBlock::Leaf(OpId(4)),
        ]);
        assert_eq!(
            SpModel::new("bad", g, tree).unwrap_err(),
            SpError::DuplicateOp(OpId(0))
        );
    }

    #[test]
    fn missing_op_rejected() {
        let (g, _) = fork_join();
        let tree = SpBlock::Chain(vec![
            SpBlock::Leaf(OpId(0)),
            SpBlock::Leaf(OpId(1)),
            SpBlock::Leaf(OpId(3)),
            SpBlock::Leaf(OpId(4)),
        ]);
        assert_eq!(
            SpModel::new("bad", g, tree).unwrap_err(),
            SpError::MissingOp(OpId(2))
        );
    }

    #[test]
    fn cross_branch_edge_rejected() {
        // Place dependent ops a (x->a) and cat (a->cat) in parallel branches.
        let (g, _) = fork_join();
        let tree = SpBlock::Chain(vec![
            SpBlock::Leaf(OpId(0)),
            SpBlock::Branches(vec![
                SpBlock::Chain(vec![SpBlock::Leaf(OpId(1)), SpBlock::Leaf(OpId(3))]),
                SpBlock::Leaf(OpId(2)),
            ]),
            SpBlock::Leaf(OpId(4)),
        ]);
        assert_eq!(
            SpModel::new("bad", g, tree).unwrap_err(),
            SpError::CrossBranchEdge(OpId(2), OpId(3))
        );
    }

    #[test]
    fn backward_edge_rejected() {
        let (g, _) = fork_join();
        // cat before its producers in the chain.
        let tree = SpBlock::Chain(vec![
            SpBlock::Leaf(OpId(0)),
            SpBlock::Leaf(OpId(3)),
            SpBlock::Branches(vec![SpBlock::Leaf(OpId(1)), SpBlock::Leaf(OpId(2))]),
            SpBlock::Leaf(OpId(4)),
        ]);
        assert!(matches!(
            SpModel::new("bad", g, tree).unwrap_err(),
            SpError::BackwardEdge(..)
        ));
    }

    #[test]
    fn normalize_flattens_and_unwraps() {
        let t = SpBlock::Chain(vec![
            SpBlock::Chain(vec![SpBlock::Leaf(OpId(0)), SpBlock::Leaf(OpId(1))]),
            SpBlock::Branches(vec![SpBlock::Branches(vec![
                SpBlock::Leaf(OpId(2)),
                SpBlock::Leaf(OpId(3)),
            ])]),
        ]);
        assert_eq!(
            t.normalize(),
            SpBlock::Chain(vec![
                SpBlock::Leaf(OpId(0)),
                SpBlock::Leaf(OpId(1)),
                SpBlock::Branches(vec![SpBlock::Leaf(OpId(2)), SpBlock::Leaf(OpId(3))]),
            ])
        );
    }

    #[test]
    fn normalize_singleton_composites() {
        let t = SpBlock::Chain(vec![SpBlock::Branches(vec![SpBlock::Leaf(OpId(5))])]);
        assert_eq!(t.normalize(), SpBlock::Leaf(OpId(5)));
    }

    #[test]
    fn ops_are_depth_first() {
        let (_, tree) = fork_join();
        let ops: Vec<u32> = tree.ops().iter().map(|o| o.0).collect();
        assert_eq!(ops, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn error_display() {
        let e = SpError::CrossBranchEdge(OpId(1), OpId(2));
        assert!(e.to_string().contains("crosses between parallel branches"));
    }

    fn forkjoin_model() -> SpModel {
        let (g, tree) = fork_join();
        SpModel::new("forkjoin", g, tree).unwrap()
    }

    #[test]
    fn identity_memo_equals_a_fresh_computation() {
        let m = forkjoin_model();
        let (fp, numbering) = (m.fingerprint(), m.numbering_signature());
        assert_eq!(fp, identity::model_digest(&m));
        assert_eq!(numbering, identity::numbering_signature(m.graph()));
        assert_eq!(m.fingerprint.get(), Some(&fp));
        assert_eq!(m.numbering.get(), Some(&numbering));
    }

    #[test]
    fn a_clone_carries_the_identity_memo() {
        let m = forkjoin_model();
        assert!(m.clone().fingerprint.get().is_none());
        let (fp, numbering) = (m.fingerprint(), m.numbering_signature());
        let copy = m.clone();
        assert_eq!(copy.fingerprint.get(), Some(&fp));
        assert_eq!(copy.numbering.get(), Some(&numbering));
    }

    #[test]
    fn racing_first_calls_see_one_identity() {
        const THREADS: usize = 8;
        // A model big enough that the first calls overlap.
        let m = crate::zoo::gnn_pipe(&crate::zoo::GnnPipeConfig::default());
        let barrier = std::sync::Barrier::new(THREADS);
        let seen: Vec<(u128, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (m.fingerprint(), m.numbering_signature())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want = (
            identity::model_digest(&m),
            identity::numbering_signature(m.graph()),
        );
        assert!(seen.iter().all(|&got| got == want), "{seen:?} != {want:?}");
    }

    #[test]
    fn debug_leaves_the_identity_memo_out() {
        let m = forkjoin_model();
        let before = format!("{m:?}");
        m.fingerprint();
        assert_eq!(format!("{m:?}"), before);
    }
}
