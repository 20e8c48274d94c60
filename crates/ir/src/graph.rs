//! The DNN computation graph: a DAG of operators with inferred shapes.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::op::{OpKind, BYTES_PER_ELEMENT};
use crate::shape::Shape;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of an operator within a [`Graph`].
///
/// Ids are dense indices assigned in insertion order, so they can be used to
/// index side tables (`Vec`s) keyed by operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A single operator instance in a [`Graph`].
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator's id.
    pub id: OpId,
    /// Human-readable name (unique within the graph by construction).
    pub name: String,
    /// What the operator computes.
    pub kind: OpKind,
    /// Inferred per-sample output shape.
    pub out_shape: Shape,
}

/// The per-sample numbers every cost query reads for one operator,
/// computed once by [`GraphBuilder`] from the operator's kind and its
/// input shapes; [`Graph`]'s per-op accessors read them.
#[derive(Debug, Clone)]
struct OpStatics {
    forward_flops: u64,
    backward_flops: u64,
    input_bytes: u64,
    output_bytes: u64,
    param_bytes: u64,
    stashed_bytes: u64,
}

impl OpStatics {
    fn new(kind: &OpKind, in_shapes: &[&Shape], out_shape: &Shape) -> OpStatics {
        OpStatics {
            forward_flops: kind.forward_flops(in_shapes),
            backward_flops: kind.backward_flops(in_shapes),
            input_bytes: in_shapes
                .iter()
                .map(|s| s.numel() as u64 * BYTES_PER_ELEMENT)
                .sum(),
            output_bytes: out_shape.numel() as u64 * BYTES_PER_ELEMENT,
            param_bytes: kind.param_count() * BYTES_PER_ELEMENT,
            stashed_bytes: kind.stashed_bytes(in_shapes),
        }
    }
}

/// Errors raised while constructing or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operator's inputs were incompatible with its kind.
    ShapeMismatch {
        /// Operator name being added.
        op: String,
        /// Human-readable explanation from shape inference.
        reason: String,
    },
    /// An edge referenced an operator id not present in the graph.
    UnknownOp(OpId),
    /// The graph contains a directed cycle.
    Cyclic,
    /// The graph has no [`OpKind::Loss`] sink or has more than one.
    BadSink(usize),
    /// A non-`Input` operator has no predecessors.
    DanglingOp(OpId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ShapeMismatch { op, reason } => {
                write!(f, "shape mismatch at operator `{op}`: {reason}")
            }
            GraphError::UnknownOp(id) => write!(f, "unknown operator id {id}"),
            GraphError::Cyclic => write!(f, "computation graph contains a cycle"),
            GraphError::BadSink(n) => {
                write!(f, "expected exactly one Loss sink, found {n}")
            }
            GraphError::DanglingOp(id) => {
                write!(f, "operator {id} has no inputs but is not an Input")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic computation graph over [`Node`]s.
///
/// Graphs are built through [`GraphBuilder`], which performs shape inference
/// and guarantees acyclicity by construction (edges always point from
/// already-inserted operators to new ones).
///
/// # Examples
///
/// ```
/// use gp_ir::{GraphBuilder, Shape};
///
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", Shape::vector(32));
/// let h = b.linear("fc1", x, 64, true)?;
/// let y = b.loss("loss", &[h]);
/// let g = b.finish()?;
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.node(y).out_shape, Shape::vector(1));
/// # Ok::<(), gp_ir::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    preds: Vec<Vec<OpId>>,
    succs: Vec<Vec<OpId>>,
    statics: Vec<OpStatics>,
}

impl Graph {
    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: OpId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over all nodes in insertion (topological) order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Direct predecessors of `id` (its data inputs), in input order.
    pub fn preds(&self, id: OpId) -> &[OpId] {
        &self.preds[id.index()]
    }

    /// Direct successors of `id` (its consumers).
    pub fn succs(&self, id: OpId) -> &[OpId] {
        &self.succs[id.index()]
    }

    /// All directed edges `(producer, consumer)`.
    pub fn edges(&self) -> impl Iterator<Item = (OpId, OpId)> + '_ {
        self.nodes
            .iter()
            .flat_map(move |n| self.succs[n.id.index()].iter().map(move |&s| (n.id, s)))
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Graph sources (operators without predecessors; all `Input`s).
    pub fn sources(&self) -> Vec<OpId> {
        self.nodes
            .iter()
            .filter(|n| self.preds[n.id.index()].is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// The unique sink (the `Loss` operator).
    pub fn sink(&self) -> OpId {
        self.nodes
            .iter()
            .find(|n| matches!(n.kind, OpKind::Loss))
            .map(|n| n.id)
            .expect("validated graph has a Loss sink")
    }

    // The per-op numbers below were computed when the graph was built
    // (`OpStatics`), so reading them walks no shapes and allocates nothing.

    /// Forward FLOPs of operator `id` for one sample.
    #[inline]
    pub fn forward_flops(&self, id: OpId) -> u64 {
        self.statics[id.index()].forward_flops
    }

    /// Backward FLOPs of operator `id` for one sample.
    #[inline]
    pub fn backward_flops(&self, id: OpId) -> u64 {
        self.statics[id.index()].backward_flops
    }

    /// Bytes of operator `id`'s inputs (its predecessors' outputs) per
    /// sample.
    #[inline]
    pub fn input_bytes(&self, id: OpId) -> u64 {
        self.statics[id.index()].input_bytes
    }

    /// Bytes of operator `id`'s output activation per sample.
    #[inline]
    pub fn output_bytes(&self, id: OpId) -> u64 {
        self.statics[id.index()].output_bytes
    }

    /// Bytes of operator `id`'s learnable parameters.
    #[inline]
    pub fn param_bytes(&self, id: OpId) -> u64 {
        self.statics[id.index()].param_bytes
    }

    /// Activation bytes operator `id` must stash per in-flight sample.
    #[inline]
    pub fn stashed_bytes(&self, id: OpId) -> u64 {
        self.statics[id.index()].stashed_bytes
    }

    /// Total learnable parameters of the whole graph.
    pub fn total_params(&self) -> u64 {
        self.nodes.iter().map(|n| n.kind.param_count()).sum()
    }

    /// A topological order of all operator ids (Kahn's algorithm, stable by
    /// id so the result is deterministic).
    pub fn topo_order(&self) -> Vec<OpId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: VecDeque<OpId> = self
            .nodes
            .iter()
            .filter(|n| indeg[n.id.index()] == 0)
            .map(|n| n.id)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in self.succs(id) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        order
    }

    /// Checks whether `order` is a valid topological order covering every
    /// operator exactly once.
    pub fn is_topo_order(&self, order: &[OpId]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.len()];
        for (i, &id) in order.iter().enumerate() {
            if id.index() >= self.len() || pos[id.index()] != usize::MAX {
                return false;
            }
            pos[id.index()] = i;
        }
        self.edges().all(|(u, v)| pos[u.index()] < pos[v.index()])
    }

    /// Checks that `ops` is a *convex* subgraph: for every pair of member
    /// operators, every directed path between them stays inside the set
    /// (condition C1 of the GraphPipe problem formulation, section 3).
    pub fn is_convex(&self, ops: &[OpId]) -> bool {
        let mut member = vec![false; self.len()];
        for &id in ops {
            member[id.index()] = true;
        }
        // A set S is convex iff no path leaves S and re-enters it. Walk
        // forward from every boundary-exiting edge; if we can re-reach S,
        // the set is not convex.
        let mut outside_reachable = vec![false; self.len()];
        let mut queue: VecDeque<OpId> = VecDeque::new();
        for &id in ops {
            for &s in self.succs(id) {
                if !member[s.index()] && !outside_reachable[s.index()] {
                    outside_reachable[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            for &s in self.succs(id) {
                if member[s.index()] {
                    return false;
                }
                if !outside_reachable[s.index()] {
                    outside_reachable[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        true
    }

    /// Validates global invariants: acyclicity, a unique `Loss` sink, and no
    /// dangling non-input operators.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`].
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.topo_order().len() != self.len() {
            return Err(GraphError::Cyclic);
        }
        let sinks = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Loss))
            .count();
        if sinks != 1 {
            return Err(GraphError::BadSink(sinks));
        }
        for n in &self.nodes {
            if self.preds[n.id.index()].is_empty() && !matches!(n.kind, OpKind::Input) {
                return Err(GraphError::DanglingOp(n.id));
            }
        }
        Ok(())
    }
}

/// Incremental [`Graph`] constructor with shape inference.
///
/// Operators must be added after their inputs, which makes cycles impossible
/// by construction. See [`Graph`] for an end-to-end example.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    preds: Vec<Vec<OpId>>,
    succs: Vec<Vec<OpId>>,
    statics: Vec<OpStatics>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operators added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no operators have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a graph input producing per-sample tensors of `shape`.
    pub fn input(&mut self, name: impl Into<String>, shape: Shape) -> OpId {
        let statics = OpStatics::new(&OpKind::Input, &[], &shape);
        self.push(name.into(), OpKind::Input, shape, &[], statics)
    }

    /// Adds an arbitrary operator with the given inputs, inferring its
    /// output shape.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeMismatch`] when the input shapes are
    /// incompatible with `kind`, or [`GraphError::UnknownOp`] for bad ids.
    pub fn op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: &[OpId],
    ) -> Result<OpId, GraphError> {
        let name = name.into();
        for &i in inputs {
            if i.index() >= self.nodes.len() {
                return Err(GraphError::UnknownOp(i));
            }
        }
        let in_shapes: Vec<&Shape> = inputs
            .iter()
            .map(|&i| &self.nodes[i.index()].out_shape)
            .collect();
        let out_shape =
            kind.infer_output_shape(&in_shapes)
                .map_err(|reason| GraphError::ShapeMismatch {
                    op: name.clone(),
                    reason,
                })?;
        let statics = OpStatics::new(&kind, &in_shapes, &out_shape);
        Ok(self.push(name, kind, out_shape, inputs, statics))
    }

    /// Convenience: adds a [`OpKind::Linear`] layer.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures, e.g. when `input`'s innermost
    /// dimension disagrees with the inferred `in_features`.
    pub fn linear(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        out_features: usize,
        bias: bool,
    ) -> Result<OpId, GraphError> {
        let in_features = self.nodes[input.index()].out_shape.last_dim();
        self.op(
            name,
            OpKind::Linear {
                in_features,
                out_features,
                bias,
            },
            &[input],
        )
    }

    /// Convenience: adds the unique [`OpKind::Loss`] sink.
    pub fn loss(&mut self, name: impl Into<String>, inputs: &[OpId]) -> OpId {
        let shapes: Vec<&Shape> = inputs
            .iter()
            .map(|&i| &self.nodes[i.index()].out_shape)
            .collect();
        let shape = OpKind::Loss
            .infer_output_shape(&shapes)
            .expect("Loss accepts any non-empty inputs");
        let statics = OpStatics::new(&OpKind::Loss, &shapes, &shape);
        self.push(name.into(), OpKind::Loss, shape, inputs, statics)
    }

    fn push(
        &mut self,
        name: String,
        kind: OpKind,
        out_shape: Shape,
        inputs: &[OpId],
        statics: OpStatics,
    ) -> OpId {
        let id = OpId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name,
            kind,
            out_shape,
        });
        self.statics.push(statics);
        self.preds.push(inputs.to_vec());
        self.succs.push(Vec::new());
        for &i in inputs {
            self.succs[i.index()].push(id);
        }
        id
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if validation fails (see
    /// [`Graph::validate`]).
    pub fn finish(self) -> Result<Graph, GraphError> {
        let g = Graph {
            nodes: self.nodes,
            preds: self.preds,
            succs: self.succs,
            statics: self.statics,
        };
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Nonlinearity;

    fn diamond() -> Graph {
        // x -> a -> concat -> loss
        //   \-> b -/
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(8));
        let a = b.linear("a", x, 8, false).unwrap();
        let c = b.linear("b", x, 8, false).unwrap();
        let cat = b.op("cat", OpKind::Concat, &[a, c]).unwrap();
        b.loss("loss", &[cat]);
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_validates_diamond() {
        let g = diamond();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.sources(), vec![OpId(0)]);
        assert_eq!(g.sink(), OpId(4));
        assert_eq!(g.node(OpId(3)).out_shape, Shape::vector(16));
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let order = g.topo_order();
        assert!(g.is_topo_order(&order));
        // Permuting a dependent pair breaks it.
        let mut bad = order.clone();
        bad.swap(0, 4);
        assert!(!g.is_topo_order(&bad));
        // Missing nodes break it too.
        assert!(!g.is_topo_order(&order[1..]));
    }

    #[test]
    fn convexity() {
        let g = diamond();
        // {a} alone is convex.
        assert!(g.is_convex(&[OpId(1)]));
        // {x, cat} is not convex: paths x->a->cat leave the set.
        assert!(!g.is_convex(&[OpId(0), OpId(3)]));
        // {x, a, b, cat} is convex.
        assert!(g.is_convex(&[OpId(0), OpId(1), OpId(2), OpId(3)]));
        // The whole graph is convex.
        let all: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        assert!(g.is_convex(&all));
    }

    #[test]
    fn missing_loss_is_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(4));
        b.linear("fc", x, 4, false).unwrap();
        assert_eq!(b.finish().unwrap_err(), GraphError::BadSink(0));
    }

    #[test]
    fn two_losses_are_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(4));
        b.loss("l1", &[x]);
        b.loss("l2", &[x]);
        assert_eq!(b.finish().unwrap_err(), GraphError::BadSink(2));
    }

    #[test]
    fn shape_mismatch_reports_op_name() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(4));
        let err = b
            .op(
                "bad",
                OpKind::Linear {
                    in_features: 99,
                    out_features: 4,
                    bias: false,
                },
                &[x],
            )
            .unwrap_err();
        match err {
            GraphError::ShapeMismatch { op, .. } => assert_eq!(op, "bad"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_op_is_rejected() {
        let mut b = GraphBuilder::new();
        let err = b
            .op("bad", OpKind::Activation(Nonlinearity::Relu), &[OpId(7)])
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownOp(OpId(7)));
    }

    #[test]
    fn flop_accessors_are_consistent() {
        let g = diamond();
        assert_eq!(g.total_params(), 2 * 8 * 8);
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::BadSink(2);
        assert!(e.to_string().contains("exactly one Loss"));
    }
}
