//! Per-operator parameters, forward/backward dispatch, and the SGD update.

use gp_ir::{Graph, Node, Nonlinearity, OpId, OpKind};
use gp_tensor::ops::{self, LayerNormCache, MhaCache, MhaParams};
use gp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Learnable parameters of one operator.
#[derive(Debug, Clone)]
pub enum OpParams {
    /// Parameter-free operator.
    None,
    /// Dense layer weights.
    Linear {
        /// `[in, out]` weight matrix.
        w: Tensor,
        /// Optional `[out]` bias.
        b: Option<Tensor>,
    },
    /// Multi-head attention projections (boxed: the eight projection
    /// tensors dwarf every other variant).
    Mha(Box<MhaParams>),
    /// Layer-norm scale and shift.
    LayerNorm {
        /// `[dim]` scale.
        gamma: Tensor,
        /// `[dim]` shift.
        beta: Tensor,
    },
    /// Embedding table.
    Embedding {
        /// `[entries, dim]` table.
        table: Tensor,
    },
}

impl OpParams {
    /// Initializes parameters for an operator, deterministically seeded per
    /// operator id so all replicas (and the reference executor) agree.
    pub fn init(node: &Node, seed: u64) -> OpParams {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15 ^ node.id.0 as u64));
        match node.kind {
            OpKind::Linear {
                in_features,
                out_features,
                bias,
            } => {
                let scale = (1.0 / in_features as f32).sqrt();
                OpParams::Linear {
                    w: Tensor::rand_uniform(vec![in_features, out_features], scale, &mut rng),
                    b: bias.then(|| Tensor::zeros(vec![out_features])),
                }
            }
            OpKind::MultiHeadAttention { hidden, heads, .. } => {
                let scale = (1.0 / hidden as f32).sqrt();
                let mut mat = || Tensor::rand_uniform(vec![hidden, hidden], scale, &mut rng);
                let (wq, wk, wv, wo) = (mat(), mat(), mat(), mat());
                OpParams::Mha(Box::new(MhaParams {
                    wq,
                    wk,
                    wv,
                    wo,
                    bq: Tensor::zeros(vec![hidden]),
                    bk: Tensor::zeros(vec![hidden]),
                    bv: Tensor::zeros(vec![hidden]),
                    bo: Tensor::zeros(vec![hidden]),
                    heads,
                }))
            }
            OpKind::LayerNorm { dim } => OpParams::LayerNorm {
                gamma: Tensor::ones(vec![dim]),
                beta: Tensor::zeros(vec![dim]),
            },
            OpKind::EmbeddingBag { entries, dim, .. } => OpParams::Embedding {
                table: Tensor::rand_uniform(vec![entries, dim], 0.1, &mut rng),
            },
            _ => OpParams::None,
        }
    }

    /// Every tensor, in a fixed order per variant (a linear layer's bias
    /// last, when it has one).
    fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        let list: [Option<&Tensor>; 8] = match self {
            OpParams::None => Default::default(),
            OpParams::Linear { w, b } => [Some(w), b.as_ref(), None, None, None, None, None, None],
            OpParams::Mha(p) => [&p.wq, &p.wk, &p.wv, &p.wo, &p.bq, &p.bk, &p.bv, &p.bo].map(Some),
            OpParams::LayerNorm { gamma, beta } => {
                [Some(gamma), Some(beta), None, None, None, None, None, None]
            }
            OpParams::Embedding { table } => {
                [Some(table), None, None, None, None, None, None, None]
            }
        };
        list.into_iter().flatten()
    }

    /// [`tensors`](Self::tensors), mutably.
    fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        let list: [Option<&mut Tensor>; 8] = match self {
            OpParams::None => Default::default(),
            OpParams::Linear { w, b } => [Some(w), b.as_mut(), None, None, None, None, None, None],
            OpParams::Mha(p) => {
                let MhaParams {
                    wq,
                    wk,
                    wv,
                    wo,
                    bq,
                    bk,
                    bv,
                    bo,
                    ..
                } = &mut **p;
                [wq, wk, wv, wo, bq, bk, bv, bo].map(Some)
            }
            OpParams::LayerNorm { gamma, beta } => {
                [Some(gamma), Some(beta), None, None, None, None, None, None]
            }
            OpParams::Embedding { table } => {
                [Some(table), None, None, None, None, None, None, None]
            }
        };
        list.into_iter().flatten()
    }

    /// Checks that `other` holds the same kind of parameters.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different variant.
    fn assert_same_variant(&self, other: &OpParams) {
        assert_eq!(
            std::mem::discriminant(self),
            std::mem::discriminant(other),
            "parameter variant mismatch: {self:?} vs {other:?}"
        );
    }

    /// Pairs each of `self`'s tensors with `other`'s; a bias that only one
    /// side has is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different variant.
    fn zip_mut<'a>(
        &'a mut self,
        other: &'a OpParams,
    ) -> impl Iterator<Item = (&'a mut Tensor, &'a Tensor)> {
        self.assert_same_variant(other);
        self.tensors_mut().zip(other.tensors())
    }

    /// `self -= lr * grad` over every tensor.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different variant.
    pub fn sgd_step(&mut self, grad: &OpParams, lr: f32) {
        for (p, g) in self.zip_mut(grad) {
            p.axpy(-lr, g);
        }
    }

    /// `self += other` over every tensor (gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different variant.
    pub fn accumulate(&mut self, other: &OpParams) {
        for (a, b) in self.zip_mut(other) {
            a.axpy(1.0, b);
        }
    }

    /// Sets every element to `+0.0`, keeping the allocations.
    pub fn fill_zero(&mut self) {
        for t in self.tensors_mut() {
            t.data_mut().fill(0.0);
        }
    }

    /// A zero-valued gradient of the same structure.
    pub fn zeros_like(&self) -> OpParams {
        match self {
            OpParams::None => OpParams::None,
            OpParams::Linear { w, b } => OpParams::Linear {
                w: Tensor::zeros(w.shape().to_vec()),
                b: b.as_ref().map(|b| Tensor::zeros(b.shape().to_vec())),
            },
            OpParams::Mha(p) => OpParams::Mha(Box::new(MhaParams {
                wq: Tensor::zeros(p.wq.shape().to_vec()),
                wk: Tensor::zeros(p.wk.shape().to_vec()),
                wv: Tensor::zeros(p.wv.shape().to_vec()),
                wo: Tensor::zeros(p.wo.shape().to_vec()),
                bq: Tensor::zeros(p.bq.shape().to_vec()),
                bk: Tensor::zeros(p.bk.shape().to_vec()),
                bv: Tensor::zeros(p.bv.shape().to_vec()),
                bo: Tensor::zeros(p.bo.shape().to_vec()),
                heads: p.heads,
            })),
            OpParams::LayerNorm { gamma, beta } => OpParams::LayerNorm {
                gamma: Tensor::zeros(gamma.shape().to_vec()),
                beta: Tensor::zeros(beta.shape().to_vec()),
            },
            OpParams::Embedding { table } => OpParams::Embedding {
                table: Tensor::zeros(table.shape().to_vec()),
            },
        }
    }

    /// Largest absolute difference between two parameter sets, for
    /// equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different variant.
    pub fn max_abs_diff(&self, other: &OpParams) -> f32 {
        self.assert_same_variant(other);
        self.tensors()
            .zip(other.tensors())
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f32::max)
    }
}

/// All model parameters, indexed by operator id.
#[derive(Debug, Clone)]
pub struct ModelParams {
    per_op: Vec<OpParams>,
}

impl ModelParams {
    /// Deterministically initializes parameters for a whole graph.
    pub fn init(graph: &Graph, seed: u64) -> ModelParams {
        ModelParams {
            per_op: graph.nodes().map(|n| OpParams::init(n, seed)).collect(),
        }
    }

    /// Parameters of one operator.
    pub fn op(&self, id: OpId) -> &OpParams {
        &self.per_op[id.index()]
    }

    /// Mutable parameters of one operator.
    pub fn op_mut(&mut self, id: OpId) -> &mut OpParams {
        &mut self.per_op[id.index()]
    }

    /// A zero gradient store of the same structure.
    pub fn zeros_like(&self) -> ModelParams {
        ModelParams {
            per_op: self.per_op.iter().map(OpParams::zeros_like).collect(),
        }
    }

    /// Accumulates another gradient store into this one.
    pub fn accumulate(&mut self, other: &ModelParams) {
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.accumulate(b);
        }
    }

    /// Applies one SGD step with the given gradients.
    pub fn sgd_step(&mut self, grads: &ModelParams, lr: f32) {
        for (p, g) in self.per_op.iter_mut().zip(&grads.per_op) {
            p.sgd_step(g, lr);
        }
    }

    /// Largest parameter difference to another store.
    pub fn max_abs_diff(&self, other: &ModelParams) -> f32 {
        self.per_op
            .iter()
            .zip(&other.per_op)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f32::max)
    }
}

/// Forward-pass state an operator keeps for its backward pass.
#[derive(Debug, Clone)]
pub enum OpCache {
    /// Nothing retained.
    None,
    /// Input activation.
    Input(Tensor),
    /// Attention intermediate state.
    Mha(Box<MhaCache>),
    /// Layer-norm statistics.
    LayerNorm(LayerNormCache),
    /// GeLU input and the `tanh` its forward pass computed.
    Gelu {
        /// Input activation.
        x: Tensor,
        /// `tanh(u)` per element (see [`ops::gelu_fwd`]).
        tanh: Tensor,
    },
    /// Concat input widths.
    Concat(Vec<usize>),
    /// Embedding-bag indices.
    Bag(Vec<usize>),
    /// Elementwise-add input count (the sum's backward only fans the
    /// output gradient back out).
    Arity(usize),
}

/// Runs one operator forward.
///
/// `inputs` are batch-major activations from the operator's predecessors in
/// order; `mini_batch` is the global `B` used as the loss denominator.
///
/// # Panics
///
/// Panics on arity mismatches, which the validated graph rules out.
pub fn op_forward(
    node: &Node,
    params: &OpParams,
    inputs: &[&Tensor],
    mini_batch: u64,
) -> (Tensor, OpCache) {
    match (&node.kind, params) {
        (OpKind::Input, _) => unreachable!("Input data is injected by the runner"),
        (OpKind::Linear { .. }, OpParams::Linear { w, b }) => {
            let y = ops::linear_fwd(inputs[0], w, b.as_ref());
            (y, OpCache::Input(inputs[0].clone()))
        }
        (OpKind::MultiHeadAttention { seq, hidden, .. }, OpParams::Mha(p)) => {
            let x = inputs[0];
            let batch = x.numel() / (seq * hidden);
            let x3 = x.reshape(vec![batch, *seq, *hidden]);
            let (y, cache) = ops::mha_fwd(&x3, p);
            (y, OpCache::Mha(Box::new(cache)))
        }
        (OpKind::LayerNorm { .. }, OpParams::LayerNorm { gamma, beta }) => {
            let (y, cache) = ops::layernorm_fwd(inputs[0], gamma, beta);
            (y, OpCache::LayerNorm(cache))
        }
        (OpKind::Activation(Nonlinearity::Relu), _) => {
            (ops::relu_fwd(inputs[0]), OpCache::Input(inputs[0].clone()))
        }
        (OpKind::Activation(Nonlinearity::Gelu), _) => {
            let (y, tanh) = ops::gelu_fwd(inputs[0]);
            let x = inputs[0].clone();
            (y, OpCache::Gelu { x, tanh })
        }
        (OpKind::EmbeddingBag { dim, bag, entries }, OpParams::Embedding { table }) => {
            let x = inputs[0];
            let batch = x.numel() / bag;
            let indices: Vec<usize> = x
                .data()
                .iter()
                .map(|&v| (v.max(0.0) as usize).min(entries - 1))
                .collect();
            let y = ops::embedding_bag_fwd(table, &indices, batch, *bag);
            debug_assert_eq!(y.shape()[1], bag * dim);
            (y, OpCache::Bag(indices))
        }
        (OpKind::Concat, _) => {
            let cols: Vec<usize> = inputs
                .iter()
                .map(|x| *x.shape().last().expect("non-scalar"))
                .collect();
            let flat: Vec<Tensor> = inputs
                .iter()
                .zip(&cols)
                .map(|(x, &c)| x.reshape(vec![x.rows_for(c), c]))
                .collect();
            let refs: Vec<&Tensor> = flat.iter().collect();
            (ops::concat_fwd(&refs), OpCache::Concat(cols))
        }
        (OpKind::FeatureInteraction { features, dim }, _) => {
            let y = ops::interaction_fwd(inputs[0], *features, *dim);
            (y, OpCache::Input(inputs[0].clone()))
        }
        (OpKind::Loss, _) => {
            let x = inputs[0];
            let loss = ops::l2_loss_fwd(x, mini_batch as f32);
            (Tensor::new(vec![1], vec![loss]), OpCache::Input(x.clone()))
        }
        (OpKind::Add, _) => {
            let mut y = inputs[0].clone();
            for x in &inputs[1..] {
                y.axpy(1.0, x);
            }
            (y, OpCache::Arity(inputs.len()))
        }
        (kind, params) => panic!("op/params mismatch: {kind:?} with {params:?}"),
    }
}

/// Runs one operator backward. `dy` is `None` only for the `Loss` sink,
/// which seeds the gradient itself. Returns gradients w.r.t. each input (in
/// predecessor order) and w.r.t. the operator's parameters.
///
/// # Panics
///
/// Panics on cache/params variant mismatches, which a correct runner rules
/// out.
pub fn op_backward(
    node: &Node,
    params: &OpParams,
    cache: &OpCache,
    dy: Option<&Tensor>,
    mini_batch: u64,
) -> (Vec<Tensor>, OpParams) {
    match (&node.kind, params, cache) {
        (OpKind::Input, ..) => (Vec::new(), OpParams::None),
        (OpKind::Linear { .. }, OpParams::Linear { w, b }, OpCache::Input(x)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            let (dx, dw, db) = ops::linear_bwd(x, w, dy);
            (
                vec![dx],
                OpParams::Linear {
                    w: dw,
                    b: b.as_ref().map(|_| db),
                },
            )
        }
        (OpKind::MultiHeadAttention { seq, hidden, .. }, OpParams::Mha(p), OpCache::Mha(c)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            let batch = dy.numel() / (seq * hidden);
            let dy3 = dy.reshape(vec![batch, *seq, *hidden]);
            let (dx, grads) = ops::mha_bwd(c, p, &dy3);
            (vec![dx], OpParams::Mha(Box::new(grads)))
        }
        (OpKind::LayerNorm { .. }, OpParams::LayerNorm { gamma, .. }, OpCache::LayerNorm(c)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            let (dx, dgamma, dbeta) = ops::layernorm_bwd(c, gamma, dy);
            (
                vec![dx],
                OpParams::LayerNorm {
                    gamma: dgamma,
                    beta: dbeta,
                },
            )
        }
        (OpKind::Activation(Nonlinearity::Relu), _, OpCache::Input(x)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            (vec![ops::relu_bwd(x, dy)], OpParams::None)
        }
        (OpKind::Activation(Nonlinearity::Gelu), _, OpCache::Gelu { x, tanh }) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            (vec![ops::gelu_bwd(x, tanh, dy)], OpParams::None)
        }
        (
            OpKind::EmbeddingBag { entries, dim, bag },
            OpParams::Embedding { .. },
            OpCache::Bag(indices),
        ) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            let batch = indices.len() / bag;
            let dtable = ops::embedding_bag_bwd(dy, indices, *entries, *dim, batch, *bag);
            // The integer index input receives no gradient.
            let dx = Tensor::zeros(vec![batch, *bag]);
            (vec![dx], OpParams::Embedding { table: dtable })
        }
        (OpKind::Concat, _, OpCache::Concat(cols)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            (ops::concat_bwd(dy, cols), OpParams::None)
        }
        (OpKind::FeatureInteraction { features, dim }, _, OpCache::Input(x)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            (
                vec![ops::interaction_bwd(x, dy, *features, *dim)],
                OpParams::None,
            )
        }
        (OpKind::Loss, _, OpCache::Input(x)) => {
            debug_assert!(dy.is_none(), "the Loss sink seeds its own gradient");
            (vec![ops::l2_loss_bwd(x, mini_batch as f32)], OpParams::None)
        }
        (OpKind::Add, _, OpCache::Arity(n)) => {
            let dy = dy.expect("non-sink ops receive a gradient");
            (vec![dy.clone(); *n], OpParams::None)
        }
        (kind, _, cache) => panic!("op/cache mismatch: {kind:?} with {cache:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, MmtConfig};

    #[test]
    fn init_is_deterministic_per_seed() {
        let model = zoo::mmt(&MmtConfig::tiny());
        let a = ModelParams::init(model.graph(), 1);
        let b = ModelParams::init(model.graph(), 1);
        let c = ModelParams::init(model.graph(), 2);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn sgd_moves_towards_negative_gradient() {
        let model = zoo::mlp_chain(1, 4);
        let mut params = ModelParams::init(model.graph(), 7);
        let fc = gp_ir::OpId(1);
        let mut grads = params.zeros_like();
        if let OpParams::Linear { w, .. } = grads.op_mut(fc) {
            w.data_mut()[0] = 1.0;
        }
        let before = match params.op(fc) {
            OpParams::Linear { w, .. } => w.data()[0],
            _ => unreachable!(),
        };
        params.sgd_step(&grads, 0.5);
        let after = match params.op(fc) {
            OpParams::Linear { w, .. } => w.data()[0],
            _ => unreachable!(),
        };
        assert!((before - after - 0.5).abs() < 1e-6);
    }

    #[test]
    fn accumulate_adds() {
        let model = zoo::mlp_chain(1, 4);
        let params = ModelParams::init(model.graph(), 7);
        let mut a = params.zeros_like();
        let mut b = params.zeros_like();
        if let OpParams::Linear { w, .. } = b.op_mut(gp_ir::OpId(1)) {
            w.data_mut()[0] = 2.0;
        }
        a.accumulate(&b);
        a.accumulate(&b);
        if let OpParams::Linear { w, .. } = a.op(gp_ir::OpId(1)) {
            assert_eq!(w.data()[0], 4.0);
        }
    }
}
