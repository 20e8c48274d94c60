//! DNN operators.
//!
//! Each operator describes its learnable-parameter count, forward FLOPs and
//! the activation bytes it must stash for its backward pass, all *per
//! sample*. These analytic counts replace the device profiling step of the
//! original GraphPipe implementation (see DESIGN.md §"The substitution
//! table").

use crate::shape::Shape;
use std::fmt;

/// Element size used throughout the reproduction (fp32 training).
pub const BYTES_PER_ELEMENT: u64 = 4;

/// Nonlinearity applied by an [`OpKind::Activation`] operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Nonlinearity {
    /// Rectified linear unit.
    Relu,
    /// Gaussian-error linear unit (tanh approximation).
    Gelu,
}

impl fmt::Display for Nonlinearity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Nonlinearity::Relu => write!(f, "relu"),
            Nonlinearity::Gelu => write!(f, "gelu"),
        }
    }
}

/// The kind of a computation-graph operator, with its static attributes.
///
/// The set covers every operator used by the paper's evaluated models
/// (Multi-Modal Transformer, DLRM, CANDLE-Uno and the synthetic case-study
/// model): dense layers, multi-head attention, layer norm, embedding bags,
/// concatenation, DLRM's feature interaction, activations, and graph
/// sources/sinks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A graph source feeding per-sample data of the given shape.
    Input,
    /// Fully-connected layer applied to the innermost dimension:
    /// `[..., in_features] -> [..., out_features]`.
    Linear {
        /// Input feature dimension.
        in_features: usize,
        /// Output feature dimension.
        out_features: usize,
        /// Whether a bias vector is learned.
        bias: bool,
    },
    /// Multi-head self-attention over `[seq, hidden]` inputs, including the
    /// Q/K/V and output projections.
    MultiHeadAttention {
        /// Sequence length.
        seq: usize,
        /// Hidden (model) dimension.
        hidden: usize,
        /// Number of attention heads; must divide `hidden`.
        heads: usize,
    },
    /// Layer normalization over the innermost dimension.
    LayerNorm {
        /// Normalized feature dimension.
        dim: usize,
    },
    /// Elementwise nonlinearity.
    Activation(Nonlinearity),
    /// Embedding-bag lookup: `bag` indices into an `entries x dim` table,
    /// looked-up vectors concatenated (DLRM sparse feature, Appendix A.2).
    EmbeddingBag {
        /// Number of rows in the embedding table.
        entries: usize,
        /// Embedding dimension per row.
        dim: usize,
        /// Number of lookups per sample; outputs are concatenated.
        bag: usize,
    },
    /// Concatenation of all predecessor outputs along the innermost
    /// dimension (all predecessors must agree on leading dimensions).
    Concat,
    /// DLRM-style pairwise dot-product feature interaction between `features`
    /// vectors of size `dim`, output is the flattened upper triangle.
    FeatureInteraction {
        /// Number of interacting feature vectors.
        features: usize,
        /// Dimension of each feature vector.
        dim: usize,
    },
    /// A graph sink computing a scalar training loss; carries no parameters.
    Loss,
    /// Elementwise sum of all predecessor outputs (residual/skip
    /// connections); all inputs must share one shape.
    Add,
}

impl OpKind {
    /// A stable numeric encoding of the operator kind and its static
    /// attributes: a variant tag followed by the attribute values.
    ///
    /// Two `OpKind`s are equal iff their structural words are equal, and the
    /// encoding is independent of operator names, graph ids, and insertion
    /// order — which makes it the per-node seed for canonical graph
    /// fingerprints (see the `gp-serve` crate).
    pub fn structural_words(&self) -> Vec<u64> {
        match *self {
            OpKind::Input => vec![0],
            OpKind::Linear {
                in_features,
                out_features,
                bias,
            } => vec![1, in_features as u64, out_features as u64, bias as u64],
            OpKind::MultiHeadAttention { seq, hidden, heads } => {
                vec![2, seq as u64, hidden as u64, heads as u64]
            }
            OpKind::LayerNorm { dim } => vec![3, dim as u64],
            OpKind::Activation(Nonlinearity::Relu) => vec![4, 0],
            OpKind::Activation(Nonlinearity::Gelu) => vec![4, 1],
            OpKind::EmbeddingBag { entries, dim, bag } => {
                vec![5, entries as u64, dim as u64, bag as u64]
            }
            OpKind::Concat => vec![6],
            OpKind::FeatureInteraction { features, dim } => {
                vec![7, features as u64, dim as u64]
            }
            OpKind::Loss => vec![8],
            OpKind::Add => vec![9],
        }
    }

    /// Number of learnable parameters.
    pub fn param_count(&self) -> u64 {
        match *self {
            OpKind::Linear {
                in_features,
                out_features,
                bias,
            } => {
                (in_features as u64) * (out_features as u64)
                    + if bias { out_features as u64 } else { 0 }
            }
            OpKind::MultiHeadAttention { hidden, .. } => {
                // Q, K, V and output projections, each hidden x hidden + bias.
                4 * ((hidden as u64) * (hidden as u64) + hidden as u64)
            }
            OpKind::LayerNorm { dim } => 2 * dim as u64,
            OpKind::EmbeddingBag { entries, dim, .. } => (entries as u64) * (dim as u64),
            OpKind::Input
            | OpKind::Activation(_)
            | OpKind::Concat
            | OpKind::FeatureInteraction { .. }
            | OpKind::Loss
            | OpKind::Add => 0,
        }
    }

    /// Forward-pass floating-point operations for one sample, counting one
    /// multiply-accumulate as two FLOPs.
    ///
    /// `in_shapes` are the per-sample shapes of the operator's inputs in
    /// predecessor order (used by shape-dependent operators such as
    /// [`OpKind::Concat`] and [`OpKind::Loss`]).
    pub fn forward_flops(&self, in_shapes: &[&Shape]) -> u64 {
        match *self {
            OpKind::Input => 0,
            OpKind::Linear {
                in_features,
                out_features,
                ..
            } => {
                let tokens = in_shapes.first().map_or(1, |s| s.leading_numel()) as u64;
                2 * tokens * in_features as u64 * out_features as u64
            }
            OpKind::MultiHeadAttention { seq, hidden, .. } => {
                let (s, h) = (seq as u64, hidden as u64);
                // QKV projections (3) + output projection (1): 4 * 2*s*h*h.
                // Attention scores QK^T and probs*V: 2 * 2*s*s*h.
                8 * s * h * h + 4 * s * s * h
            }
            OpKind::LayerNorm { .. } => {
                let numel = in_shapes.first().map_or(0, |s| s.numel()) as u64;
                8 * numel
            }
            OpKind::Activation(_) => {
                let numel = in_shapes.first().map_or(0, |s| s.numel()) as u64;
                4 * numel
            }
            OpKind::EmbeddingBag { dim, bag, .. } => {
                // Gather of `bag` rows; counted as one op per copied element.
                (dim as u64) * (bag as u64)
            }
            OpKind::Concat => {
                // Pure data movement; counted as one op per copied element.
                in_shapes.iter().map(|s| s.numel() as u64).sum()
            }
            OpKind::FeatureInteraction { features, dim } => {
                // All-pairs dot products.
                2 * (features as u64) * (features as u64) * (dim as u64)
            }
            OpKind::Loss => {
                let numel: u64 = in_shapes.iter().map(|s| s.numel() as u64).sum();
                4 * numel
            }
            OpKind::Add => {
                // One add per element per extra input.
                let numel = in_shapes.first().map_or(0, |s| s.numel()) as u64;
                numel * in_shapes.len().saturating_sub(1) as u64
            }
        }
    }

    /// Backward-pass FLOPs for one sample.
    ///
    /// Uses the standard estimate of twice the forward cost for layers with
    /// parameters (grad w.r.t. inputs plus grad w.r.t. weights), and an equal
    /// cost for parameter-free data movement.
    pub fn backward_flops(&self, in_shapes: &[&Shape]) -> u64 {
        let fwd = self.forward_flops(in_shapes);
        match self {
            OpKind::Input => 0,
            OpKind::Concat | OpKind::EmbeddingBag { .. } | OpKind::Loss | OpKind::Add => fwd,
            _ => 2 * fwd,
        }
    }

    /// Infers the per-sample output shape given input shapes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the inputs are incompatible
    /// with this operator (wrong arity, mismatched feature dimensions, or
    /// disagreeing leading dimensions for `Concat`).
    pub fn infer_output_shape(&self, in_shapes: &[&Shape]) -> Result<Shape, String> {
        match *self {
            OpKind::Input => Err("Input shape must be provided explicitly".to_string()),
            OpKind::Linear {
                in_features,
                out_features,
                ..
            } => {
                let s = one_input(in_shapes, "Linear")?;
                if s.last_dim() != in_features {
                    return Err(format!(
                        "Linear expects innermost dim {in_features}, got {s}"
                    ));
                }
                Ok(s.with_last_dim(out_features))
            }
            OpKind::MultiHeadAttention { seq, hidden, heads } => {
                let s = one_input(in_shapes, "MultiHeadAttention")?;
                if heads == 0 || hidden % heads != 0 {
                    return Err(format!(
                        "MultiHeadAttention heads ({heads}) must divide hidden ({hidden})"
                    ));
                }
                if s.dims() != [seq, hidden] {
                    return Err(format!(
                        "MultiHeadAttention expects [{seq}x{hidden}], got {s}"
                    ));
                }
                Ok(s.clone())
            }
            OpKind::LayerNorm { dim } => {
                let s = one_input(in_shapes, "LayerNorm")?;
                if s.last_dim() != dim {
                    return Err(format!("LayerNorm expects innermost dim {dim}, got {s}"));
                }
                Ok(s.clone())
            }
            OpKind::Activation(_) => Ok(one_input(in_shapes, "Activation")?.clone()),
            OpKind::EmbeddingBag { dim, bag, .. } => {
                // Input is a bag of indices; output is the concatenated rows.
                Ok(Shape::vector(dim * bag))
            }
            OpKind::Concat => {
                if in_shapes.is_empty() {
                    return Err("Concat requires at least one input".to_string());
                }
                let lead = in_shapes[0].dims()[..in_shapes[0].rank() - 1].to_vec();
                let mut last = 0;
                for s in in_shapes {
                    if s.dims()[..s.rank() - 1] != lead[..] {
                        return Err(format!(
                            "Concat inputs disagree on leading dims: {:?} vs {s}",
                            lead
                        ));
                    }
                    last += s.last_dim();
                }
                let mut dims = lead;
                dims.push(last);
                Ok(Shape::new(dims))
            }
            OpKind::FeatureInteraction { features, dim } => {
                let s = one_input(in_shapes, "FeatureInteraction")?;
                if s.numel() != features * dim {
                    return Err(format!(
                        "FeatureInteraction expects {features}*{dim} elements, got {s}"
                    ));
                }
                Ok(Shape::vector(features * (features - 1) / 2))
            }
            OpKind::Loss => {
                if in_shapes.is_empty() {
                    return Err("Loss requires at least one input".to_string());
                }
                Ok(Shape::vector(1))
            }
            OpKind::Add => {
                let Some(first) = in_shapes.first() else {
                    return Err("Add requires at least one input".to_string());
                };
                for s in in_shapes {
                    if s != first {
                        return Err(format!("Add inputs disagree on shape: {first} vs {s}"));
                    }
                }
                Ok((*first).clone())
            }
        }
    }

    /// Activation bytes this operator must keep resident per in-flight
    /// sample: its inputs (needed for weight/input gradients) plus sizable
    /// internal state (attention probabilities for MHA).
    pub fn stashed_bytes(&self, in_shapes: &[&Shape]) -> u64 {
        let input_bytes: u64 = in_shapes
            .iter()
            .map(|s| s.numel() as u64 * BYTES_PER_ELEMENT)
            .sum();
        match *self {
            OpKind::Input => 0,
            OpKind::MultiHeadAttention { seq, heads, .. } => {
                // Inputs + attention probabilities (heads x seq x seq).
                input_bytes + (heads as u64) * (seq as u64) * (seq as u64) * BYTES_PER_ELEMENT
            }
            // Index gather: backward only needs the (tiny, integer) indices.
            OpKind::EmbeddingBag { bag, .. } => (bag as u64) * BYTES_PER_ELEMENT,
            // d/dx_i of a sum is the output gradient itself: nothing to stash.
            OpKind::Add => 0,
            _ => input_bytes,
        }
    }
}

fn one_input<'s>(in_shapes: &[&'s Shape], what: &str) -> Result<&'s Shape, String> {
    match in_shapes {
        [s] => Ok(s),
        _ => Err(format!(
            "{what} expects exactly one input, got {}",
            in_shapes.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shp(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn linear_params_and_flops() {
        let op = OpKind::Linear {
            in_features: 1024,
            out_features: 4096,
            bias: true,
        };
        assert_eq!(op.param_count(), 1024 * 4096 + 4096);
        let s = shp(&[256, 1024]);
        assert_eq!(op.forward_flops(&[&s]), 2 * 256 * 1024 * 4096);
        assert_eq!(op.backward_flops(&[&s]), 4 * 256 * 1024 * 4096);
    }

    #[test]
    fn linear_shape_inference() {
        let op = OpKind::Linear {
            in_features: 8,
            out_features: 16,
            bias: false,
        };
        assert_eq!(
            op.infer_output_shape(&[&shp(&[4, 8])]).unwrap(),
            shp(&[4, 16])
        );
        assert!(op.infer_output_shape(&[&shp(&[4, 9])]).is_err());
        assert_eq!(op.param_count(), 8 * 16);
    }

    #[test]
    fn mha_flops_match_closed_form() {
        let op = OpKind::MultiHeadAttention {
            seq: 256,
            hidden: 1024,
            heads: 16,
        };
        let s = shp(&[256, 1024]);
        let (sq, h) = (256u64, 1024u64);
        assert_eq!(op.forward_flops(&[&s]), 8 * sq * h * h + 4 * sq * sq * h);
        assert_eq!(op.param_count(), 4 * (1024 * 1024 + 1024));
        assert_eq!(op.infer_output_shape(&[&s]).unwrap(), s);
    }

    #[test]
    fn mha_rejects_bad_heads_and_shape() {
        let op = OpKind::MultiHeadAttention {
            seq: 4,
            hidden: 10,
            heads: 3,
        };
        assert!(op.infer_output_shape(&[&shp(&[4, 10])]).is_err());
        let ok = OpKind::MultiHeadAttention {
            seq: 4,
            hidden: 12,
            heads: 3,
        };
        assert!(ok.infer_output_shape(&[&shp(&[5, 12])]).is_err());
    }

    #[test]
    fn concat_sums_feature_dims() {
        let a = shp(&[4, 8]);
        let b = shp(&[4, 24]);
        assert_eq!(
            OpKind::Concat.infer_output_shape(&[&a, &b]).unwrap(),
            shp(&[4, 32])
        );
        assert!(OpKind::Concat
            .infer_output_shape(&[&shp(&[4, 8]), &shp(&[5, 8])])
            .is_err());
    }

    #[test]
    fn embedding_bag_output_and_params() {
        let op = OpKind::EmbeddingBag {
            entries: 1_000_000,
            dim: 64,
            bag: 100,
        };
        assert_eq!(op.param_count(), 64_000_000);
        assert_eq!(
            op.infer_output_shape(&[&shp(&[100])]).unwrap(),
            shp(&[6400])
        );
        // Backward of a gather costs about the same as forward.
        let s = shp(&[100]);
        assert_eq!(op.backward_flops(&[&s]), op.forward_flops(&[&s]));
    }

    #[test]
    fn interaction_output_is_upper_triangle() {
        let op = OpKind::FeatureInteraction {
            features: 8,
            dim: 64,
        };
        assert_eq!(op.infer_output_shape(&[&shp(&[512])]).unwrap(), shp(&[28]));
        assert!(op.infer_output_shape(&[&shp(&[100])]).is_err());
    }

    #[test]
    fn parameter_free_ops() {
        for op in [
            OpKind::Input,
            OpKind::Activation(Nonlinearity::Gelu),
            OpKind::Concat,
            OpKind::Loss,
            OpKind::Add,
        ] {
            assert_eq!(op.param_count(), 0, "{op:?}");
        }
    }

    #[test]
    fn add_requires_matching_shapes() {
        let a = shp(&[4, 8]);
        assert_eq!(OpKind::Add.infer_output_shape(&[&a, &a]).unwrap(), a);
        assert!(OpKind::Add
            .infer_output_shape(&[&a, &shp(&[4, 9])])
            .is_err());
        assert!(OpKind::Add.infer_output_shape(&[]).is_err());
        // One add per element per extra input; backward mirrors forward.
        assert_eq!(OpKind::Add.forward_flops(&[&a, &a, &a]), 2 * 32);
        assert_eq!(OpKind::Add.backward_flops(&[&a, &a]), 32);
        assert_eq!(OpKind::Add.stashed_bytes(&[&a, &a]), 0);
    }

    #[test]
    fn stashed_bytes_includes_attention_probs() {
        let op = OpKind::MultiHeadAttention {
            seq: 16,
            hidden: 32,
            heads: 4,
        };
        let s = shp(&[16, 32]);
        let expected = (16 * 32 + 4 * 16 * 16) as u64 * BYTES_PER_ELEMENT;
        assert_eq!(op.stashed_bytes(&[&s]), expected);
    }

    #[test]
    fn input_has_no_cost() {
        assert_eq!(OpKind::Input.forward_flops(&[]), 0);
        assert_eq!(OpKind::Input.backward_flops(&[]), 0);
        assert_eq!(OpKind::Input.stashed_bytes(&[]), 0);
    }
}
