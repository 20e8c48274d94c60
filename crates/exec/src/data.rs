//! Synthetic training data for the runtime.

use gp_ir::{Graph, OpId, OpKind};
use gp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Generates a full mini-batch for every `Input` operator of a graph.
///
/// Dense inputs get uniform values in `[-1, 1)`. Inputs consumed by an
/// `EmbeddingBag` get integer row indices (stored as f32) drawn uniformly
/// from the table, mirroring DLRM's categorical features.
pub fn synth_batch(graph: &Graph, mini_batch: u64, seed: u64) -> HashMap<OpId, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = HashMap::new();
    for node in graph.nodes() {
        if !matches!(node.kind, OpKind::Input) {
            continue;
        }
        let entries = graph
            .succs(node.id)
            .iter()
            .find_map(|&s| match graph.node(s).kind {
                OpKind::EmbeddingBag { entries, .. } => Some(entries),
                _ => None,
            });
        let mut dims = vec![mini_batch as usize];
        dims.extend_from_slice(node.out_shape.dims());
        let tensor = match entries {
            Some(entries) => {
                let numel: usize = dims.iter().product();
                let data = (0..numel)
                    .map(|_| rng.random_range(0..entries) as f32)
                    .collect();
                Tensor::new(dims, data)
            }
            None => Tensor::rand_uniform(dims, 1.0, &mut rng),
        };
        batch.insert(node.id, tensor);
    }
    batch
}

/// Slices rows `[lo, hi)` of every input tensor (micro-batch extraction),
/// shaping each slice as `[rows, per-sample dims...]`.
pub fn slice_batch(
    graph: &Graph,
    batch: &HashMap<OpId, Tensor>,
    lo: usize,
    hi: usize,
) -> HashMap<OpId, Tensor> {
    batch
        .iter()
        .map(|(&op, tensor)| (op, input_rows(graph, op, tensor, lo, hi)))
        .collect()
}

/// Rows `[lo, hi)` of `op`'s whole-batch `tensor`, shaped
/// `[rows, per-sample dims...]`, in one copy.
///
/// # Panics
///
/// Panics if the rows fall outside the tensor.
pub(crate) fn input_rows(graph: &Graph, op: OpId, tensor: &Tensor, lo: usize, hi: usize) -> Tensor {
    let shape = &graph.node(op).out_shape;
    let per_sample = shape.numel();
    assert!(
        lo <= hi && hi <= tensor.rows_for(per_sample),
        "rows {lo}..{hi} of {op}"
    );
    let mut dims = vec![hi - lo];
    dims.extend_from_slice(shape.dims());
    Tensor::new(
        dims,
        tensor.data()[lo * per_sample..hi * per_sample].to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, DlrmConfig};

    #[test]
    fn dense_and_sparse_inputs() {
        let model = zoo::dlrm(&DlrmConfig::tiny());
        let g = model.graph();
        let batch = synth_batch(g, 4, 11);
        let n_inputs = g
            .nodes()
            .filter(|n| matches!(n.kind, OpKind::Input))
            .count();
        assert_eq!(batch.len(), n_inputs);
        // Sparse inputs carry integer indices within the table.
        for node in g.nodes() {
            let is_bag_input = g
                .succs(node.id)
                .iter()
                .any(|&s| matches!(g.node(s).kind, OpKind::EmbeddingBag { .. }));
            if is_bag_input {
                let t = &batch[&node.id];
                assert!(t
                    .data()
                    .iter()
                    .all(|&v| v >= 0.0 && v.fract() == 0.0 && v < 64.0));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let model = zoo::mlp_chain(2, 8);
        let a = synth_batch(model.graph(), 4, 5);
        let b = synth_batch(model.graph(), 4, 5);
        for (op, t) in &a {
            assert_eq!(t, &b[op]);
        }
    }

    #[test]
    fn slicing_preserves_rows() {
        let model = zoo::mlp_chain(2, 8);
        let g = model.graph();
        let batch = synth_batch(g, 8, 5);
        let lo = slice_batch(g, &batch, 2, 5);
        let input = g.sources()[0];
        assert_eq!(lo[&input].shape(), &[3, 8]);
        assert_eq!(
            lo[&input].data()[0],
            batch[&input].data()[2 * 8],
            "row alignment"
        );
    }
}
