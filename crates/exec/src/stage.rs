//! Stage-local execution: forward/backward over a convex subgraph with
//! per-micro-batch activation stashes.

use crate::module::{op_backward, op_forward, ModelParams, OpCache, OpParams};
use gp_ir::{Graph, OpId, OpKind};
use gp_tensor::Tensor;
use std::collections::HashMap;

/// Executes one pipeline stage's operators for individual micro-batches,
/// holding parameters, gradients, and in-flight activation stashes.
///
/// A runner lives for a whole training run: [`sgd_step`](Self::sgd_step)
/// ends each step by updating its parameters and zeroing its gradients
/// and loss in place.
pub struct StageRunner<'g> {
    graph: &'g Graph,
    ops: Vec<OpId>,
    in_stage: Vec<bool>,
    /// Parameters, in `ops` order.
    params: Vec<OpParams>,
    /// Accumulated gradients, in `ops` order.
    grads: Vec<OpParams>,
    mini_batch: u64,
    /// Per in-flight micro-batch, each op's backward cache.
    state: HashMap<u32, HashMap<OpId, OpCache>>,
    loss_partial: f32,
}

impl<'g> StageRunner<'g> {
    /// Creates a runner for `ops`, cloning their parameters from the
    /// authoritative store.
    pub fn new(graph: &'g Graph, ops: &[OpId], params: &ModelParams, mini_batch: u64) -> Self {
        let mut in_stage = vec![false; graph.len()];
        for &op in ops {
            in_stage[op.index()] = true;
        }
        let params: Vec<OpParams> = ops.iter().map(|&op| params.op(op).clone()).collect();
        let grads = params.iter().map(OpParams::zeros_like).collect();
        StageRunner {
            graph,
            ops: ops.to_vec(),
            in_stage,
            params,
            grads,
            mini_batch,
            state: HashMap::new(),
            loss_partial: 0.0,
        }
    }

    /// Number of micro-batches currently stashed (in flight).
    pub fn in_flight(&self) -> usize {
        self.state.len()
    }

    /// Partial loss accumulated by `Loss` operators in this stage.
    pub fn loss(&self) -> f32 {
        self.loss_partial
    }

    /// Accumulated weight gradients, one per stage operator in the order
    /// the runner was given them.
    pub fn grads(&self) -> &[OpParams] {
        &self.grads
    }

    /// Ends a training step: `params -= lr * grads`, where `grads` is
    /// `sum` when given (a data-parallel stage's replica sum) and the
    /// runner's own gradients otherwise; then zeroes the gradients and the
    /// loss for the next step.
    ///
    /// Stepping on the runner's own gradients rounds as stepping on their
    /// sum into a fresh zero store would: the gradients start at `+0.0`
    /// and only accumulate, and under round-to-nearest `+0.0 + -0.0` is
    /// `+0.0`, so they never hold `-0.0`, and `0.0 + g` is `g`.
    ///
    /// # Panics
    ///
    /// Panics if `sum` does not match the stage's parameters.
    pub fn sgd_step(&mut self, sum: Option<&[OpParams]>, lr: f32) {
        let grads = sum.unwrap_or(&self.grads);
        assert_eq!(grads.len(), self.params.len(), "one gradient per op");
        for (p, g) in self.params.iter_mut().zip(grads) {
            p.sgd_step(g, lr);
        }
        for g in &mut self.grads {
            g.fill_zero();
        }
        self.loss_partial = 0.0;
    }

    /// The stage's parameters, by operator.
    pub fn into_params(self) -> impl Iterator<Item = (OpId, OpParams)> {
        self.ops.into_iter().zip(self.params)
    }

    /// Runs the forward pass of micro-batch `mb` and returns every
    /// activation it saw: `external`'s and each stage operator's output.
    /// Only the backward caches stay stashed until [`backward`](Self::backward).
    ///
    /// `external` maps producer operator ids (both `Input` operators of this
    /// stage and cross-stage producers) to their activations for this
    /// micro-batch's rows.
    ///
    /// # Panics
    ///
    /// Panics if a required external input is missing — the runtime
    /// assembles them before calling.
    pub fn forward(&mut self, mb: u32, external: HashMap<OpId, Tensor>) -> HashMap<OpId, Tensor> {
        let mut outs = external;
        let mut caches: HashMap<OpId, OpCache> = HashMap::new();
        for (&op, params) in self.ops.iter().zip(&self.params) {
            let node = self.graph.node(op);
            if matches!(node.kind, OpKind::Input) {
                assert!(outs.contains_key(&op), "missing input data for {op}");
                caches.insert(op, OpCache::None);
                continue;
            }
            let inputs: Vec<&Tensor> = self
                .graph
                .preds(op)
                .iter()
                .map(|p| {
                    outs.get(p)
                        .unwrap_or_else(|| panic!("missing external activation {p} -> {op}"))
                })
                .collect();
            let (y, cache) = op_forward(node, params, &inputs, self.mini_batch);
            if matches!(node.kind, OpKind::Loss) {
                self.loss_partial += y.data()[0];
            }
            outs.insert(op, y);
            caches.insert(op, cache);
        }
        self.state.insert(mb, caches);
        outs
    }

    /// Runs the backward pass of micro-batch `mb`, releasing its stash.
    ///
    /// `external_grads` maps this stage's operator ids to gradients arriving
    /// from consumer stages. Returns gradients for cross-stage *producer*
    /// operators (what must be shipped upstream).
    ///
    /// # Panics
    ///
    /// Panics if `mb` is not in flight.
    pub fn backward(
        &mut self,
        mb: u32,
        external_grads: HashMap<OpId, Tensor>,
    ) -> HashMap<OpId, Tensor> {
        let caches = self
            .state
            .remove(&mb)
            .unwrap_or_else(|| panic!("micro-batch {mb} is not in flight"));
        let mut dy = external_grads;
        let mut upstream: HashMap<OpId, Tensor> = HashMap::new();
        for i in (0..self.ops.len()).rev() {
            let op = self.ops[i];
            let node = self.graph.node(op);
            if matches!(node.kind, OpKind::Input) {
                continue;
            }
            let grad_in = dy.remove(&op);
            let is_loss = matches!(node.kind, OpKind::Loss);
            assert!(
                grad_in.is_some() || is_loss,
                "operator {op} received no gradient"
            );
            let (dinputs, gparams) = op_backward(
                node,
                &self.params[i],
                &caches[&op],
                if is_loss { None } else { grad_in.as_ref() },
                self.mini_batch,
            );
            self.spread(op, dinputs, &mut dy, &mut upstream);
            self.grads[i].accumulate(&gparams);
        }
        upstream
    }

    fn spread(
        &self,
        op: OpId,
        dinputs: Vec<Tensor>,
        dy: &mut HashMap<OpId, Tensor>,
        upstream: &mut HashMap<OpId, Tensor>,
    ) {
        fn add_or_insert(map: &mut HashMap<OpId, Tensor>, pred: OpId, dx: Tensor) {
            match map.get_mut(&pred) {
                Some(acc) => acc.axpy(1.0, &dx.reshape(acc.shape().to_vec())),
                None => {
                    map.insert(pred, dx);
                }
            }
        }
        for (&pred, dx) in self.graph.preds(op).iter().zip(dinputs) {
            if self.in_stage[pred.index()] {
                add_or_insert(dy, pred, dx);
            } else {
                add_or_insert(upstream, pred, dx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synth_batch;
    use gp_ir::zoo;

    #[test]
    fn whole_graph_as_one_stage_runs() {
        let model = zoo::mlp_chain(2, 8);
        let g = model.graph();
        let params = ModelParams::init(g, 3);
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let mut runner = StageRunner::new(g, &ops, &params, 4);
        let batch = synth_batch(g, 4, 9);
        runner.forward(0, batch);
        assert_eq!(runner.in_flight(), 1);
        assert!(runner.loss() > 0.0);
        let upstream = runner.backward(0, HashMap::new());
        assert!(upstream.is_empty(), "no external producers");
        assert_eq!(runner.in_flight(), 0);
    }

    #[test]
    fn sgd_step_updates_the_parameters_and_zeroes_the_step() {
        let model = zoo::mlp_chain(2, 8);
        let g = model.graph();
        let params = ModelParams::init(g, 3);
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let mut runner = StageRunner::new(g, &ops, &params, 4);
        runner.forward(0, synth_batch(g, 4, 9));
        let _ = runner.backward(0, HashMap::new());
        let mut expect = params.clone();
        for (&op, grad) in ops.iter().zip(runner.grads()) {
            expect.op_mut(op).sgd_step(grad, 0.1);
        }
        runner.sgd_step(None, 0.1);
        assert_eq!(runner.loss(), 0.0);
        for grad in runner.grads() {
            assert_eq!(grad.max_abs_diff(&grad.zeros_like()), 0.0);
        }
        let mut stepped = params;
        for (op, p) in runner.into_params() {
            *stepped.op_mut(op) = p;
        }
        assert_eq!(stepped.max_abs_diff(&expect), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn backward_without_forward_panics() {
        let model = zoo::mlp_chain(1, 4);
        let g = model.graph();
        let params = ModelParams::init(g, 3);
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let mut runner = StageRunner::new(g, &ops, &params, 4);
        let _ = runner.backward(0, HashMap::new());
    }
}
