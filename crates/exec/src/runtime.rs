//! The threaded distributed-training runtime.
//!
//! One OS thread per stage *replica* plays the role of one GPU: it executes
//! its stage's task order (from `gp-sched`), exchanges activation and
//! gradient chunks with neighbouring stages over `std::sync::mpsc`
//! channels, and accumulates weight gradients. The main thread plays the
//! role of the synchronous optimizer: it sums replica gradients in a fixed
//! order (deterministic results) and applies SGD — preserving exactly the
//! synchronous-1F1B training semantics the paper's runtime guarantees
//! ("the DNN training semantics is preserved, thus statistical convergence
//! issues do not arise", §8).
//!
//! Chunk routing works in global sample coordinates: replica `r` of a stage
//! with `d` replicas owns micro-batches `mb % d == r`; producers ship whole
//! micro-batch chunks to every consumer replica whose rows overlap, and
//! consumers assemble/sum the intersecting rows. This supports per-stage
//! micro-batch sizes out of the box.

use crate::data::slice_batch;
use crate::module::{ModelParams, OpParams};
use crate::stage::StageRunner;
use gp_cost::Pass;
use gp_ir::{Graph, OpId};
use gp_obs::Telemetry;
use gp_sched::{PipelineSchedule, StageGraph, StageId};
use gp_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};

/// What one worker thread hands back: its `(stage, replica)` identity, the
/// accumulated parameter gradients, and the local loss contribution.
type ReplicaResult = ((StageId, u32), HashMap<OpId, OpParams>, f32);

/// Errors raised by the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread disconnected unexpectedly (a peer panicked).
    ChannelClosed {
        /// The stage whose worker observed the hang-up.
        stage: StageId,
    },
    /// A worker thread panicked.
    WorkerPanicked,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ChannelClosed { stage } => {
                write!(f, "worker of stage {stage} lost its peers")
            }
            ExecError::WorkerPanicked => write!(f, "a runtime worker panicked"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One completed task, recorded in the execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The stage that ran the task.
    pub stage: StageId,
    /// Replica index within the stage.
    pub replica: u32,
    /// Micro-batch index.
    pub mb: u32,
    /// Forward or backward.
    pub pass: Pass,
}

/// Result of one distributed training iteration.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// Training loss of the iteration (summed over micro-batches).
    pub loss: f32,
    /// Completion order of all tasks (for schedule-conformance tests).
    pub trace: Vec<TraceEvent>,
}

#[derive(Debug, Clone)]
struct ChunkMsg {
    fwd: bool,
    op: OpId,
    from_stage: StageId,
    row_start: usize,
    data: Tensor,
}

type Buffers = HashMap<OpId, Vec<ChunkMsg>>;

/// The rows of `chunk` inside `[lo, hi)`, in global coordinates (empty
/// when they miss).
fn overlap(chunk: &ChunkMsg, lo: usize, hi: usize, per_sample: usize) -> Range<usize> {
    let s = chunk.row_start.max(lo);
    let e = (chunk.row_start + chunk.data.rows_for(per_sample)).min(hi);
    s..e.max(s)
}

/// Sums the rows of `chunks` intersecting `[lo, hi)` into an accumulator
/// of shape `[hi-lo, per_sample]`. Chunks are added in (`from_stage`,
/// `row_start`) order, not in the order they arrived: with three or more
/// gradient chunks for the same rows, the f32 sum depends on that order,
/// and arrival order is thread timing. Activation chunks are disjoint, so
/// for them the sum is a copy.
fn assemble(chunks: &[ChunkMsg], lo: usize, hi: usize, per_sample: usize) -> Tensor {
    let mut ordered: Vec<&ChunkMsg> = chunks.iter().collect();
    ordered.sort_by_key(|c| (c.from_stage, c.row_start));
    let mut out = Tensor::zeros(vec![hi - lo, per_sample]);
    for c in ordered {
        let rows = overlap(c, lo, hi, per_sample);
        if rows.is_empty() {
            continue;
        }
        let piece = c
            .data
            .slice_rows(per_sample, rows.start - c.row_start, rows.end - c.row_start);
        out.add_rows(per_sample, rows.start - lo, &piece);
    }
    out
}

struct Worker<'a> {
    graph: &'a Graph,
    sg: &'a StageGraph,
    stage: StageId,
    replica: u32,
    rx: Receiver<ChunkMsg>,
    senders: Arc<HashMap<(StageId, u32), Sender<ChunkMsg>>>,
    batch: Arc<HashMap<OpId, Tensor>>,
    trace: Arc<Mutex<Vec<TraceEvent>>>,
    /// External producer ops feeding this stage (op, producer stage).
    ext_inputs: Vec<(OpId, StageId)>,
    /// This stage's ops with external consumers (op, consumer stages).
    ext_outputs: Vec<(OpId, Vec<StageId>)>,
    fwd_buf: Buffers,
    bwd_buf: Buffers,
}

impl<'a> Worker<'a> {
    fn run(
        mut self,
        runner: &mut StageRunner<'a>,
        schedule: &PipelineSchedule,
    ) -> Result<(), ExecError> {
        let stage = self.sg.stage(self.stage);
        let d = stage.dp_degree() as u32;
        let b = stage.micro_batch as usize;
        let tasks: Vec<_> = schedule
            .stage(self.stage)
            .tasks
            .iter()
            .filter(|t| t.mb % d == self.replica)
            .copied()
            .collect();
        for task in tasks {
            let (lo, hi) = (task.mb as usize * b, (task.mb as usize + 1) * b);
            match task.pass {
                Pass::Forward => {
                    let mut external =
                        slice_batch(self.graph, &self.stage_inputs_from_batch(), lo, hi);
                    self.collect_forward_inputs(lo, hi, &mut external)?;
                    runner.forward(task.mb, &external);
                    self.ship_forward_outputs(runner, task.mb, lo, hi);
                }
                Pass::Backward => {
                    let ext_grads = self.collect_backward_grads(lo, hi)?;
                    let upstream = runner.backward(task.mb, &ext_grads);
                    self.ship_backward_grads(&upstream, lo);
                }
            }
            // A peer's panic surfaces from its join, not from this lock.
            self.trace
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(TraceEvent {
                    stage: self.stage,
                    replica: self.replica,
                    mb: task.mb,
                    pass: task.pass,
                });
        }
        Ok(())
    }

    /// The subset of the global batch feeding `Input` ops of this stage.
    fn stage_inputs_from_batch(&self) -> HashMap<OpId, Tensor> {
        let stage = self.sg.stage(self.stage);
        stage
            .ops
            .iter()
            .filter_map(|op| self.batch.get(op).map(|t| (*op, t.clone())))
            .collect()
    }

    fn recv_into_buffers(&mut self) -> Result<(), ExecError> {
        match self.rx.recv() {
            Ok(msg) => {
                let buf = if msg.fwd {
                    &mut self.fwd_buf
                } else {
                    &mut self.bwd_buf
                };
                buf.entry(msg.op).or_default().push(msg);
                Ok(())
            }
            Err(_) => Err(ExecError::ChannelClosed { stage: self.stage }),
        }
    }

    fn collect_forward_inputs(
        &mut self,
        lo: usize,
        hi: usize,
        external: &mut HashMap<OpId, Tensor>,
    ) -> Result<(), ExecError> {
        let needs: Vec<OpId> = self.ext_inputs.iter().map(|&(op, _)| op).collect();
        for op in needs {
            let per_sample = self.graph.node(op).out_shape.numel();
            loop {
                let chunks = self.fwd_buf.get(&op).map(Vec::as_slice).unwrap_or(&[]);
                let covered: usize = chunks
                    .iter()
                    .map(|c| overlap(c, lo, hi, per_sample).len())
                    .sum();
                if covered >= hi - lo {
                    let mut dims = vec![hi - lo];
                    dims.extend_from_slice(self.graph.node(op).out_shape.dims());
                    let tensor = assemble(chunks, lo, hi, per_sample);
                    external.insert(op, tensor.reshape(dims));
                    break;
                }
                self.recv_into_buffers()?;
            }
        }
        Ok(())
    }

    fn ship_forward_outputs(&self, runner: &StageRunner<'_>, mb: u32, lo: usize, hi: usize) {
        for (op, consumers) in &self.ext_outputs {
            let chunk = runner.output(mb, *op).clone();
            for &cons in consumers {
                for replica in self.target_replicas(cons, lo, hi) {
                    let tx = &self.senders[&(cons, replica)];
                    let _ = tx.send(ChunkMsg {
                        fwd: true,
                        op: *op,
                        from_stage: self.stage,
                        row_start: lo,
                        data: chunk.clone(),
                    });
                }
            }
        }
    }

    fn collect_backward_grads(
        &mut self,
        lo: usize,
        hi: usize,
    ) -> Result<HashMap<OpId, Tensor>, ExecError> {
        let mut out = HashMap::new();
        let needs: Vec<(OpId, Vec<StageId>)> = self.ext_outputs.clone();
        for (op, consumers) in needs {
            let per_sample = self.graph.node(op).out_shape.numel();
            loop {
                let chunks = self.bwd_buf.get(&op).map(Vec::as_slice).unwrap_or(&[]);
                // Each consuming stage must cover [lo, hi) exactly once.
                let mut complete = true;
                for &cons in &consumers {
                    let covered: usize = chunks
                        .iter()
                        .filter(|c| c.from_stage == cons)
                        .map(|c| overlap(c, lo, hi, per_sample).len())
                        .sum();
                    if covered < hi - lo {
                        complete = false;
                        break;
                    }
                }
                if complete {
                    out.insert(op, assemble(chunks, lo, hi, per_sample));
                    break;
                }
                self.recv_into_buffers()?;
            }
        }
        Ok(out)
    }

    fn ship_backward_grads(&self, upstream: &HashMap<OpId, Tensor>, lo: usize) {
        for (&op, grad) in upstream {
            let producer = self.sg.stage_of(op);
            let rows = grad.rows_for(self.graph.node(op).out_shape.numel());
            for replica in self.target_replicas(producer, lo, lo + rows) {
                let tx = &self.senders[&(producer, replica)];
                let _ = tx.send(ChunkMsg {
                    fwd: false,
                    op,
                    from_stage: self.stage,
                    row_start: lo,
                    data: grad.clone(),
                });
            }
        }
    }

    /// Replicas of `stage` owning micro-batches overlapping rows `[lo, hi)`.
    fn target_replicas(&self, stage: StageId, lo: usize, hi: usize) -> Vec<u32> {
        let s = self.sg.stage(stage);
        let b = s.micro_batch as usize;
        let d = s.dp_degree() as u32;
        let mb_lo = lo / b;
        let mb_hi = hi.div_ceil(b);
        let mut replicas: Vec<u32> = (mb_lo..mb_hi).map(|mb| mb as u32 % d).collect();
        replicas.sort_unstable();
        replicas.dedup();
        replicas
    }
}

/// Runs one distributed training iteration of `plan` with real tensor math,
/// applying a synchronous SGD update to `params`.
///
/// # Errors
///
/// Returns an [`ExecError`] if a worker thread fails.
pub fn train_iteration(
    graph: &Graph,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    params: &mut ModelParams,
    batch: &HashMap<OpId, Tensor>,
    lr: f32,
) -> Result<IterationResult, ExecError> {
    train_iteration_traced(
        graph,
        sg,
        schedule,
        params,
        batch,
        lr,
        &Telemetry::disabled(),
    )
}

/// [`train_iteration`], emitting telemetry: an `exec.iteration` span, one
/// `exec.replica` span per stage-replica worker thread (parented under
/// the iteration span explicitly, since workers run on their own
/// threads), and per-stage wall-time histograms
/// (`exec.stage<N>.wall_ns`, one sample per replica per iteration).
///
/// Telemetry is write-only: losses, gradients, and the task trace are
/// byte-identical with telemetry enabled or disabled.
#[allow(clippy::too_many_arguments)]
pub fn train_iteration_traced(
    graph: &Graph,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    params: &mut ModelParams,
    batch: &HashMap<OpId, Tensor>,
    lr: f32,
    telemetry: &Telemetry,
) -> Result<IterationResult, ExecError> {
    let iteration_span = telemetry.span("exec.iteration");
    let iteration_id = iteration_span.id();
    // Replica roster and channels.
    let mut replicas: Vec<(StageId, u32)> = Vec::new();
    for s in sg.stages() {
        for r in 0..s.dp_degree() as u32 {
            replicas.push((s.id, r));
        }
    }
    let mut senders: HashMap<(StageId, u32), Sender<ChunkMsg>> = HashMap::new();
    let mut receivers: HashMap<(StageId, u32), Receiver<ChunkMsg>> = HashMap::new();
    for &(s, r) in &replicas {
        let (tx, rx) = mpsc::channel();
        senders.insert((s, r), tx);
        receivers.insert((s, r), rx);
    }
    let senders = Arc::new(senders);
    let batch = Arc::new(batch.clone());
    let trace = Arc::new(Mutex::new(Vec::new()));

    // Stage-boundary maps.
    let mut in_stage_of: Vec<StageId> = Vec::new();
    for node in graph.nodes() {
        in_stage_of.push(sg.stage_of(node.id));
    }
    let ext_inputs_of = |stage: StageId| -> Vec<(OpId, StageId)> {
        let mut v: Vec<(OpId, StageId)> = Vec::new();
        for op in &sg.stage(stage).ops {
            for &p in graph.preds(*op) {
                let ps = in_stage_of[p.index()];
                if ps != stage && !v.contains(&(p, ps)) {
                    v.push((p, ps));
                }
            }
        }
        v.sort();
        v
    };
    let ext_outputs_of = |stage: StageId| -> Vec<(OpId, Vec<StageId>)> {
        let mut map: HashMap<OpId, Vec<StageId>> = HashMap::new();
        for op in &sg.stage(stage).ops {
            for &succ in graph.succs(*op) {
                let ss = in_stage_of[succ.index()];
                if ss != stage {
                    let list = map.entry(*op).or_default();
                    if !list.contains(&ss) {
                        list.push(ss);
                    }
                }
            }
        }
        let mut v: Vec<(OpId, Vec<StageId>)> = map.into_iter().collect();
        v.sort_by_key(|(op, _)| *op);
        v
    };

    let mut results: Vec<ReplicaResult> = Vec::new();
    let outcome: Result<(), ExecError> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &(stage, replica) in &replicas {
            let rx = receivers
                .remove(&(stage, replica))
                .expect("receiver exists");
            let worker = Worker {
                graph,
                sg,
                stage,
                replica,
                rx,
                senders: Arc::clone(&senders),
                batch: Arc::clone(&batch),
                trace: Arc::clone(&trace),
                ext_inputs: ext_inputs_of(stage),
                ext_outputs: ext_outputs_of(stage),
                fwd_buf: HashMap::new(),
                bwd_buf: HashMap::new(),
            };
            let params_ref: &ModelParams = params;
            let worker_tele = telemetry.clone();
            let handle = scope.spawn(move || {
                let _replica_span =
                    worker_tele.span_under_with("exec.replica", replica as u64, iteration_id);
                let start_ns = worker_tele.now_nanos();
                let mut runner =
                    StageRunner::new(graph, &sg.stage(stage).ops, params_ref, sg.mini_batch());
                worker.run(&mut runner, schedule)?;
                if let Some(hist) =
                    worker_tele.histogram(&format!("exec.stage{}.wall_ns", stage.index()))
                {
                    hist.record(worker_tele.now_nanos().saturating_sub(start_ns));
                }
                let grads = runner.grads().clone();
                Ok::<_, ExecError>(((stage, replica), grads, runner.loss()))
            });
            handles.push(handle);
        }
        for handle in handles {
            match handle.join() {
                Ok(Ok(res)) => results.push(res),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(ExecError::WorkerPanicked),
            }
        }
        Ok(())
    });
    outcome?;

    // Deterministic synchronous update: sum replica gradients in roster
    // order (the data-parallel allreduce), then step.
    results.sort_by_key(|(key, _, _)| *key);
    let mut grads = params.zeros_like();
    let mut loss = 0.0f32;
    for (_, replica_grads, partial_loss) in &results {
        for (&op, g) in replica_grads {
            grads.op_mut(op).accumulate(g);
        }
        loss += partial_loss;
    }
    params.sgd_step(&grads, lr);
    let trace = Arc::try_unwrap(trace)
        .expect("all workers joined")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    Ok(IterationResult { loss, trace })
}

/// Runs `steps` distributed training iterations on a fixed batch, returning
/// the per-step losses.
///
/// # Errors
///
/// Propagates worker failures from [`train_iteration`].
pub fn train(
    graph: &Graph,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    params: &mut ModelParams,
    batch: &HashMap<OpId, Tensor>,
    lr: f32,
    steps: usize,
) -> Result<Vec<f32>, ExecError> {
    train_traced(
        graph,
        sg,
        schedule,
        params,
        batch,
        lr,
        steps,
        &Telemetry::disabled(),
    )
}

/// [`train`], emitting one `exec.step` span per iteration plus everything
/// [`train_iteration_traced`] records. Telemetry is write-only; the
/// returned losses are identical with it enabled or disabled.
///
/// # Errors
///
/// Propagates worker failures from [`train_iteration`].
#[allow(clippy::too_many_arguments)]
pub fn train_traced(
    graph: &Graph,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    params: &mut ModelParams,
    batch: &HashMap<OpId, Tensor>,
    lr: f32,
    steps: usize,
    telemetry: &Telemetry,
) -> Result<Vec<f32>, ExecError> {
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let _step_span = telemetry.span_with("exec.step", step as u64);
        let result = train_iteration_traced(graph, sg, schedule, params, batch, lr, telemetry)?;
        losses.push(result.loss);
    }
    Ok(losses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(stage: u32, row_start: usize, rows: Vec<f32>) -> ChunkMsg {
        ChunkMsg {
            fwd: false,
            op: OpId(0),
            from_stage: StageId(stage),
            row_start,
            data: Tensor::new(vec![rows.len(), 1], rows),
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gradient_chunks_sum_in_stage_order_whatever_their_arrival() {
        // Three consumer stages' gradients for rows [0, 2), plus one chunk
        // reaching past them. Row 0's f32 sum depends on the order of the
        // additions: (1e8 + -1e8) + 1 = 1, but (1e8 + 1) + -1e8 = 0.
        let chunks = [
            chunk(1, 0, vec![1e8, 0.5]),
            chunk(2, 0, vec![-1e8, 0.25]),
            chunk(3, 0, vec![1.0, 0.125]),
            chunk(3, 1, vec![2.0, 4.0]),
        ];
        let want = assemble(&chunks, 0, 2, 1);
        assert_eq!(want.data(), &[1.0, 2.875], "(from_stage, row_start) order");
        for perm in [[3, 2, 1, 0], [2, 0, 3, 1], [0, 2, 1, 3], [1, 3, 0, 2]] {
            let arrived: Vec<ChunkMsg> = perm.iter().map(|&i| chunks[i].clone()).collect();
            assert_eq!(
                bits(&assemble(&arrived, 0, 2, 1)),
                bits(&want),
                "arrival order {perm:?}"
            );
        }
    }
}
