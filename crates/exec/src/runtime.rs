//! The threaded distributed-training runtime.
//!
//! One OS thread per stage *replica* plays the role of one GPU. A call
//! spawns the workers once and runs all of its training steps on them.
//! Each worker keeps its channels, routing tables, task list and
//! [`StageRunner`] from step to step, and the runner owns the stage's
//! parameters. Within a step a worker executes its stage's task order
//! (from `gp-sched`), exchanges activation and gradient chunks with
//! neighbouring stages over `std::sync::mpsc` channels, and accumulates
//! weight gradients; after its last task it applies SGD to its own
//! parameters. The replicas of a data-parallel stage first swap their
//! gradients, and each sums them in replica order (the allreduce), so
//! every replica takes the same step. The main thread is only the
//! synchronous barrier: one message to each worker starts a step, and one
//! loss report from each ends it. That preserves exactly the
//! synchronous-1F1B training semantics the paper's runtime guarantees
//! ("the DNN training semantics is preserved, thus statistical convergence
//! issues do not arise", §8).
//!
//! Chunk routing works in global sample coordinates: replica `r` of a stage
//! with `d` replicas owns micro-batches `mb % d == r`; producers ship whole
//! micro-batch chunks to every consumer replica whose rows overlap, and
//! consumers assemble/sum the intersecting rows. This supports per-stage
//! micro-batch sizes out of the box.

use crate::data::input_rows;
use crate::module::{ModelParams, OpParams};
use crate::stage::StageRunner;
use gp_cost::Pass;
use gp_ir::{Graph, OpId};
use gp_obs::{SpanId, Telemetry};
use gp_sched::{PipelineSchedule, StageGraph, StageId, Task};
use gp_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

/// Errors raised by the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread panicked. The other workers were stopped, and the
    /// caller's parameters keep their values from before the call.
    WorkerPanicked,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
    /// Every task, each replica's in the order it ran them, replicas in
    /// (stage, replica) order (for schedule-conformance tests).
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

/// A message to one worker.
enum Msg {
    /// Run one training step under this `exec.iteration` span.
    Step(SpanId),
    /// An activation or gradient chunk from a neighbouring stage.
    Chunk(ChunkMsg),
    /// A peer replica's gradients, for this step's replica sum.
    Grads {
        replica: u32,
        grads: Arc<Vec<OpParams>>,
    },
    /// Abandon the call: a worker panicked.
    Abort,
}

/// A worker's answer to a step: its roster position and partial loss, or
/// `None` if it panicked.
type Report = Option<(usize, f32)>;

/// The main thread aborted the call.
struct Aborted;

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

/// Replicas of `stage` owning micro-batches overlapping rows `[lo, hi)`;
/// at most `d` consecutive micro-batches have distinct owners.
fn target_replicas(
    sg: &StageGraph,
    stage: StageId,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = u32> {
    let s = sg.stage(stage);
    let b = s.micro_batch as usize;
    let d = s.dp_degree();
    (lo / b..hi.div_ceil(b))
        .take(d)
        .map(move |mb| (mb % d) as u32)
}

/// Producer ops in other stages feeding `stage`.
fn ext_inputs_of(graph: &Graph, sg: &StageGraph, stage: StageId) -> Vec<OpId> {
    let mut v: Vec<OpId> = Vec::new();
    for &op in &sg.stage(stage).ops {
        for &p in graph.preds(op) {
            if sg.stage_of(p) != stage && !v.contains(&p) {
                v.push(p);
            }
        }
    }
    v.sort();
    v
}

/// `stage`'s ops with consumers in other stages, and those stages.
fn ext_outputs_of(graph: &Graph, sg: &StageGraph, stage: StageId) -> Vec<(OpId, Vec<StageId>)> {
    let mut v: Vec<(OpId, Vec<StageId>)> = Vec::new();
    for &op in &sg.stage(stage).ops {
        let mut consumers: Vec<StageId> = Vec::new();
        for &succ in graph.succs(op) {
            let ss = sg.stage_of(succ);
            if ss != stage && !consumers.contains(&ss) {
                consumers.push(ss);
            }
        }
        if !consumers.is_empty() {
            v.push((op, consumers));
        }
    }
    v.sort_by_key(|(op, _)| *op);
    v
}

/// Every worker's channel, in (stage, replica) order.
struct Roster {
    senders: Vec<Sender<Msg>>,
    /// Position of each stage's replica 0 in `senders`.
    first: Vec<usize>,
}

impl Roster {
    fn send(&self, stage: StageId, replica: u32, msg: Msg) {
        // A closed channel means its worker panicked; the main thread
        // learns that from the worker's report.
        let _ = self.senders[self.first[stage.index()] + replica as usize].send(msg);
    }
}

/// Messages a worker has received but not used yet.
struct Inbox {
    rx: Receiver<Msg>,
    fwd: Buffers,
    bwd: Buffers,
    /// This step's gradients from each peer replica.
    grads: Vec<Option<Arc<Vec<OpParams>>>>,
}

impl Inbox {
    /// Waits for the next message and files chunks and gradients; a step
    /// start is handed back.
    fn recv(&mut self) -> Result<Option<SpanId>, Aborted> {
        match self.rx.recv() {
            Ok(Msg::Step(iteration)) => Ok(Some(iteration)),
            Ok(Msg::Chunk(msg)) => {
                let buf = if msg.fwd {
                    &mut self.fwd
                } else {
                    &mut self.bwd
                };
                buf.entry(msg.op).or_default().push(msg);
                Ok(None)
            }
            Ok(Msg::Grads { replica, grads }) => {
                self.grads[replica as usize] = Some(grads);
                Ok(None)
            }
            Ok(Msg::Abort) | Err(_) => Err(Aborted),
        }
    }

    /// Waits for one chunk or gradient message, mid-step.
    fn fill(&mut self) -> Result<(), Aborted> {
        match self.recv()? {
            None => Ok(()),
            Some(_) => unreachable!("a step started before every worker ended the last"),
        }
    }

    /// Waits for the next step. Chunks that peers already sent for it are
    /// filed.
    fn next_step(&mut self) -> Result<SpanId, Aborted> {
        loop {
            if let Some(iteration) = self.recv()? {
                return Ok(iteration);
            }
        }
    }

    /// Drops this step's messages, keeping the allocations.
    fn clear(&mut self) {
        for chunks in self.fwd.values_mut().chain(self.bwd.values_mut()) {
            chunks.clear();
        }
        self.grads.fill(None);
    }
}

/// Tells the main thread when its worker unwinds, so that a panic ends the
/// call instead of leaving the other workers waiting on the dead one.
struct ReportPanic<'a>(&'a Sender<Report>);

impl Drop for ReportPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(None);
        }
    }
}

/// One stage replica: everything it keeps from step to step.
struct Worker<'a> {
    graph: &'a Graph,
    sg: &'a StageGraph,
    roster: &'a Roster,
    stage: StageId,
    replica: u32,
    /// Position in the roster.
    at: usize,
    /// This replica's slice of the stage's task order.
    tasks: Vec<Task>,
    /// The stage's `Input` ops and their whole-batch data.
    inputs: Vec<(OpId, &'a Tensor)>,
    ext_inputs: Vec<OpId>,
    ext_outputs: Vec<(OpId, Vec<StageId>)>,
    inbox: Inbox,
    runner: StageRunner<'a>,
    /// The replica sum (data-parallel stages only).
    sum: Vec<OpParams>,
    /// The current step's tasks, in the order they ran.
    trace: Vec<TraceEvent>,
}

impl Worker<'_> {
    /// Runs `steps` steps, each started by the main thread, then hands
    /// back the stage's parameters and the last step's trace.
    fn serve(
        mut self,
        steps: usize,
        lr: f32,
        done: &Sender<Report>,
        telemetry: &Telemetry,
    ) -> (Vec<(OpId, OpParams)>, Vec<TraceEvent>) {
        let _report_panic = ReportPanic(done);
        let wall = telemetry.histogram(&format!("exec.stage{}.wall_ns", self.stage.index()));
        for _ in 0..steps {
            let Ok(iteration) = self.inbox.next_step() else {
                break;
            };
            let span = telemetry.span_under_with("exec.replica", self.replica as u64, iteration);
            let start_ns = telemetry.now_nanos();
            let Ok(loss) = self.step(lr) else { break };
            if let Some(hist) = &wall {
                hist.record(telemetry.now_nanos().saturating_sub(start_ns));
            }
            drop(span);
            let _ = done.send(Some((self.at, loss)));
        }
        (self.runner.into_params().collect(), self.trace)
    }

    /// One training step: the replica's tasks, then the update. Returns
    /// the step's partial loss.
    fn step(&mut self, lr: f32) -> Result<f32, Aborted> {
        let b = self.sg.stage(self.stage).micro_batch as usize;
        self.trace.clear();
        for i in 0..self.tasks.len() {
            let Task { pass, mb } = self.tasks[i];
            let (lo, hi) = (mb as usize * b, (mb as usize + 1) * b);
            match pass {
                Pass::Forward => {
                    let mut external: HashMap<OpId, Tensor> = self
                        .inputs
                        .iter()
                        .map(|&(op, data)| (op, input_rows(self.graph, op, data, lo, hi)))
                        .collect();
                    self.collect_forward_inputs(lo, hi, &mut external)?;
                    let outs = self.runner.forward(mb, external);
                    self.ship_forward_outputs(&outs, lo, hi);
                }
                Pass::Backward => {
                    let ext_grads = self.collect_backward_grads(lo, hi)?;
                    let upstream = self.runner.backward(mb, ext_grads);
                    self.ship_backward_grads(&upstream, lo);
                }
            }
            self.trace.push(TraceEvent {
                stage: self.stage,
                replica: self.replica,
                mb,
                pass,
            });
        }
        let loss = self.runner.loss();
        self.update(lr)?;
        self.inbox.clear();
        Ok(loss)
    }

    /// Applies SGD to the stage's parameters. A data-parallel replica first
    /// sends its gradients to its peers, then sums every replica's into a
    /// zeroed store in replica order, so all replicas take the same step.
    fn update(&mut self, lr: f32) -> Result<(), Aborted> {
        let d = self.inbox.grads.len() as u32;
        if d == 1 {
            self.runner.sgd_step(None, lr);
            return Ok(());
        }
        let mine = Arc::new(self.runner.grads().to_vec());
        for peer in (0..d).filter(|&r| r != self.replica) {
            let grads = Arc::clone(&mine);
            let msg = Msg::Grads {
                replica: self.replica,
                grads,
            };
            self.roster.send(self.stage, peer, msg);
        }
        while (0..d).any(|r| r != self.replica && self.inbox.grads[r as usize].is_none()) {
            self.inbox.fill()?;
        }
        for s in &mut self.sum {
            s.fill_zero();
        }
        // This replica's own slot stays empty: it is `mine`.
        for grads in &self.inbox.grads {
            let grads = grads.as_ref().unwrap_or(&mine);
            for (s, g) in self.sum.iter_mut().zip(grads.iter()) {
                s.accumulate(g);
            }
        }
        self.runner.sgd_step(Some(&self.sum), lr);
        Ok(())
    }

    fn collect_forward_inputs(
        &mut self,
        lo: usize,
        hi: usize,
        external: &mut HashMap<OpId, Tensor>,
    ) -> Result<(), Aborted> {
        for &op in &self.ext_inputs {
            let shape = &self.graph.node(op).out_shape;
            let per_sample = shape.numel();
            loop {
                let chunks = self.inbox.fwd.get(&op).map_or(&[][..], Vec::as_slice);
                let covered: usize = chunks
                    .iter()
                    .map(|c| overlap(c, lo, hi, per_sample).len())
                    .sum();
                if covered >= hi - lo {
                    let mut dims = vec![hi - lo];
                    dims.extend_from_slice(shape.dims());
                    let tensor = assemble(chunks, lo, hi, per_sample);
                    external.insert(op, tensor.reshape(dims));
                    break;
                }
                self.inbox.fill()?;
            }
        }
        Ok(())
    }

    fn ship_forward_outputs(&self, outs: &HashMap<OpId, Tensor>, lo: usize, hi: usize) {
        for (op, consumers) in &self.ext_outputs {
            let chunk = &outs[op];
            for &cons in consumers {
                for replica in target_replicas(self.sg, cons, lo, hi) {
                    let msg = Msg::Chunk(ChunkMsg {
                        fwd: true,
                        op: *op,
                        from_stage: self.stage,
                        row_start: lo,
                        data: chunk.clone(),
                    });
                    self.roster.send(cons, replica, msg);
                }
            }
        }
    }

    fn collect_backward_grads(
        &mut self,
        lo: usize,
        hi: usize,
    ) -> Result<HashMap<OpId, Tensor>, Aborted> {
        let mut out = HashMap::new();
        for (op, consumers) in &self.ext_outputs {
            let per_sample = self.graph.node(*op).out_shape.numel();
            loop {
                let chunks = self.inbox.bwd.get(op).map_or(&[][..], Vec::as_slice);
                // Each consuming stage must cover [lo, hi) exactly once.
                let complete = consumers.iter().all(|&cons| {
                    let covered: usize = chunks
                        .iter()
                        .filter(|c| c.from_stage == cons)
                        .map(|c| overlap(c, lo, hi, per_sample).len())
                        .sum();
                    covered >= hi - lo
                });
                if complete {
                    out.insert(*op, assemble(chunks, lo, hi, per_sample));
                    break;
                }
                self.inbox.fill()?;
            }
        }
        Ok(out)
    }

    fn ship_backward_grads(&self, upstream: &HashMap<OpId, Tensor>, lo: usize) {
        for (&op, grad) in upstream {
            let producer = self.sg.stage_of(op);
            let rows = grad.rows_for(self.graph.node(op).out_shape.numel());
            for replica in target_replicas(self.sg, producer, lo, lo + rows) {
                let msg = Msg::Chunk(ChunkMsg {
                    fwd: false,
                    op,
                    from_stage: self.stage,
                    row_start: lo,
                    data: grad.clone(),
                });
                self.roster.send(producer, replica, msg);
            }
        }
    }
}

/// The one engine under the four public entry points: spawns one worker
/// per stage replica, runs `steps` training steps on them, and writes the
/// trained parameters back into `params`. Returns each step's loss and the
/// last step's trace.
///
/// Each step opens an `exec.step` span and an `exec.iteration` span under
/// it; each worker opens one `exec.replica` span per step under the
/// iteration span and records one `exec.stage<N>.wall_ns` sample.
#[allow(clippy::too_many_arguments)]
fn run(
    graph: &Graph,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    params: &mut ModelParams,
    batch: &HashMap<OpId, Tensor>,
    lr: f32,
    steps: usize,
    telemetry: &Telemetry,
) -> Result<(Vec<f32>, Vec<TraceEvent>), ExecError> {
    let mut roster = Roster {
        senders: Vec::new(),
        first: Vec::new(),
    };
    let mut receivers = Vec::new();
    for stage in sg.stages() {
        roster.first.push(roster.senders.len());
        for _ in 0..stage.dp_degree() {
            let (tx, rx) = mpsc::channel();
            roster.senders.push(tx);
            receivers.push(rx);
        }
    }
    let mut receivers = receivers.into_iter();
    let mut workers = Vec::with_capacity(roster.senders.len());
    for stage in sg.stages() {
        let d = stage.dp_degree() as u32;
        for replica in 0..d {
            let runner = StageRunner::new(graph, &stage.ops, params, sg.mini_batch());
            let sum = if d > 1 {
                runner.grads().to_vec()
            } else {
                Vec::new()
            };
            workers.push(Worker {
                graph,
                sg,
                roster: &roster,
                stage: stage.id,
                replica,
                at: workers.len(),
                tasks: (schedule.stage(stage.id).tasks.iter())
                    .filter(|t| t.mb % d == replica)
                    .copied()
                    .collect(),
                inputs: (stage.ops.iter())
                    .filter_map(|op| batch.get(op).map(|data| (*op, data)))
                    .collect(),
                ext_inputs: ext_inputs_of(graph, sg, stage.id),
                ext_outputs: ext_outputs_of(graph, sg, stage.id),
                inbox: Inbox {
                    rx: receivers.next().expect("one receiver per replica"),
                    fwd: HashMap::new(),
                    bwd: HashMap::new(),
                    grads: vec![None; d as usize],
                },
                runner,
                sum,
                trace: Vec::new(),
            });
        }
    }

    let (done, reports) = mpsc::channel::<Report>();
    let trained = std::thread::scope(|scope| {
        let mut idle = Some(workers);
        let mut handles = Vec::new();
        let mut losses = Vec::with_capacity(steps);
        let mut partial = vec![0.0f32; roster.senders.len()];
        let mut failed = false;
        'steps: for step in 0..steps {
            let _step_span = telemetry.span_with("exec.step", step as u64);
            let iteration = telemetry.span("exec.iteration");
            for tx in &roster.senders {
                let _ = tx.send(Msg::Step(iteration.id()));
            }
            // Spawned once the first step is queued, so that no worker
            // starts by waiting to be woken.
            if let Some(workers) = idle.take() {
                handles = (workers.into_iter())
                    .map(|worker| {
                        let done = &done;
                        scope.spawn(move || worker.serve(steps, lr, done, telemetry))
                    })
                    .collect();
            }
            for _ in 0..partial.len() {
                let Ok(Some((at, loss))) = reports.recv() else {
                    failed = true;
                    break 'steps;
                };
                partial[at] = loss;
            }
            losses.push(partial.iter().fold(0.0, |sum, l| sum + l));
        }
        if failed {
            for tx in &roster.senders {
                let _ = tx.send(Msg::Abort);
            }
        }
        let mut stage_params = Vec::new();
        let mut trace = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok((p, t)) => {
                    stage_params.push(p);
                    trace.extend(t);
                }
                Err(_) => failed = true,
            }
        }
        (!failed).then_some((losses, stage_params, trace))
    });
    let (losses, stage_params, trace) = trained.ok_or(ExecError::WorkerPanicked)?;
    // The replicas of a stage hold the same parameters.
    for (op, p) in stage_params.into_iter().flatten() {
        *params.op_mut(op) = p;
    }
    Ok((losses, trace))
}

/// Runs one distributed training iteration of `plan` with real tensor math,
/// applying a synchronous SGD update to `params`.
///
/// # Errors
///
/// Returns [`ExecError::WorkerPanicked`] if a worker thread panics;
/// `params` are then left as they were.
pub fn train_iteration(
    graph: &Graph,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    params: &mut ModelParams,
    batch: &HashMap<OpId, Tensor>,
    lr: f32,
) -> Result<IterationResult, ExecError> {
    let (losses, trace) = run(
        graph,
        sg,
        schedule,
        params,
        batch,
        lr,
        1,
        &Telemetry::disabled(),
    )?;
    Ok(IterationResult {
        loss: losses[0],
        trace,
    })
}

/// Runs `steps` distributed training iterations on a fixed batch, returning
/// the per-step losses. The workers are spawned once for all the steps.
///
/// # Errors
///
/// Returns [`ExecError::WorkerPanicked`] if a worker thread panics;
/// `params` are then left as they were before the call.
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

/// [`train`], emitting telemetry. Each step opens an `exec.step` span and
/// an `exec.iteration` span under it; each stage-replica worker opens one
/// `exec.replica` span per step, parented under that step's iteration
/// span explicitly (workers run on their own threads), and records one
/// sample of its stage's wall time per step (`exec.stage<N>.wall_ns`).
/// Telemetry is write-only; the returned losses are identical with it
/// enabled or disabled.
///
/// # Errors
///
/// As [`train`].
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
    run(graph, sg, schedule, params, batch, lr, steps, telemetry).map(|(losses, _)| losses)
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
