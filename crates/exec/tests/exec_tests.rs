//! Integration tests for the threaded runtime: the pipelined, distributed
//! execution must be *semantically identical* to single-device training.

use gp_cluster::{Cluster, DeviceRange};
use gp_cost::Pass;
use gp_exec::{reference_step, synth_batch, train, train_iteration, ExecError, ModelParams};
use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig};
use gp_ir::{OpId, SpModel};
use gp_partition::{GraphPipePlanner, Planner};
use gp_sched::{assign_in_flight, schedule_tasks, Stage, StageGraph, StageId};
use std::collections::HashMap;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Builds a hand-rolled stage graph: `cuts` are op-count prefixes, one
/// device per stage unless `dp` widens a stage.
fn manual_stage_graph(
    model: &SpModel,
    cuts: &[usize],
    devices_per_stage: &[u32],
    micro_batch: u64,
    mini_batch: u64,
) -> (Cluster, StageGraph) {
    let ops = model.linearize();
    let total: u32 = devices_per_stage.iter().sum();
    let cluster = Cluster::tiny_test(total as usize);
    let mut stages = Vec::new();
    let mut prev = 0usize;
    let mut dev = 0u32;
    for (i, (&cut, &d)) in cuts.iter().zip(devices_per_stage).enumerate() {
        stages.push(Stage {
            id: StageId(i as u32),
            ops: ops[prev..cut].to_vec(),
            devices: DeviceRange::new(dev, d),
            micro_batch,
            kfkb: 1,
        });
        prev = cut;
        dev += d;
    }
    let sg = StageGraph::new(model.graph(), &cluster, stages, mini_batch).unwrap();
    (cluster, sg)
}

/// Gradient equivalence: pipelined distributed execution == full-batch
/// single-device execution (up to f32 summation-order noise).
fn assert_equivalent(model: &SpModel, sg: &StageGraph, mini_batch: u64) {
    let g = model.graph();
    let schedule = schedule_tasks(sg, &assign_in_flight(sg));
    let batch = synth_batch(g, mini_batch, 99);
    let init = ModelParams::init(g, 5);

    let (ref_loss, ref_grads) = reference_step(g, &init, &batch, mini_batch);

    let mut dist_params = init.clone();
    let result = train_iteration(g, sg, &schedule, &mut dist_params, &batch, 0.0).unwrap();
    assert!(
        (result.loss - ref_loss).abs() / ref_loss.max(1e-6) < 1e-3,
        "loss mismatch: dist {} vs ref {ref_loss}",
        result.loss
    );
    // With lr = 0 parameters are unchanged; compare the gradient step with
    // lr = 1 instead.
    let mut stepped_ref = init.clone();
    stepped_ref.sgd_step(&ref_grads, 1.0);
    let mut stepped_dist = init.clone();
    let _ = train_iteration(g, sg, &schedule, &mut stepped_dist, &batch, 1.0).unwrap();
    let diff = stepped_dist.max_abs_diff(&stepped_ref);
    assert!(diff < 5e-4, "gradient divergence {diff}");
}

#[test]
fn two_stage_chain_is_gradient_equivalent() {
    let model = zoo::mlp_chain(4, 8);
    let n = model.graph().len();
    let (_, sg) = manual_stage_graph(&model, &[n / 2, n], &[1, 1], 2, 8);
    assert_equivalent(&model, &sg, 8);
}

#[test]
fn branchy_model_with_parallel_stages_is_gradient_equivalent() {
    let model = zoo::candle_uno(&CandleUnoConfig::tiny());
    // Branch 0 ops 0..5, branch 1 ops 5..10, merge 10..; stages run the
    // branches concurrently on separate threads.
    let (_, sg) = manual_stage_graph(&model, &[5, 10, model.graph().len()], &[1, 1, 1], 2, 8);
    assert!(sg.pipeline_depth() < sg.len());
    assert_equivalent(&model, &sg, 8);
}

#[test]
fn data_parallel_replicas_are_gradient_equivalent() {
    let model = zoo::mlp_chain(4, 8);
    let n = model.graph().len();
    let (_, sg) = manual_stage_graph(&model, &[n / 2, n], &[2, 2], 2, 8);
    assert_equivalent(&model, &sg, 8);
}

/// `mlp_chain(4, 8)` split in two stages of one device each, at
/// mini-batch 8; stage 0 runs micro-batches of 2, stage 1 of 4 (the
/// Figure 5 situation).
fn heterogeneous_stage_graph(model: &SpModel) -> StageGraph {
    let ops = model.linearize();
    let n = ops.len();
    let cluster = Cluster::tiny_test(2);
    let stages = vec![
        Stage {
            id: StageId(0),
            ops: ops[..n / 2].to_vec(),
            devices: DeviceRange::new(0, 1),
            micro_batch: 2,
            kfkb: 1,
        },
        Stage {
            id: StageId(1),
            ops: ops[n / 2..].to_vec(),
            devices: DeviceRange::new(1, 1),
            micro_batch: 4,
            kfkb: 1,
        },
    ];
    StageGraph::new(model.graph(), &cluster, stages, 8).unwrap()
}

#[test]
fn heterogeneous_micro_batches_are_gradient_equivalent() {
    let model = zoo::mlp_chain(4, 8);
    let sg = heterogeneous_stage_graph(&model);
    assert_equivalent(&model, &sg, 8);
}

#[test]
fn mmt_under_planner_strategy_is_gradient_equivalent() {
    let model = zoo::mmt(&MmtConfig::tiny());
    let cluster = Cluster::summit_like(3).with_memory_capacity(1 << 30);
    let plan = GraphPipePlanner::new().plan(&model, &cluster, 8).unwrap();
    assert_equivalent(&model, &plan.stage_graph, 8);
}

#[test]
fn dlrm_under_planner_strategy_is_gradient_equivalent() {
    let model = zoo::dlrm(&DlrmConfig::tiny());
    let cluster = Cluster::summit_like(4).with_memory_capacity(1 << 30);
    let plan = GraphPipePlanner::new().plan(&model, &cluster, 8).unwrap();
    assert_equivalent(&model, &plan.stage_graph, 8);
}

#[test]
fn distributed_training_converges() {
    let model = zoo::candle_uno(&CandleUnoConfig::tiny());
    let g = model.graph();
    let (_, sg) = manual_stage_graph(&model, &[5, 10, g.len()], &[1, 1, 1], 2, 8);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let batch = synth_batch(g, 8, 3);
    let mut params = ModelParams::init(g, 1);
    let losses = train(g, &sg, &schedule, &mut params, &batch, 0.05, 6).unwrap();
    assert!(
        losses.last().unwrap() < losses.first().unwrap(),
        "loss did not decrease: {losses:?}"
    );
}

#[test]
fn execution_trace_follows_the_kfkb_order() {
    let model = zoo::mlp_chain(4, 8);
    let n = model.graph().len();
    let (_, sg) = manual_stage_graph(&model, &[n / 2, n], &[1, 1], 2, 8);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let batch = synth_batch(model.graph(), 8, 3);
    let mut params = ModelParams::init(model.graph(), 1);
    let result = train_iteration(model.graph(), &sg, &schedule, &mut params, &batch, 0.1).unwrap();
    // Per (stage, replica) the trace must equal the replica's slice of the
    // stage's task order.
    for s in sg.stages() {
        for r in 0..s.dp_degree() as u32 {
            let expected: Vec<(u32, Pass)> = schedule
                .stage(s.id)
                .tasks
                .iter()
                .filter(|t| t.mb % s.dp_degree() as u32 == r)
                .map(|t| (t.mb, t.pass))
                .collect();
            let observed: Vec<(u32, Pass)> = result
                .trace
                .iter()
                .filter(|e| e.stage == s.id && e.replica == r)
                .map(|e| (e.mb, e.pass))
                .collect();
            assert_eq!(observed, expected, "stage {} replica {r}", s.id);
        }
    }
}

#[test]
fn per_stage_loss_sums_to_reference() {
    // Loss lives in the last stage only; the runtime must surface it.
    let model = zoo::mlp_chain(2, 8);
    let g = model.graph();
    let n = g.len();
    let (_, sg) = manual_stage_graph(&model, &[n / 2, n], &[1, 1], 4, 8);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let batch = synth_batch(g, 8, 17);
    let params = ModelParams::init(g, 23);
    let (ref_loss, _) = reference_step(g, &params, &batch, 8);
    let mut p = params.clone();
    let result = train_iteration(g, &sg, &schedule, &mut p, &batch, 0.0).unwrap();
    assert!((result.loss - ref_loss).abs() < 1e-4 * ref_loss.max(1.0));
}

#[test]
fn input_ops_consume_batch_rows_in_order() {
    // Two branches with separate inputs: each stage slices its own rows.
    let model = zoo::candle_uno(&CandleUnoConfig::tiny());
    let g = model.graph();
    let (_, sg) = manual_stage_graph(&model, &[5, 10, g.len()], &[1, 1, 1], 4, 8);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let batch = synth_batch(g, 8, 31);
    let mut params = ModelParams::init(g, 3);
    // Smoke: runs to completion with inputs spread across two stages.
    let inputs: Vec<OpId> = g.sources();
    assert_eq!(inputs.len(), 2);
    let result = train_iteration(g, &sg, &schedule, &mut params, &batch, 0.1).unwrap();
    assert!(result.loss.is_finite());
}

/// `mlp_chain(4, 8)` in two stages of two data-parallel replicas each, at
/// micro-batch 2 and mini-batch 8: four micro-batches, two per replica.
fn two_replica_stage_graph(model: &SpModel) -> StageGraph {
    let n = model.graph().len();
    manual_stage_graph(model, &[n / 2, n], &[2, 2], 2, 8).1
}

/// `train`'s losses as f32 bits: 4 steps at lr 0.05, data seed 3,
/// parameter seed 1.
fn loss_bits(model: &SpModel, sg: &StageGraph) -> Vec<u32> {
    let g = model.graph();
    let schedule = schedule_tasks(sg, &assign_in_flight(sg));
    let batch = synth_batch(g, sg.mini_batch(), 3);
    let mut params = ModelParams::init(g, 1);
    let losses = train(g, sg, &schedule, &mut params, &batch, 0.05, 4).unwrap();
    losses.iter().map(|l| l.to_bits()).collect()
}

/// The f32 bits of `train`'s losses on three stage graphs that sum
/// gradients across micro-batches, replicas or branches. Linear, ReLU and
/// the L2 loss call no libm function, so every f32 operation is
/// IEEE-exact and the bits are the same on every host. Every loss after
/// the first is taken at parameters that SGD updated, so these also pin
/// the update's rounding: the replicas' gradients summed in replica order,
/// each micro-batch's gradient accumulated in task order.
#[test]
fn multi_replica_and_multi_micro_batch_losses_are_pinned_to_the_bit() {
    let mlp = zoo::mlp_chain(4, 8);
    let candle = zoo::candle_uno(&CandleUnoConfig::tiny());
    let n = candle.graph().len();
    let (_, branches) = manual_stage_graph(&candle, &[5, 10, n], &[1, 1, 1], 2, 8);
    let cases: [(&str, &SpModel, StageGraph, [u32; 4]); 3] = [
        (
            "mlp 2x2 replicas",
            &mlp,
            two_replica_stage_graph(&mlp),
            [990014508, 988209624, 986528645, 985085278],
        ),
        (
            "mlp micro-batch 2/4",
            &mlp,
            heterogeneous_stage_graph(&mlp),
            [990014506, 988209624, 986528644, 985085278],
        ),
        (
            "candle-uno branches",
            &candle,
            branches,
            [966725978, 966117150, 965576150, 965095258],
        ),
    ];
    for (name, model, sg, want) in cases {
        assert_eq!(loss_bits(model, &sg), want, "{name}");
    }
}

/// A `train` call of `n` steps leaves nothing behind from one step for the
/// next: it gives the same loss bits and the same parameters as `n` calls
/// of `train_iteration`, each of which starts from scratch.
#[test]
fn train_steps_match_one_iteration_call_per_step() {
    let model = zoo::mlp_chain(4, 8);
    let g = model.graph();
    let sg = two_replica_stage_graph(&model);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let batch = synth_batch(g, 8, 3);
    let init = ModelParams::init(g, 1);
    let mut whole = init.clone();
    let losses = train(g, &sg, &schedule, &mut whole, &batch, 0.05, 5).unwrap();
    let mut stepped = init;
    let mut one_by_one = Vec::new();
    for _ in 0..5 {
        let result = train_iteration(g, &sg, &schedule, &mut stepped, &batch, 0.05).unwrap();
        one_by_one.push(result.loss.to_bits());
    }
    let whole_bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(whole_bits, one_by_one);
    assert_eq!(whole.max_abs_diff(&stepped), 0.0);
}

/// A worker that panics stops its peers: the call returns `WorkerPanicked`
/// instead of leaving the other workers blocked on their channels, and the
/// caller's parameters keep their values. An empty batch makes every stage
/// that reads an input panic ("missing input data") while the stages
/// after it wait for activations. Each call runs on its own thread, so a
/// hang fails the test after the timeout instead of hanging the suite.
#[test]
fn a_worker_panic_ends_the_call_with_an_error() {
    let mmt = zoo::mmt(&MmtConfig::tiny());
    let plan = GraphPipePlanner::new()
        .plan(&mmt, &Cluster::summit_like(2), 8)
        .unwrap();
    let mlp = zoo::mlp_chain(4, 8);
    let replicated = two_replica_stage_graph(&mlp);
    let cases = [
        ("mmt-tiny plan", mmt, plan.stage_graph, 1),
        ("mlp 2x2 replicas", mlp, replicated, 3),
    ];
    for (name, model, sg, steps) in cases {
        assert!(sg.len() >= 2, "{name}: two connected stages");
        let (tx, rx) = mpsc::channel();
        let call = thread::spawn(move || {
            let g = model.graph();
            let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
            let init = ModelParams::init(g, 1);
            let mut params = init.clone();
            let empty = HashMap::new();
            let result = if steps == 1 {
                train_iteration(g, &sg, &schedule, &mut params, &empty, 0.05).map(|r| vec![r.loss])
            } else {
                train(g, &sg, &schedule, &mut params, &empty, 0.05, steps)
            };
            let _ = tx.send((result, params.max_abs_diff(&init)));
        });
        let (result, moved) = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{name}: the call did not return: {e}"));
        call.join()
            .expect("the calling thread ends once the call returns");
        assert_eq!(result, Err(ExecError::WorkerPanicked), "{name}");
        assert_eq!(moved, 0.0, "{name}: parameters changed");
    }
}
