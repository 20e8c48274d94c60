//! Feature-level integration tests: the paper's optional/extension modes
//! (per-stage micro-batch sizes, kFkB schedules beyond 1F1B) and
//! cross-planner consistency on degenerate topologies.

use graphpipe::prelude::*;
use graphpipe::sched::{assign_in_flight, schedule_tasks, StageGraph, StageId};
use graphpipe::PlannerKind;

/// §6: "users can choose to search over per-stage micro-batch sizes" — the
/// generalized mode must produce valid strategies that may mix sizes, and
/// never do worse (by planner estimate) than the uniform default.
#[test]
fn per_stage_micro_batch_mode_plans_valid_strategies() {
    let model = zoo::candle_uno(&zoo::CandleUnoConfig::tiny());
    let cluster = Cluster::summit_like(3).with_memory_capacity(1 << 30);
    let opts = PlanOptions {
        per_stage_micro_batch: true,
        micro_batch_candidates: Some(vec![2, 4]),
        ..PlanOptions::default()
    };
    let plan = GraphPipePlanner::with_options(opts)
        .plan(&model, &cluster, 8)
        .unwrap();
    verify_plan(model.graph(), &cluster, &plan)
        .into_result()
        .unwrap();
    // Every stage size is one of the candidates and divides the mini-batch.
    for s in plan.stage_graph.stages() {
        assert!([2, 4].contains(&s.micro_batch), "b={}", s.micro_batch);
    }
    // The generalized schedule still simulates and executes.
    let report = graphpipe::simulate_plan(&model, &cluster, &plan).unwrap();
    assert!(report.throughput > 0.0);
}

/// kFkB schedules with k > 1 are searchable and produce valid plans.
#[test]
fn kfkb_candidates_are_searched() {
    let model = zoo::mlp_chain(6, 64);
    let cluster = Cluster::summit_like(3);
    let opts = PlanOptions {
        kfkb_candidates: vec![1, 2],
        ..PlanOptions::default()
    };
    let plan = GraphPipePlanner::with_options(opts)
        .plan(&model, &cluster, 16)
        .unwrap();
    verify_plan(model.graph(), &cluster, &plan)
        .into_result()
        .unwrap();
    assert!(plan
        .stage_graph
        .stages()
        .all(|s| s.kfkb == 1 || s.kfkb == 2));
    let report = graphpipe::simulate_plan(&model, &cluster, &plan).unwrap();
    assert!(report.throughput > 0.0);
}

/// A hand-built per-stage-k strategy schedules and simulates correctly.
#[test]
fn explicit_2f2b_schedule_executes() {
    use graphpipe::cluster::DeviceRange;
    use graphpipe::sched::Stage;
    let model = zoo::mlp_chain(4, 32);
    let cluster = Cluster::tiny_test(2);
    let ops = model.linearize();
    let stages = vec![
        Stage {
            id: StageId(0),
            ops: ops[..5].to_vec(),
            devices: DeviceRange::new(0, 1),
            micro_batch: 2,
            kfkb: 2,
        },
        Stage {
            id: StageId(1),
            ops: ops[5..].to_vec(),
            devices: DeviceRange::new(1, 1),
            micro_batch: 2,
            kfkb: 2,
        },
    ];
    let sg = StageGraph::new(model.graph(), &cluster, stages, 16).unwrap();
    let inflight = assign_in_flight(&sg);
    // 2F2B sink keeps k*b = 4 samples; upstream adds per Table 2.
    assert_eq!(inflight.samples(StageId(1)), 4);
    assert!(inflight.samples(StageId(0)) > 4);
    let schedule = schedule_tasks(&sg, &inflight);
    verify_schedule(&sg, &schedule).into_result().unwrap();
    let report = gp_sim::simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    assert!(report.throughput > 0.0);
}

/// Degenerate topologies: a single-op-per-branch model plans fine.
#[test]
fn single_op_branches_plan() {
    use graphpipe::ir::{GraphBuilder, OpKind, Shape, SpBlock, SpModel};
    let mut b = GraphBuilder::new();
    let mut branch_blocks = Vec::new();
    let mut outs = Vec::new();
    for i in 0..3 {
        let x = b.input(format!("x{i}"), Shape::vector(64));
        let fc = b.linear(format!("fc{i}"), x, 64, true).unwrap();
        branch_blocks.push(SpBlock::Chain(vec![SpBlock::Leaf(x), SpBlock::Leaf(fc)]));
        outs.push(fc);
    }
    let cat = b.op("cat", OpKind::Concat, &outs).unwrap();
    let loss = b.loss("loss", &[cat]);
    let model = SpModel::new(
        "stub",
        b.finish().unwrap(),
        SpBlock::Chain(vec![
            SpBlock::Branches(branch_blocks),
            SpBlock::Leaf(cat),
            SpBlock::Leaf(loss),
        ]),
    )
    .unwrap();
    for devices in [1usize, 2, 3, 4] {
        let cluster = Cluster::summit_like(devices);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 16).unwrap();
        verify_plan(model.graph(), &cluster, &plan)
            .into_result()
            .unwrap();
        assert!(
            graphpipe::simulate_plan(&model, &cluster, &plan)
                .unwrap()
                .throughput
                > 0.0
        );
    }
}

/// One device degenerates to a single stage for every planner.
#[test]
fn single_device_is_a_single_stage() {
    let model = zoo::mmt(&zoo::MmtConfig::tiny());
    let cluster = Cluster::summit_like(1).with_memory_capacity(1 << 30);
    for kind in [
        PlannerKind::GraphPipe,
        PlannerKind::PipeDream,
        PlannerKind::Piper,
    ] {
        let plan = kind
            .build(PlanOptions::default(), &Telemetry::disabled())
            .plan(&model, &cluster, 8)
            .unwrap();
        assert_eq!(plan.stage_graph.len(), 1, "{}", kind.label());
        assert_eq!(plan.pipeline_depth(), 1);
    }
}

/// The `Session::evaluate` sweep respects explicit candidate lists.
#[test]
fn evaluate_uses_explicit_candidates() {
    let model = zoo::candle_uno(&zoo::CandleUnoConfig::tiny());
    let cluster = Cluster::summit_like(2).with_memory_capacity(1 << 30);
    let opts = PlanOptions {
        micro_batch_candidates: Some(vec![2, 8]),
        ..PlanOptions::default()
    };
    let res = Session::builder()
        .model(model)
        .cluster(cluster)
        .mini_batch(16)
        .options(opts)
        .build()
        .unwrap()
        .evaluate(PlannerKind::GraphPipe)
        .unwrap();
    let swept: Vec<u64> = res.per_micro_batch.iter().map(|(b, _)| *b).collect();
    assert_eq!(swept, vec![2, 8]);
}

/// SPP strategies really are sequential: every stage depends on its
/// predecessor even when the data graph does not require it.
#[test]
fn spp_sequentiality_is_enforced() {
    let model = zoo::candle_uno(&zoo::CandleUnoConfig::default());
    let cluster = Cluster::summit_like(8);
    let plan = PipeDreamPlanner::new()
        .plan(&model, &cluster, 1024)
        .unwrap();
    for i in 1..plan.stage_graph.len() as u32 {
        assert!(
            plan.stage_graph.preds(StageId(i)).contains(&StageId(i - 1)),
            "stage {i} lacks the imposed sequential edge"
        );
    }
}
