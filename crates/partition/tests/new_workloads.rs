//! Planner coverage for the zoo's stress workloads (the full 21-branch
//! CANDLE-Uno and the shared-trunk Mixture-of-Experts model), with every
//! plan checked by the static verifier.

use gp_cluster::Cluster;
use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};
use gp_ir::SpModel;
use gp_partition::{GraphPipePlanner, Plan, PlanOptions, Planner};
use gp_verify::verify_plan;

/// Panics with the first violation unless `plan` verifies clean.
fn assert_verifies(model: &SpModel, cluster: &Cluster, plan: &Plan) {
    if let Err(e) = verify_plan(model.graph(), cluster, plan).into_result() {
        panic!("{}: {e}", model.name());
    }
}

#[test]
fn plans_full_candle_uno() {
    let model = zoo::candle_uno(&CandleUnoConfig::full());
    let cluster = Cluster::summit_like(8);
    let plan = GraphPipePlanner::new()
        .plan(&model, &cluster, 1024)
        .expect("full CANDLE-Uno is plannable at 8 GPUs");
    assert_verifies(&model, &cluster, &plan);
    assert!(plan.bottleneck_tps > 0.0);
    // The branch structure must shrink the pipeline below the stage count
    // whenever the planner opens more than one branch stage.
    assert!(plan.pipeline_depth() <= plan.stage_graph.len());
}

#[test]
fn plans_moe_with_shared_trunk() {
    let model = zoo::moe(&MoeConfig::default());
    let cluster = Cluster::summit_like(8);
    let plan = GraphPipePlanner::new()
        .plan(&model, &cluster, 256)
        .expect("MoE is plannable at 8 GPUs");
    // Device coverage is one of the verified checks.
    assert_verifies(&model, &cluster, &plan);
}

#[test]
fn plans_moe_tiny_on_small_cluster() {
    let model = zoo::moe(&MoeConfig::tiny());
    let cluster = Cluster::summit_like(2);
    let plan = GraphPipePlanner::new()
        .plan(&model, &cluster, 16)
        .expect("tiny MoE is plannable at 2 GPUs");
    assert_verifies(&model, &cluster, &plan);
}

/// The cells `dp::tests` plans, verified here: a unit test cannot hand its
/// own crate's `Plan` to gp-verify.
#[test]
fn unit_test_cells_verify_clean() {
    let plain = PlanOptions::default();
    let tight = PlanOptions::default().with_epsilon(f64::EPSILON);
    for (model, devices, mini_batch, options) in [
        (zoo::mlp_chain(8, 512), 4, 32, &plain),
        (zoo::case_study(&MmtConfig::default()), 8, 64, &plain),
        (zoo::dlrm(&DlrmConfig::default()), 8, 512, &plain),
        (zoo::mlp_chain(2, 512), 4, 32, &tight),
    ] {
        let cluster = Cluster::summit_like(devices);
        let plan = GraphPipePlanner::with_options(options.clone())
            .plan(&model, &cluster, mini_batch)
            .unwrap();
        assert_verifies(&model, &cluster, &plan);
    }
}
