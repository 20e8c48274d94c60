//! Integration tests for plan artifact fidelity: a decoded plan equals the
//! plan that was encoded, and simulates byte-identically to it.

use gp_cluster::Cluster;
use gp_ir::zoo::{self, CandleUnoConfig, MoeConfig};
use gp_obs::Telemetry;
use gp_partition::Plan;
use gp_serve::{artifact, PlanRequest, ServePlanner};
use std::sync::Arc;

/// Plans a request directly with the planner it names.
fn plan(request: &PlanRequest) -> Plan {
    request
        .planner
        .build(request.options.clone(), &Telemetry::disabled())
        .plan(&request.model, &request.cluster, request.mini_batch)
        .unwrap()
}

#[test]
fn decoded_plans_simulate_identically() {
    // The artifact round trip must preserve not only equality but observable
    // behaviour: simulating the decoded plan yields a byte-identical report.
    let model = Arc::new(zoo::moe(&MoeConfig::tiny()));
    let cluster = Cluster::summit_like(4);
    let plan = plan(&PlanRequest::new(Arc::clone(&model), cluster.clone(), 16));
    let text = artifact::encode_plan(&plan, None);
    let (decoded, _) = artifact::decode_plan(&text, model.graph(), &cluster).unwrap();
    let a = gp_sim::simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule).unwrap();
    let b = gp_sim::simulate(
        model.graph(),
        &cluster,
        &decoded.stage_graph,
        &decoded.schedule,
    )
    .unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn sequential_strategies_serve_and_round_trip() {
    let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny()));
    let cluster = Cluster::summit_like(4);
    let request = PlanRequest::new(Arc::clone(&model), cluster.clone(), 32)
        .with_planner(ServePlanner::PipeDream);
    let plan = plan(&request);
    let text = artifact::encode_plan(&plan, Some(request.fingerprint()));
    let (decoded, fingerprint) = artifact::decode_plan(&text, model.graph(), &cluster).unwrap();
    assert_eq!(decoded, plan);
    assert_eq!(fingerprint, Some(request.fingerprint()));
}
