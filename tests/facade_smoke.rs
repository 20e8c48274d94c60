//! Facade smoke test: the public API surface the README advertises —
//! `graphpipe::Session`, `graphpipe::prelude`, the `PlannerKind::build`
//! factory, `simulate_plan`, and `sched::compute_in_flight` — must resolve
//! and run end-to-end on a small zoo model. Guards the facade crate's
//! re-export wiring: a missing `pub use` breaks this file at compile time.

use graphpipe::prelude::*;
use graphpipe::sched::compute_in_flight;

/// Everything a first-time user touches, on one small model.
#[test]
fn facade_surface_resolves_and_runs() {
    let model = zoo::mmt(&zoo::MmtConfig::two_branch());
    let cluster = Cluster::summit_like(4);

    // The planner factory covers every PlannerKind.
    for kind in [
        PlannerKind::GraphPipe,
        PlannerKind::PipeDream,
        PlannerKind::Piper,
    ] {
        let p = kind.build(PlanOptions::default(), &Telemetry::disabled());
        assert_eq!(p.name(), kind.label().to_lowercase());
    }

    // Plan → simulate without a session.
    let plan = GraphPipePlanner::new()
        .plan(&model, &cluster, 64)
        .expect("two-branch MMT plans on 4 devices");
    let report = graphpipe::simulate_plan(&model, &cluster, &plan).expect("plan simulates");
    assert!(report.throughput > 0.0);
    assert!(plan.bottleneck_tps > 0.0);

    // The §6 closed form is reachable through the facade and reduces to the
    // classic 1F1B increment on a uniform chain.
    assert_eq!(compute_in_flight(1, 4, 1, 4, 8), 12);

    // The Session front door covers the same ground with typed artifacts.
    let opts = PlanOptions {
        max_micro_batches: 16,
        ..PlanOptions::default()
    };
    let session = Session::builder()
        .model(model.clone())
        .cluster(cluster.clone())
        .mini_batch(64)
        .options(opts)
        .build()
        .expect("session builds");

    // `evaluate` sweeps micro-batch sizes and returns the best measured.
    let eval = session
        .evaluate(PlannerKind::GraphPipe)
        .expect("sweep finds at least one feasible plan");
    assert!(!eval.per_micro_batch.is_empty());
    for &(_, t) in &eval.per_micro_batch {
        assert!(t <= eval.report.throughput + 1e-9);
    }

    let strategy = session.plan(PlannerKind::GraphPipe).expect("session plans");
    assert!(strategy.simulate().expect("strategy simulates").throughput > 0.0);
    assert_eq!(
        strategy.fingerprint(),
        session.request(PlannerKind::GraphPipe).fingerprint()
    );
}

/// The re-exported module tree exposes the documented submodules.
#[test]
fn facade_modules_resolve() {
    // Types reached through each re-exported module path; pure name
    // resolution, so failures surface as compile errors.
    let _cluster: graphpipe::cluster::Cluster = Cluster::summit_like(2);
    let _shape = graphpipe::ir::Shape::vector(8);
    let _kind: graphpipe::partition::PlanOptions = PlanOptions::default();
    let _stage_id = graphpipe::sched::StageId(0);
    let _tensor = graphpipe::tensor::Tensor::zeros(vec![2, 2]);
    assert_eq!(graphpipe::PlannerKind::GraphPipe.label(), "GraphPipe");
}
