//! Integration tests for plan serving under real OS-thread concurrency:
//! many client threads against one single-process `FleetService`
//! (`FleetConfig::local`).

use gp_cluster::Cluster;
use gp_fleet::{FleetConfig, FleetService};
use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};
use gp_serve::PlanRequest;
use std::sync::Arc;

fn local(workers: usize, cache_capacity: usize) -> Arc<FleetService> {
    Arc::new(FleetService::start(FleetConfig::local(workers, cache_capacity)).unwrap())
}

#[test]
fn sixty_four_concurrent_identical_requests_single_flight() {
    let service = local(4, 16);
    let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::default()));
    let mut handles = Vec::new();
    for _ in 0..64 {
        let service = Arc::clone(&service);
        let request = PlanRequest::new(Arc::clone(&model), Cluster::summit_like(8), 1024);
        handles.push(std::thread::spawn(move || {
            service.submit("t", request).unwrap().wait().unwrap()
        }));
    }
    let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for w in plans.windows(2) {
        assert_eq!(w[0], w[1], "all requesters must observe the same plan");
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 64);
    assert_eq!(
        stats.planner_runs,
        1,
        "identical concurrent requests must trigger exactly one planner run: {}",
        stats.render()
    );
    assert_eq!(stats.shard_hits + stats.joins, 63);
}

#[test]
fn concurrent_mixed_workload_is_consistent() {
    let service = local(4, 32);
    let models: Vec<(Arc<_>, u64)> = vec![
        (Arc::new(zoo::mmt(&MmtConfig::tiny())), 32),
        (Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())), 32),
        (Arc::new(zoo::dlrm(&DlrmConfig::tiny())), 16),
        (Arc::new(zoo::moe(&MoeConfig::tiny())), 16),
    ];
    let mut handles = Vec::new();
    for i in 0..64 {
        let service = Arc::clone(&service);
        let (model, mini_batch) = models[i % models.len()].clone();
        handles.push(std::thread::spawn(move || {
            let request = PlanRequest::new(model, Cluster::summit_like(4), mini_batch);
            let plan = service
                .submit("t", request.clone())
                .unwrap()
                .wait()
                .unwrap();
            // A repeat from inside the client threads also matches.
            assert_eq!(plan, service.submit("t", request).unwrap().wait().unwrap());
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 128);
    // Exactly one planner run per distinct request; shard hits and
    // single-flight joins cover everything else.
    let distinct = models.len() as u64;
    assert_eq!(stats.planner_runs, distinct, "{}", stats.render());
    assert_eq!(stats.misses, distinct, "{}", stats.render());
    assert_eq!(stats.shard_hits + stats.joins, 128 - distinct);
}
