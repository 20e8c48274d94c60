//! Integration tests for plan serving under real OS-thread concurrency:
//! many client threads against one `FleetService`, from the
//! minimal preset (`FleetConfig::local`) to a sharded,
//! store-backed, multi-tenant fleet.

use gp_cluster::Cluster;
use gp_fleet::{AdmissionConfig, FleetConfig, FleetService, TenantClass, TenantSpec};
use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};
use gp_partition::PlanOptions;
use gp_serve::PlanRequest;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

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

#[test]
fn two_thousand_clients_plan_once_per_request_and_tier() {
    // 2048 client threads replay a zoo mix for six tenants of three tiers
    // against a sharded, store-backed fleet. A tier rewrites the search
    // options, so each (request, tier) pair is its own cache entry, and
    // single-flight must plan each pair exactly once. The store serves any
    // pair a full shard evicted.
    const REQUESTS: usize = 4096;
    const CLIENTS: usize = 2048;
    const TENANTS: usize = 6;
    let tier = |tenant: usize| {
        [
            TenantClass::Standard,
            TenantClass::Batch,
            TenantClass::Premium,
        ][tenant % 3]
    };
    let options = PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    };
    let mix: Vec<PlanRequest> = [
        (zoo::mmt(&MmtConfig::two_branch()), 128),
        (zoo::dlrm(&DlrmConfig::default()), 512),
        (zoo::candle_uno(&CandleUnoConfig::default()), 8192),
        (zoo::candle_uno(&CandleUnoConfig::full()), 8192),
        (zoo::moe(&MoeConfig::default()), 256),
        (zoo::sequential_transformer(8, &MmtConfig::default()), 64),
    ]
    .into_iter()
    .map(|(model, mini_batch)| {
        PlanRequest::new(Arc::new(model), Cluster::summit_like(8), mini_batch)
            .with_options(options.clone())
    })
    .collect();
    // Client c sends requests c, c + CLIENTS, ... as tenant c % TENANTS,
    // so identical requests arrive concurrently from the start.
    let distinct: BTreeSet<(usize, TenantClass)> = (0..REQUESTS)
        .map(|i| (i % mix.len(), tier(i % CLIENTS % TENANTS)))
        .collect();

    let store = std::env::temp_dir().join(format!("gp-fleet-clients-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let fleet = Arc::new(
        FleetService::start(FleetConfig {
            shards: 8,
            cache_capacity: 32,
            local_workers: 4,
            store: Some(store.clone()),
            admission: AdmissionConfig {
                tenants: (0..TENANTS)
                    .map(|t| {
                        let spec = TenantSpec {
                            class: tier(t),
                            tokens: None,
                        };
                        (format!("tenant-{t}"), spec)
                    })
                    .collect(),
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        })
        .unwrap(),
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let fleet = Arc::clone(&fleet);
            let tenant = format!("tenant-{}", c % TENANTS);
            let mine: Vec<PlanRequest> = (c..REQUESTS)
                .step_by(CLIENTS)
                .map(|i| mix[i % mix.len()].clone())
                .collect();
            // The client loop needs almost no stack; 2048 threads at the
            // default size would reserve gigabytes.
            thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    for request in mine {
                        fleet.submit(&tenant, request).unwrap().wait().unwrap();
                    }
                })
                .unwrap()
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let stats = fleet.stats();
    drop(fleet);
    let _ = std::fs::remove_dir_all(&store);

    assert_eq!(stats.requests, REQUESTS as u64, "{}", stats.render());
    assert_eq!(
        stats.planner_runs,
        distinct.len() as u64,
        "single-flight must plan each (request, tier) pair once: {}",
        stats.render()
    );
    assert!(
        stats.shard_hits + stats.store_hits + stats.joins > 0,
        "{}",
        stats.render()
    );
    for (name, h) in [
        ("queue wait", stats.queue_wait),
        ("worker rtt", stats.worker_rtt),
    ] {
        assert!(
            h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max,
            "{name} percentiles not monotone: {h:?}"
        );
    }
}
