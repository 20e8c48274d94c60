//! Integration tests for the `gp-fleet` serving layer: crash/restart
//! durability of the artifact store and its fault paths, the
//! fingerprint-range shard partition, and the tenant-facing
//! `Session::serve_fleet` surface.

use graphpipe::cluster::Cluster;
use graphpipe::fleet::{
    canonical_artifact, shard_of, AdmissionConfig, FleetConfig, FleetService, Served, TenantClass,
    TenantSpec,
};
use graphpipe::ir::zoo::{self, CandleUnoConfig, DlrmConfig, GnnPipeConfig, MmtConfig, MoeConfig};
use graphpipe::ir::SpModel;
use graphpipe::prelude::*;
use graphpipe::serve::{PlanRequest, ServePlanner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every zoo model at test scale, paired with a mini-batch that divides
/// cleanly.
fn zoo_models() -> Vec<(Arc<SpModel>, u64)> {
    vec![
        (Arc::new(zoo::mmt(&MmtConfig::tiny())), 32),
        (Arc::new(zoo::dlrm(&DlrmConfig::tiny())), 64),
        (Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())), 32),
        (Arc::new(zoo::moe(&MoeConfig::tiny())), 32),
        (
            Arc::new(zoo::sequential_transformer(4, &MmtConfig::tiny())),
            32,
        ),
    ]
}

fn zoo_requests() -> Vec<PlanRequest> {
    let cluster = Cluster::summit_like(4);
    zoo_models()
        .into_iter()
        .map(|(model, mini_batch)| PlanRequest::new(model, cluster.clone(), mini_batch))
        .collect()
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gp-fleet-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Crash/restart durability: plan through a store-backed fleet, drop the
/// whole service, reopen the store — every previously planned request is
/// served from disk, fingerprint-identical and with zero planner runs.
#[test]
fn warm_restart_replays_the_store_without_replanning() {
    let dir = TempDir::new("restart");
    let config = || FleetConfig {
        shards: 2,
        store: Some(dir.path().to_path_buf()),
        ..FleetConfig::default()
    };

    let requests = zoo_requests();
    let mut first_run = Vec::new();
    {
        let fleet = FleetService::start(config()).unwrap();
        for request in &requests {
            let ticket = fleet.submit("t", request.clone()).unwrap();
            let fp = ticket.fingerprint();
            let plan = ticket.wait().expect("cold plan");
            first_run.push((fp, canonical_artifact(&plan, fp)));
        }
        assert_eq!(fleet.stats().planner_runs as usize, requests.len());
        // FleetService::drop shuts the pool down — the "crash".
    }

    let fleet = FleetService::start(config()).unwrap();
    assert_eq!(
        fleet.store().unwrap().len(),
        requests.len(),
        "restart must see every persisted artifact"
    );
    for (request, (fp, bytes)) in requests.iter().zip(&first_run) {
        let ticket = fleet.submit("t", request.clone()).unwrap();
        assert_eq!(ticket.fingerprint(), *fp);
        assert_eq!(
            ticket.served(),
            Served::Store,
            "warm restart must serve `{}` from the store",
            request.model.name()
        );
        let plan = ticket.wait().expect("warm plan");
        assert_eq!(
            &canonical_artifact(&plan, *fp),
            bytes,
            "artifact bytes drifted"
        );
    }
    let stats = fleet.stats();
    assert_eq!(stats.planner_runs, 0, "a warm restart must never replan");
    assert_eq!(stats.store_hits as usize, requests.len());

    // Once decoded, repeats come from the shard cache, not the disk.
    let repeat = fleet.submit("t", requests[0].clone()).unwrap();
    assert_eq!(repeat.served(), Served::Cache);
    repeat.wait().expect("cached plan");
}

/// Property: fingerprint-range sharding partitions the zoo's request
/// fingerprints — every request maps to exactly one shard, and for
/// 2..=8 shards no shard receives zero keys or all of them.
#[test]
fn fingerprint_range_sharding_partitions_zoo_requests() {
    // Spread the key population the way a fleet sees it: every zoo model
    // at many mini-batch sizes and both planners.
    let cluster = Cluster::summit_like(4);
    let mut fingerprints = Vec::new();
    for (model, base) in zoo_models() {
        for scale in 1..=32u64 {
            let request = PlanRequest::new(Arc::clone(&model), cluster.clone(), base * scale);
            fingerprints.push(request.fingerprint());
            fingerprints.push(
                PlanRequest::new(Arc::clone(&model), cluster.clone(), base * scale)
                    .with_planner(ServePlanner::Piper)
                    .fingerprint(),
            );
        }
    }
    fingerprints.sort_by_key(|fp| fp.0);
    fingerprints.dedup();
    assert!(fingerprints.len() > 300, "want a meaningful key population");

    for shards in 2..=8usize {
        let mut counts = vec![0usize; shards];
        for &fp in &fingerprints {
            let shard = shard_of(fp, shards);
            assert!(shard < shards, "shard index out of range");
            counts[shard] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(count > 0, "shard {i}/{shards} received no keys: {counts:?}");
            assert!(
                count < fingerprints.len(),
                "shard {i}/{shards} received every key: {counts:?}"
            );
        }
    }
}

/// The session facade: `serve_fleet` plans with the session's own
/// fingerprints, tiers scope cache entries per tenant, and quota refusals
/// surface as `Error::Serve(Overloaded)`.
#[test]
fn session_serve_fleet_plans_tiers_and_sheds() {
    let session = Session::builder()
        .model(zoo::mmt(&MmtConfig::tiny()))
        .cluster(Cluster::summit_like(4))
        .mini_batch(32)
        .build()
        .unwrap();

    let fleet = session
        .serve_fleet(FleetConfig {
            admission: AdmissionConfig {
                tenants: vec![
                    (
                        "cheap".into(),
                        TenantSpec {
                            class: TenantClass::Batch,
                            tokens: None,
                        },
                    ),
                    (
                        "blocked".into(),
                        TenantSpec {
                            class: TenantClass::Standard,
                            tokens: Some(0),
                        },
                    ),
                ],
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        })
        .unwrap();

    // The default tenant is Standard: its fingerprint is the session's
    // request fingerprint with the Standard caps applied.
    let planned = fleet.plan(PlannerKind::GraphPipe).unwrap();
    let again = fleet.plan(PlannerKind::GraphPipe).unwrap();
    assert_eq!(planned.fingerprint(), again.fingerprint());
    assert_eq!(planned.plan(), again.plan());

    // A Batch-tier tenant gets a tier-scoped fingerprint (and plan entry).
    let cheap = fleet.plan_as("cheap", PlannerKind::GraphPipe).unwrap();
    assert_ne!(cheap.fingerprint(), planned.fingerprint());

    // A zero-token tenant is refused with the typed admission error.
    match fleet.plan_as("blocked", PlannerKind::GraphPipe) {
        Err(graphpipe::Error::Serve(graphpipe::serve::ServeError::Overloaded {
            tenant, ..
        })) => assert_eq!(tenant, "blocked"),
        other => panic!(
            "expected Overloaded, got {:?}",
            other.map(|s| s.fingerprint())
        ),
    }

    let stats = fleet.shutdown();
    assert_eq!(stats.quota_refusals, 1);
    assert!(stats.shard_hits >= 1);
    assert_eq!(stats.misses, 2);
}

/// The store file of a request's artifact: `<fingerprint>-<numbering>.json`.
fn artifact_path(dir: &std::path::Path, request: &PlanRequest) -> PathBuf {
    dir.join(format!(
        "{}-{:016x}.json",
        request.fingerprint(),
        request.model.numbering_signature()
    ))
}

/// Fault injection: an artifact corrupted on disk between two runs is a
/// store reject, never a wrong plan; the request is re-planned and the
/// file rewritten, so the next run serves it from the store again. Two
/// corruptions: a truncated file, which does not decode, and an SP-ized
/// plan stripped of its `plan_path` member, which decodes cleanly into an
/// exact-SP plan that the request's model did not take.
#[test]
fn a_corrupt_store_artifact_is_replanned_and_rewritten() {
    let sp_ized = PlanRequest::new(
        Arc::new(zoo::gnn_pipe(&GnnPipeConfig::tiny())),
        Cluster::summit_like(4),
        32,
    );
    let truncate: fn(&str) -> String = |text| text[..text.len() / 2].to_string();
    let cases = [
        (zoo_requests().remove(0), truncate),
        (sp_ized, strip_plan_path),
    ];
    for (request, corrupt) in cases {
        let dir = TempDir::new("corrupt");
        let fleet = || {
            FleetService::start(FleetConfig {
                store: Some(dir.path().to_path_buf()),
                ..FleetConfig::local(1, 8)
            })
            .unwrap()
        };
        let fp = request.fingerprint();
        let file = artifact_path(dir.path(), &request);

        let original = {
            let plan = fleet().submit("t", request.clone()).unwrap().wait();
            canonical_artifact(&plan.expect("cold plan"), fp)
        };
        assert_eq!(std::fs::read_to_string(&file).unwrap(), original);
        std::fs::write(&file, corrupt(&original)).unwrap();

        {
            let fleet = fleet();
            let ticket = fleet.submit("t", request.clone()).unwrap();
            assert_eq!(ticket.served(), Served::Planned);
            let plan = ticket.wait().expect("re-planned");
            assert_eq!(plan.path, request.model.path());
            assert_eq!(canonical_artifact(&plan, fp), original);
            let stats = fleet.stats();
            assert_eq!(stats.store_rejects, 1, "{stats:?}");
            assert_eq!(stats.planner_runs, 1, "{stats:?}");
            assert_eq!(std::fs::read_to_string(&file).unwrap(), original);
        }

        let fleet = fleet();
        let ticket = fleet.submit("t", request).unwrap();
        assert_eq!(ticket.served(), Served::Store);
        assert_eq!(canonical_artifact(&ticket.wait().unwrap(), fp), original);
    }
}

/// Removes an artifact's `plan_path` member, the way an exact-SP plan
/// spells its path.
fn strip_plan_path(text: &str) -> String {
    let start = text
        .find(",\"plan_path\":")
        .expect("an SP-ized artifact records its plan path");
    let end = start + text[start..].find('}').expect("the member closes") + 1;
    format!("{}{}", &text[..start], &text[end..])
}

/// Fault injection: a store write that fails never fails the request. A
/// directory squatting on the artifact's file name makes the rename fail
/// (permission bits would not stop a root test run).
#[test]
fn a_failed_store_write_still_serves_the_plan() {
    let dir = TempDir::new("squat");
    let request = zoo_requests().remove(0);
    let fp = request.fingerprint();
    std::fs::create_dir(artifact_path(dir.path(), &request)).unwrap();
    let fleet = FleetService::start(FleetConfig {
        store: Some(dir.path().to_path_buf()),
        ..FleetConfig::local(1, 8)
    })
    .unwrap();

    let ticket = fleet.submit("t", request.clone()).unwrap();
    assert_eq!(ticket.served(), Served::Planned);
    ticket.wait().expect("served despite the failed write");
    assert_eq!(fleet.stats().planner_runs, 1);
    assert!(fleet.store().unwrap().get(&fp).is_none());
    let temp_files: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(temp_files.is_empty(), "left behind: {temp_files:?}");

    let repeat = fleet.submit("t", request).unwrap();
    assert_eq!(repeat.served(), Served::Cache);
    repeat.wait().expect("cached plan");
}
