//! Integration tests for the `gp-fleet` distributed serving layer: the
//! remote-equals-local determinism contract, crash/restart durability of
//! the artifact store and its fault paths, torn wire frames in both
//! directions, the fingerprint-range shard partition, and the
//! tenant-facing `Session::serve_fleet` surface.

use graphpipe::cluster::Cluster;
use graphpipe::fleet::protocol::{encode_request, read_frame};
use graphpipe::fleet::{
    canonical_artifact, plan_locally, shard_of, AdmissionConfig, FleetConfig, FleetService,
    PlanWorker, RemoteWorker, Served, TenantClass, TenantSpec, WorkerFailure, WorkerServer,
};
use graphpipe::ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};
use graphpipe::ir::SpModel;
use graphpipe::obs::Telemetry;
use graphpipe::prelude::*;
use graphpipe::serve::{PlanRequest, ServeError, ServePlanner};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
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

/// The acceptance criterion of the fleet layer: for every zoo model, an
/// artifact planned by a remote worker over the wire protocol is
/// byte-identical to one planned in-process — same fingerprint header,
/// same encoded bytes.
#[test]
fn remote_planning_is_byte_identical_to_local_for_every_zoo_model() {
    let mut server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled()).unwrap();
    let remote = RemoteWorker::new(server.addr().to_string());
    let mut checked = 0;
    for request in zoo_requests() {
        let local = plan_locally(&request, &Telemetry::disabled()).expect("local plan");
        let served = remote.plan(&request).expect("remote plan");
        assert_eq!(
            served,
            local,
            "remote/local artifact divergence for model `{}`",
            request.model.name()
        );
        checked += 1;
    }
    // One baseline planner through the same wire path.
    let baseline = zoo_requests()
        .remove(1)
        .with_planner(ServePlanner::PipeDream);
    assert_eq!(
        remote.plan(&baseline).expect("remote baseline plan"),
        plan_locally(&baseline, &Telemetry::disabled()).expect("local baseline plan"),
    );
    checked += 1;
    assert_eq!(server.served() as usize, checked);
    server.shutdown();
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

/// A fleet fronted by a real TCP worker serves the same bytes the local
/// pool would, end to end through the service (cache, store, dispatch).
#[test]
fn fleet_with_remote_worker_matches_local_fleet() {
    let dir = TempDir::new("remote");
    let mut server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled()).unwrap();

    let remote_fleet = FleetService::start(FleetConfig {
        local_workers: 0,
        remote_workers: vec![server.addr().to_string()],
        store: Some(dir.path().join("remote")),
        ..FleetConfig::default()
    })
    .unwrap();
    let local_fleet = FleetService::start(FleetConfig {
        store: Some(dir.path().join("local")),
        ..FleetConfig::default()
    })
    .unwrap();

    let requests = zoo_requests();
    for request in &requests {
        let via_remote = remote_fleet.submit("t", request.clone()).unwrap();
        let via_local = local_fleet.submit("t", request.clone()).unwrap();
        let fp = via_remote.fingerprint();
        assert_eq!(fp, via_local.fingerprint());
        let remote_plan = via_remote.wait().expect("remote fleet plan");
        let local_plan = via_local.wait().expect("local fleet plan");
        assert_eq!(
            canonical_artifact(&remote_plan, fp),
            canonical_artifact(&local_plan, fp),
            "fleet-level remote/local divergence for `{}`",
            request.model.name()
        );
        // Both stores persisted the same canonical bytes.
        let remote_stored = remote_fleet.store().unwrap().get(&fp).unwrap().0;
        let local_stored = local_fleet.store().unwrap().get(&fp).unwrap().0;
        assert_eq!(remote_stored, local_stored);
    }
    // Exactly one planner run, and one worker call, per distinct request.
    let n = requests.len() as u64;
    assert_eq!(remote_fleet.stats().planner_runs, n, "planner runs");
    assert_eq!(server.served(), n, "worker calls");
    server.shutdown();
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
/// file rewritten, so the next run serves it from the store again.
#[test]
fn a_corrupt_store_artifact_is_replanned_and_rewritten() {
    let dir = TempDir::new("corrupt");
    let fleet = || {
        FleetService::start(FleetConfig {
            store: Some(dir.path().to_path_buf()),
            ..FleetConfig::local(1, 8)
        })
        .unwrap()
    };
    let request = zoo_requests().remove(0);
    let fp = request.fingerprint();
    let file = artifact_path(dir.path(), &request);

    let original = {
        let plan = fleet().submit("t", request.clone()).unwrap().wait();
        canonical_artifact(&plan.expect("cold plan"), fp)
    };
    assert_eq!(std::fs::read_to_string(&file).unwrap(), original);
    std::fs::write(&file, &original[..original.len() / 2]).unwrap();

    {
        let fleet = fleet();
        let ticket = fleet.submit("t", request.clone()).unwrap();
        assert_eq!(ticket.served(), Served::Planned);
        let plan = ticket.wait().expect("re-planned");
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

/// Fault injection: a worker that dies mid-reply — a length prefix, half
/// the payload, then EOF — is unavailable, never a wrong answer. A fleet
/// whose only worker does this fails the request after one attempt.
#[test]
fn a_worker_that_dies_mid_reply_is_unavailable() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Answers the direct call, then the fleet's: a length prefix for 8
    // bytes, then 4 of them.
    let peer = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).expect("the request frame arrives whole");
            stream
                .write_all(&[0, 0, 0, 8, b'{', b'"', b'f', b'o'])
                .unwrap();
        }
    });
    let request = zoo_requests().remove(0);
    match RemoteWorker::new(addr.clone()).plan(&request) {
        Err(WorkerFailure::Unavailable(why)) => assert!(why.contains("recv"), "{why}"),
        other => panic!("expected Unavailable, got {other:?}"),
    }
    let fleet = FleetService::start(FleetConfig {
        local_workers: 0,
        remote_workers: vec![addr],
        ..FleetConfig::default()
    })
    .unwrap();
    match fleet.submit("t", request).unwrap().wait() {
        Err(ServeError::WorkerUnavailable { attempts }) => assert_eq!(attempts, 1),
        other => panic!("expected WorkerUnavailable, got {other:?}"),
    }
    assert_eq!(fleet.stats().worker_errors, 1);
    peer.join().unwrap();
}

/// Fault injection: a client that writes half a request frame and closes
/// gets no answer and is not counted as served; the worker answers the
/// next well-formed request.
#[test]
fn a_half_written_request_frame_is_dropped() {
    let mut server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled()).unwrap();
    let request = zoo_requests().remove(0);
    let frame = encode_request(&request);
    let prefix = (frame.len() as u32).to_be_bytes();
    let torn = [&prefix[..], &frame.as_bytes()[..frame.len() / 2]].concat();
    // The stream is dropped, and so closed, right after the write.
    TcpStream::connect(server.addr())
        .unwrap()
        .write_all(&torn)
        .unwrap();
    RemoteWorker::new(server.addr().to_string())
        .plan(&request)
        .expect("the next request is answered");
    assert_eq!(server.served(), 1);
    server.shutdown();
}
