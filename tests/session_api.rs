//! Integration tests for the typed `Session` entry point: fingerprint
//! parity with the serve layer, artifact round-trips, the unified error
//! type, and the pinned equivalence between `Session::compare` and the
//! hand-wired per-planner evaluation it replaced.

use graphpipe::fleet::{canonical_artifact, FleetConfig};
use graphpipe::prelude::*;
use graphpipe::serve::{artifact, PlanRequest, ServeError};
use std::sync::Arc;

fn mmt_session(opts: PlanOptions) -> Session {
    Session::builder()
        .model(zoo::mmt(&zoo::MmtConfig::two_branch()))
        .cluster(Cluster::summit_like(4))
        .mini_batch(64)
        .options(opts)
        .build()
        .expect("well-formed session")
}

/// A `Session`-built plan round-trips the serve artifact codec and
/// fingerprints identically to a directly-constructed `PlanRequest`.
#[test]
fn session_plan_round_trips_artifact_and_matches_request_fingerprint() {
    let opts = PlanOptions::default().with_max_micro_batches(16);
    let session = mmt_session(opts.clone());
    let strategy = session.plan(PlannerKind::GraphPipe).unwrap();

    // Fingerprint parity with a hand-built serve request for the same
    // problem: Session adds nothing to the cache key.
    let direct = PlanRequest::new(
        Arc::new(zoo::mmt(&zoo::MmtConfig::two_branch())),
        Cluster::summit_like(4),
        64,
    )
    .with_options(opts)
    .with_planner(PlannerKind::GraphPipe);
    assert_eq!(strategy.fingerprint(), direct.fingerprint());
    assert_eq!(
        strategy.fingerprint(),
        session.request(PlannerKind::GraphPipe).fingerprint()
    );

    // Artifact round-trip through the session: lossless, fingerprint
    // kept. Per-phase wall timings are measurement, not plan data — the
    // codec doesn't carry them — so they are zeroed before comparing.
    let strip = |p: &Plan| {
        let mut p = p.clone();
        p.stats.zero_walls();
        p
    };
    let text = strategy.artifact();
    let restored = session
        .load_artifact(&text, PlannerKind::GraphPipe)
        .unwrap();
    assert_eq!(strip(restored.plan()), strip(strategy.plan()));
    assert_eq!(restored.fingerprint(), strategy.fingerprint());

    // And through the raw codec: same plan, same recorded fingerprint.
    let (decoded, recorded) =
        artifact::decode_plan(&text, session.model().graph(), session.cluster()).unwrap();
    assert_eq!(strip(&decoded), strip(strategy.plan()));
    assert_eq!(recorded, Some(strategy.fingerprint()));
}

/// Local planning and the serve path produce the same strategy under the
/// same fingerprint, and repeats are cache hits.
#[test]
fn served_plans_match_local_plans_and_hit_the_cache() {
    let session = mmt_session(PlanOptions::default());
    let fleet = session.serve_fleet(FleetConfig::local(2, 8)).unwrap();

    let served = fleet.plan(PlannerKind::GraphPipe).unwrap();
    let local = session.plan(PlannerKind::GraphPipe).unwrap();
    assert_eq!(served.fingerprint(), local.fingerprint());
    // Identical strategies. Served plans carry zeroed search stats, so
    // compare canonical bytes.
    let fp = local.fingerprint();
    assert_eq!(
        canonical_artifact(served.plan(), fp),
        canonical_artifact(local.plan(), fp)
    );

    let again = fleet.plan(PlannerKind::GraphPipe).unwrap();
    assert_eq!(again.fingerprint(), served.fingerprint());
    let stats = fleet.shutdown();
    assert_eq!(stats.planner_runs, 1, "{}", stats.render());
    assert_eq!(stats.shard_hits, 1, "{}", stats.render());
}

/// An evaluate-derived (sweep-best) strategy is fingerprinted by the
/// winning forced-micro-batch request, and handing that exact request to a
/// `FleetService` reproduces the same plan — fingerprint equality implies
/// plan identity across the local, served, and artifact paths.
#[test]
fn evaluate_fingerprint_keys_the_winning_request_and_reproduces_via_serve() {
    let opts = PlanOptions::default().with_max_micro_batches(16);
    let session = mmt_session(opts.clone());
    let res = session.evaluate(PlannerKind::GraphPipe).unwrap();

    // The sweep winner is keyed by its forced request, not the unforced
    // session request (which keys the single-shot `Session::plan` search).
    let winning_b = res.plan.max_micro_batch();
    let forced = session.request_with(
        PlannerKind::GraphPipe,
        opts.clone().with_forced_micro_batch(winning_b),
    );
    assert_eq!(res.plan.fingerprint(), forced.fingerprint());
    assert_ne!(
        res.plan.fingerprint(),
        session.request(PlannerKind::GraphPipe).fingerprint()
    );

    // A plan service given the winning request serves the identical plan
    // under the identical fingerprint.
    let fleet = session.serve_fleet(FleetConfig::local(1, 4)).unwrap();
    let ticket = fleet.fleet().submit("default", forced).unwrap();
    let fp = res.plan.fingerprint();
    assert_eq!(ticket.fingerprint(), fp);
    let served = ticket.wait().unwrap();
    assert_eq!(
        canonical_artifact(&served, fp),
        canonical_artifact(res.plan.plan(), fp)
    );

    // The sweep winner's artifact round-trips through the same session,
    // keeping the recorded (forced-request) fingerprint (walls zeroed:
    // the codec doesn't carry per-phase timings).
    let strip = |p: &Plan| {
        let mut p = p.clone();
        p.stats.zero_walls();
        p
    };
    let restored = session
        .load_artifact(&res.plan.artifact(), PlannerKind::GraphPipe)
        .unwrap();
    assert_eq!(strip(restored.plan()), strip(res.plan.plan()));
    assert_eq!(restored.fingerprint(), res.plan.fingerprint());
}

/// Pinned: `Session::compare` reproduces the hand-wired per-planner
/// evaluation (the pre-Session harness logic) exactly on `zoo::mmt`.
#[test]
fn compare_matches_hand_wired_per_planner_evaluation_on_mmt() {
    let opts = PlanOptions::default().with_max_micro_batches(16);
    let model = zoo::mmt(&zoo::MmtConfig::two_branch());
    let cluster = Cluster::summit_like(4);
    let mini_batch = 64;

    let session = mmt_session(opts.clone());
    let table = session.compare(&[
        PlannerKind::GraphPipe,
        PlannerKind::PipeDream,
        PlannerKind::Piper,
    ]);

    // Hand wiring, exactly as the bench harness did it before `Session`:
    // the A.2 micro-batch sweep for GraphPipe/PipeDream, a single run at
    // 8-op unit granularity for Piper.
    for kind in [PlannerKind::GraphPipe, PlannerKind::PipeDream] {
        let res = session.evaluate(kind).unwrap();
        let row = table.row(kind).unwrap();
        assert_eq!(row.throughput, Some(res.report.throughput), "{kind:?}");
        assert_eq!(row.depth, Some(res.plan.pipeline_depth()), "{kind:?}");
        assert_eq!(
            row.micro_batch,
            Some(res.plan.max_micro_batch()),
            "{kind:?}"
        );
    }
    let piper_plan = PiperPlanner::with_options(opts)
        .with_unit_ops(8)
        .plan(&model, &cluster, mini_batch)
        .unwrap();
    let piper_report = graphpipe::simulate_plan(&model, &cluster, &piper_plan).unwrap();
    let row = table.row(PlannerKind::Piper).unwrap();
    assert_eq!(row.throughput, Some(piper_report.throughput));
    assert_eq!(row.depth, Some(piper_plan.pipeline_depth()));
    assert_eq!(row.micro_batch, Some(piper_plan.max_micro_batch()));

    // The rendered table carries every planner's label.
    let text = table.render();
    for kind in [
        PlannerKind::GraphPipe,
        PlannerKind::PipeDream,
        PlannerKind::Piper,
    ] {
        assert!(text.contains(kind.label()), "{text}");
    }
}

/// Every `graphpipe::Error` variant displays a non-empty message, and the
/// wrapping variants chain `source()` to the wrapped subsystem error.
#[test]
fn error_variants_display_and_chain_sources() {
    use graphpipe::exec::ExecError;
    use graphpipe::serve::artifact::ArtifactError;
    use graphpipe::sim::SimError;
    use std::error::Error as StdError;

    let wrapped: Vec<(graphpipe::Error, String)> = vec![
        (
            PlanError::Infeasible("memory".into()).into(),
            PlanError::Infeasible("memory".into()).to_string(),
        ),
        (
            SimError::Deadlock {
                completed: 3,
                total: 9,
            }
            .into(),
            SimError::Deadlock {
                completed: 3,
                total: 9,
            }
            .to_string(),
        ),
        (
            ExecError::WorkerPanicked.into(),
            ExecError::WorkerPanicked.to_string(),
        ),
        (
            ServeError::ServiceStopped.into(),
            ServeError::ServiceStopped.to_string(),
        ),
        (
            ServeError::Overloaded {
                tenant: "acme".into(),
                depth: 7,
            }
            .into(),
            ServeError::Overloaded {
                tenant: "acme".into(),
                depth: 7,
            }
            .to_string(),
        ),
        (
            ArtifactError::Field("stages").into(),
            ArtifactError::Field("stages").to_string(),
        ),
    ];
    for (err, inner_text) in wrapped {
        assert!(!err.to_string().is_empty(), "{err:?}");
        let source = err
            .source()
            .unwrap_or_else(|| panic!("{err:?} has no source"));
        assert_eq!(source.to_string(), inner_text, "{err:?}");
    }
    // The only source-less variant: a malformed request, nothing wrapped.
    let invalid = graphpipe::Error::Invalid("no model".into());
    assert!(!invalid.to_string().is_empty());
    assert!(invalid.source().is_none());
}

/// A served planner failure surfaces as `Error::Plan` — the same variant
/// the uncached path reports (one validation story).
#[test]
fn serve_path_failures_normalize_to_plan_errors() {
    let session = Session::builder()
        .model(zoo::mmt(&zoo::MmtConfig::tiny()))
        .cluster(Cluster::summit_like(4))
        .mini_batch(32)
        .options(PlanOptions::default().with_micro_batch_candidates(vec![7]))
        .build()
        .unwrap();
    let fleet = session.serve_fleet(FleetConfig::local(1, 4)).unwrap();
    let served = fleet.plan(PlannerKind::GraphPipe).unwrap_err();
    let local = session.plan(PlannerKind::GraphPipe).unwrap_err();
    assert!(matches!(served, graphpipe::Error::Plan(_)), "{served:?}");
    assert_eq!(served, local);
}
