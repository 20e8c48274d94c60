//! Golden tests pinning the arbitrary-DAG planning ladder's outputs for
//! the two non-hand-authored zoo models (`zoo::gnn_pipe`, `zoo::gpt2`) at
//! 8–32 GPUs (ISSUE: "Plan arbitrary DAGs").
//!
//! Each line pins the rung of the fallback ladder taken ([`PlanPath`]),
//! the simulated makespan, and the *plan fingerprint* — which absorbs the
//! plan path whenever it is not exact-SP, so a ladder regression (e.g.
//! recognition silently degrading to SP-ization) flips the fingerprint and
//! fails this table even if the strategy shape happens to survive. The
//! search counters `evals`, `states` and `hits` (`dp_evals`, `dp_states`,
//! `memo_hits`) are pinned too, as `tests/golden_planner.rs` pins them for
//! the hand-authored zoo: they move when the search's work does even if
//! its answer does not. The planner and simulator are deterministic, so
//! the values are exact; a diff means a behaviour change — re-pin only
//! after reviewing it.
//!
//! The second table pins the Figure-6-style comparison on `gpt2`: graph
//! pipeline parallelism must never lose to the sequential baseline on a
//! residual transformer, and the rendered table is pinned byte-for-byte.

use graphpipe::fleet::{canonical_artifact, FleetConfig};
use graphpipe::prelude::*;
use graphpipe::serve::fingerprint::plan_fingerprint;
use std::fmt::Write as _;

type Cell = (&'static str, SpModel, Vec<(usize, u64)>);

/// The two DAG-ladder models at the paper's small/medium/large device
/// counts. `gnn_pipe` (neighbor-mixing heads + jumping-knowledge skips)
/// takes the SP-ization rung; `gpt2` (residual skips along a totally
/// ordered chain) is recognized exactly.
fn cells() -> Vec<Cell> {
    vec![
        (
            "gnn-pipe",
            zoo::gnn_pipe(&zoo::GnnPipeConfig::default()),
            vec![(8, 128), (16, 256), (32, 512)],
        ),
        (
            "gpt2",
            zoo::gpt2(&zoo::Gpt2Config::default()),
            vec![(8, 64), (16, 128), (32, 256)],
        ),
    ]
}

fn actual_table() -> String {
    let opts = PlanOptions {
        max_micro_batches: 128,
        ..PlanOptions::default()
    };
    let mut out = String::new();
    for (name, model, points) in cells() {
        for (devices, mini_batch) in points {
            let cluster = Cluster::summit_like(devices);
            let plan = GraphPipePlanner::with_options(opts.clone())
                .plan(&model, &cluster, mini_batch)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let report = graphpipe::simulate_plan(&model, &cluster, &plan)
                .unwrap_or_else(|e| panic!("{name}@{devices}: {e}"));
            let verdict = verify_strategy(&model, &cluster, &plan);
            assert!(
                verdict.is_clean(),
                "{name}@{devices}: verifier rejected the plan: {verdict}"
            );
            let _ = writeln!(
                out,
                "{name} gpus={devices} b={mini_batch} path={} makespan={:.9e} fp={} \
                 stages={} depth={} micro={} evals={} states={} hits={}",
                plan.path,
                report.iteration_time,
                plan_fingerprint(&plan),
                plan.stage_graph.len(),
                plan.pipeline_depth(),
                plan.max_micro_batch(),
                plan.stats.dp_evals,
                plan.stats.dp_states,
                plan.stats.memo_hits,
            );
        }
    }
    out
}

const EXPECTED: &str = "\
gnn-pipe gpus=8 b=128 path=sp-ized (distortion 98304 bytes) makespan=3.312464354e-3 fp=cc7d467000ab5bea1a54a26cd8afebeb stages=8 depth=8 micro=128 evals=35049 states=941 hits=22347
gnn-pipe gpus=16 b=256 path=sp-ized (distortion 98304 bytes) makespan=5.132484007e-3 fp=9a1ca09cd476034eaf95471631231bd9 stages=15 depth=14 micro=256 evals=598893 states=3951 hits=685607
gnn-pipe gpus=32 b=512 path=sp-ized (distortion 98304 bytes) makespan=6.218668101e-3 fp=8cbca2578e86317e811c7c1d9f1bf54c stages=32 depth=16 micro=512 evals=4631029 states=10179 hits=6361671
gpt2 gpus=8 b=64 path=exact-sp makespan=9.114274315e-3 fp=a5872ed6a3c5a94741c1b31ad124b9b6 stages=2 depth=2 micro=16 evals=101824 states=165 hits=69472
gpt2 gpus=16 b=128 path=exact-sp makespan=2.923743584e-2 fp=c55b200b61ddfa22b0c09f88e017c822 stages=6 depth=6 micro=32 evals=1720586 states=486 hits=1282978
gpt2 gpus=32 b=256 path=exact-sp makespan=9.865370851e-3 fp=ee390cec12fb78b75c4d2637058c0f8f stages=1 depth=1 micro=8 evals=9516557 states=1143 hits=8401582
";

#[test]
fn dag_ladder_outputs_match_golden_table() {
    let actual = actual_table();
    assert_eq!(
        actual.trim(),
        EXPECTED.trim(),
        "\n--- actual table (paste over EXPECTED if the change is intended) ---\n{actual}"
    );
}

const EXPECTED_GPT2_COMPARISON: &str = "\
| planner | samples/s | depth | micro-batch | vs GraphPipe |
| --- | --- | --- | --- | --- |
| GraphPipe | 139589 | 2 | 16 | 1.00x |
| PipeDream | 139589 | 2 | 16 | 1.00x |
";

/// Figure 6 on the residual transformer: GPP ≥ SPP, pinned byte-for-byte.
#[test]
fn gpt2_comparison_table_shows_gpp_at_least_spp() {
    let session = Session::builder()
        .model(zoo::gpt2(&zoo::Gpt2Config::tiny()))
        .cluster(Cluster::summit_like(8))
        .mini_batch(64)
        .options(PlanOptions::default().with_max_micro_batches(32))
        .build()
        .unwrap();
    let table = session.compare(&[PlannerKind::GraphPipe, PlannerKind::PipeDream]);
    assert!(
        table
            .speedup(PlannerKind::GraphPipe, PlannerKind::PipeDream)
            .unwrap()
            >= 1.0,
        "graph pipeline parallelism lost to the sequential baseline:\n{table}"
    );
    let actual = table.render();
    assert_eq!(
        actual.trim(),
        EXPECTED_GPT2_COMPARISON.trim(),
        "\n--- actual table (paste over EXPECTED_GPT2_COMPARISON if intended) ---\n{actual}"
    );
}

/// The acceptance path for arbitrary DAGs, end to end: a raw non-SP graph
/// enters through `Session::builder().model_dag(..)`, plans, simulates,
/// verifies, round-trips the artifact codec with its plan path intact, and
/// serves identically to local planning.
#[test]
fn non_sp_dags_plan_end_to_end_through_the_session() {
    for (graph, want_sp_ized) in [
        (zoo::gnn_pipe_graph(&zoo::GnnPipeConfig::tiny()), true),
        (zoo::gpt2_graph(&zoo::Gpt2Config::tiny()), false),
    ] {
        let session = Session::builder()
            .model_dag(graph)
            .cluster(Cluster::summit_like(4))
            .mini_batch(32)
            .options(PlanOptions::default().with_max_micro_batches(16))
            .build()
            .unwrap();
        let strategy = session.plan(PlannerKind::GraphPipe).unwrap();
        match strategy.plan_path() {
            PlanPath::SpIzed { distortion } => {
                assert!(want_sp_ized && distortion > 0);
            }
            PlanPath::ExactSp => assert!(!want_sp_ized),
            PlanPath::Clustered { .. } => panic!("tiny models never exceed the budget"),
        }
        let report = strategy.simulate().unwrap();
        assert!(report.throughput > 0.0);

        // Artifact round-trip preserves the plan path (and everything else).
        let restored = session
            .load_artifact(&strategy.artifact(), PlannerKind::GraphPipe)
            .unwrap();
        assert_eq!(restored.plan_path(), strategy.plan_path());
        assert_eq!(restored.fingerprint(), strategy.fingerprint());

        // Serving reproduces local planning, fingerprints included (served
        // plans come from the canonical artifact, so compare its bytes).
        let fleet = session.serve_fleet(FleetConfig::local(1, 4)).unwrap();
        let served = fleet.plan(PlannerKind::GraphPipe).unwrap();
        let fp = strategy.fingerprint();
        assert_eq!(served.fingerprint(), fp);
        assert_eq!(served.plan_path(), strategy.plan_path());
        assert_eq!(
            canonical_artifact(served.plan(), fp),
            canonical_artifact(strategy.plan(), fp)
        );
    }
}

/// `model_dag` and `model` are mutually exclusive, and invalid graphs are
/// rejected at `build()` with the session's own error type.
#[test]
fn model_dag_builder_rejects_misuse() {
    let err = Session::builder()
        .model(zoo::mlp_chain(2, 16))
        .model_dag(zoo::gpt2_graph(&zoo::Gpt2Config::tiny()))
        .cluster(Cluster::summit_like(2))
        .mini_batch(8)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("not both"), "{err}");
}
