//! Property wall for the arbitrary-DAG planning ladder (`gp_ir::dag`).
//!
//! Three families of guarantees (DESIGN.md §"Arbitrary DAGs" and
//! §"Invariant catalog"):
//!
//! * **Recognition parity** — on every hand-authored zoo model, dropping
//!   the authored SP tree and re-recovering it from the raw graph yields a
//!   byte-identical tree, model fingerprint, and plan fingerprint. The
//!   hand tree is redundant; recognition is canonical.
//! * **SP-ization soundness** — on *randomly generated* DAGs (residual
//!   meshes the decomposition cannot represent exactly), whatever rung the
//!   ladder lands on, no dependency edge is ever lost, the linearization
//!   stays topological, and the distortion reported by the SP-ized path
//!   equals an independent recomputation of the added transit volume.
//! * **Convexity off the stage DAG** — on stage lists cut from random
//!   topological orders of random DAGs, `verify_stages` flags `op-convex`
//!   for exactly the stages `Graph::is_convex`'s walk rejects, though it
//!   skips the walks whenever the stage DAG is acyclic.

use gp_ir::dag::{edge_cover_violations, plan_dag, recognize, transit_volume, DagOptions};
use gp_ir::{zoo, Graph, GraphBuilder, OpId, OpKind, PlanPath, Shape, SpModel};
use gp_serve::fingerprint::{model_fingerprint, request_fingerprint};
use graphpipe::prelude::*;
use graphpipe::sched::{verify_stages, Check, Stage, StageId};
use proptest::prelude::*;

/// Every hand-authored SP model in the zoo, by name.
fn authored_zoo() -> Vec<SpModel> {
    vec![
        zoo::mmt(&zoo::MmtConfig::tiny()),
        zoo::dlrm(&zoo::DlrmConfig::tiny()),
        zoo::candle_uno(&zoo::CandleUnoConfig::tiny()),
        zoo::sequential_transformer(2, &zoo::MmtConfig::tiny()),
        zoo::case_study(&zoo::MmtConfig::tiny()),
        zoo::moe(&zoo::MoeConfig::tiny()),
        zoo::mlp_chain(4, 64),
    ]
}

/// Dropping the hand-authored tree and recovering it by recognition gives
/// the same tree, the same model fingerprint, and — through the planner —
/// the same plan fingerprint, for every zoo model.
#[test]
fn recognition_reproduces_every_authored_zoo_tree() {
    let cluster = Cluster::summit_like(4);
    for hand in authored_zoo() {
        let name = hand.name().to_string();
        let root = recognize(hand.graph())
            .unwrap_or_else(|| panic!("{name}: zoo model is SP but recognition failed"));
        let recovered = SpModel::new(&name, hand.graph().clone(), root)
            .unwrap_or_else(|e| panic!("{name}: recognized tree rejected: {e}"));
        assert_eq!(
            recovered.root(),
            hand.root(),
            "{name}: recognized tree differs from the authored one"
        );
        assert_eq!(recovered.path(), PlanPath::ExactSp);
        assert_eq!(
            model_fingerprint(&recovered),
            model_fingerprint(&hand),
            "{name}: model fingerprints diverge"
        );
        let opts = PlanOptions::default();
        assert_eq!(
            request_fingerprint(&recovered, &cluster, 32, &opts, 0),
            request_fingerprint(&hand, &cluster, 32, &opts, 0),
            "{name}: plan-request fingerprints diverge"
        );
    }
}

/// The same parity, driven end to end through `plan_dag`: feeding a zoo
/// model's raw graph to the ladder takes the exact-SP rung and plans to
/// the identical strategy.
#[test]
fn plan_dag_takes_the_exact_rung_on_every_authored_zoo_graph() {
    let cluster = Cluster::summit_like(4);
    for hand in authored_zoo() {
        let name = hand.name().to_string();
        let laddered = plan_dag(&name, hand.graph().clone(), &DagOptions::default())
            .unwrap_or_else(|e| panic!("{name}: plan_dag rejected a zoo graph: {e}"));
        assert_eq!(laddered.path(), PlanPath::ExactSp, "{name}");
        // Per-phase search walls are machine time, not plan data.
        let mut a = GraphPipePlanner::new()
            .plan(&laddered, &cluster, 32)
            .unwrap();
        let mut b = GraphPipePlanner::new().plan(&hand, &cluster, 32).unwrap();
        a.stats.zero_walls();
        b.stats.zero_walls();
        assert_eq!(a, b, "{name}: plans diverge");
    }
}

/// Builds a random layered DAG from proptest-drawn structure: one input,
/// `picks.len()` intermediate operators (each a `linear` on one
/// predecessor or an elementwise `Add` of several — the shape that
/// produces residual meshes), and a single `Add → linear → loss` tail
/// collecting every dangling output so the graph validates.
fn build_dag(picks: &[(usize, usize)]) -> Graph {
    const DIM: usize = 16;
    let mut b = GraphBuilder::new();
    let input = b.input("x", Shape::vector(DIM));
    let mut nodes = vec![input];
    let mut has_succ = vec![false];
    for (i, &(pick, fan_in)) in picks.iter().enumerate() {
        let mut preds = Vec::new();
        for j in 0..fan_in {
            // Deterministic pseudo-spread over all earlier nodes; dedup
            // below keeps the op well-formed when picks collide.
            let k = (pick + j * (pick / 7 + 1)) % nodes.len();
            if !preds.contains(&nodes[k]) {
                preds.push(nodes[k]);
                has_succ[k] = true;
            }
        }
        let node = if preds.len() == 1 {
            b.linear(format!("fc{i}"), preds[0], DIM, true).unwrap()
        } else {
            b.op(format!("add{i}"), OpKind::Add, &preds).unwrap()
        };
        nodes.push(node);
        has_succ.push(false);
    }
    let dangling: Vec<OpId> = nodes
        .iter()
        .zip(&has_succ)
        .filter(|(_, &s)| !s)
        .map(|(&n, _)| n)
        .collect();
    let tail = if dangling.len() >= 2 {
        b.op("merge", OpKind::Add, &dangling).unwrap()
    } else {
        dangling[0]
    };
    let head = b.linear("head", tail, 1, true).unwrap();
    let loss = b.loss("loss", &[head]);
    let _ = loss;
    b.finish().unwrap()
}

/// A random topological order of `graph`: Kahn's algorithm taking, at
/// each step, the ready operator the next draw names (cycling through
/// `draws`).
fn random_topo_order(graph: &Graph, draws: &[usize]) -> Vec<OpId> {
    let mut indeg: Vec<usize> = graph.nodes().map(|n| graph.preds(n.id).len()).collect();
    let mut ready = graph.sources();
    let mut order = Vec::with_capacity(graph.len());
    while !ready.is_empty() {
        let k = draws[order.len() % draws.len()] % ready.len();
        let id = ready.swap_remove(k);
        order.push(id);
        for &s in graph.succs(id) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `verify_stages` reads convexity off an acyclic stage DAG instead
    /// of walking each stage, so on contiguous runs of a topological order
    /// (an acyclic stage DAG) and on the same runs with ops moved between
    /// stages (mostly cyclic) it must flag `op-convex` for exactly the
    /// stages `Graph::is_convex` rejects, and only beside `stage-acyclic`.
    #[test]
    fn op_convex_matches_the_walk_it_skips(
        picks in proptest::collection::vec((0usize..997, 1usize..4), 1..20),
        draws in proptest::collection::vec(0usize..1000, 1..32),
        runs in proptest::collection::vec(1usize..6, 1..10),
        moves in proptest::collection::vec((0usize..997, 0usize..997), 1..4),
    ) {
        let graph = build_dag(&picks);
        let order = random_topo_order(&graph, &draws);
        prop_assert!(graph.is_topo_order(&order));
        // Contiguous runs of the order; the last run takes the rest.
        let mut runs_ops: Vec<Vec<OpId>> = Vec::new();
        let mut at = 0;
        for &len in &runs {
            if at < order.len() {
                let end = (at + len).min(order.len());
                runs_ops.push(order[at..end].to_vec());
                at = end;
            }
        }
        runs_ops.last_mut().expect("the order is not empty").extend(&order[at..]);
        let mut moved_ops = runs_ops.clone();
        for &(op, to) in &moves {
            let op = order[op % order.len()];
            for stage in &mut moved_ops {
                stage.retain(|&o| o != op);
            }
            let to = to % moved_ops.len();
            moved_ops[to].push(op);
        }
        for (moved, lists) in [(false, runs_ops), (true, moved_ops)] {
            let stages: Vec<Stage> = (lists.into_iter().enumerate())
                .map(|(i, ops)| Stage {
                    id: StageId(i as u32),
                    ops,
                    devices: DeviceRange::new(i as u32, 1),
                    micro_batch: 1,
                    kfkb: 1,
                })
                .collect();
            let report = verify_stages(&graph, &Cluster::summit_like(stages.len()), &stages, 1);
            let flagged: Vec<StageId> = (report.violations().iter())
                .filter(|v| v.check == Check::OpConvex)
                .map(|v| v.location.stage.expect("op-convex names its stage"))
                .collect();
            let walked: Vec<StageId> = (stages.iter())
                .filter(|s| !graph.is_convex(&s.ops))
                .map(|s| s.id)
                .collect();
            prop_assert_eq!(&flagged, &walked, "moved: {}", moved);
            let cyclic = report.violates(Check::StageAcyclic);
            prop_assert!(flagged.is_empty() || cyclic, "op-convex without stage-acyclic");
            prop_assert!(moved || !cyclic, "contiguous runs of a topological order are acyclic");
        }
    }

    /// Whatever rung the ladder lands on, planning an arbitrary DAG never
    /// loses a dependency edge, keeps the linearization topological, and
    /// reports a distortion that matches an independent recomputation.
    #[test]
    fn sp_ization_preserves_every_edge(
        picks in proptest::collection::vec((0usize..997, 1usize..4), 1..20),
    ) {
        let graph = build_dag(&picks);
        let model = plan_dag("rand", graph.clone(), &DagOptions::default())
            .expect("generated graphs validate");
        // Original dependency set ⊆ planned dependency closure: every data
        // edge is admitted by the tree as forward chain order.
        prop_assert!(
            edge_cover_violations(&graph, model.root()).is_empty(),
            "ladder lost an edge on path {}", model.path()
        );
        let order = model.linearize();
        prop_assert_eq!(order.len(), graph.len());
        prop_assert!(graph.is_topo_order(&order));
        match model.path() {
            PlanPath::ExactSp => {
                // The exact rung must agree with standalone recognition.
                // (Exact trees can still have positive transit volume —
                // residual skips along a totally ordered chain, as in
                // `zoo::gpt2` — that volume is inherent to the DAG, not a
                // distortion SP-ization introduced, so it is not reported.)
                prop_assert!(recognize(&graph).is_some());
            }
            PlanPath::SpIzed { distortion } => {
                prop_assert!(recognize(&graph).is_none());
                prop_assert_eq!(distortion, transit_volume(&graph, model.root()));
            }
            PlanPath::Clustered { .. } => {
                // Unreachable under the default 1 GiB budget for these tiny
                // graphs; tested separately below.
                prop_assert!(false, "tiny graphs never exceed the default budget");
            }
        }
    }

    /// A zero distortion budget forces the clustering rung on every
    /// non-SP graph — and even the flat fallback chain still covers the
    /// full dependency set.
    #[test]
    fn clustering_fallback_still_covers_all_edges(
        picks in proptest::collection::vec((0usize..997, 1usize..4), 1..20),
        unit_ops in 1u32..6,
    ) {
        let graph = build_dag(&picks);
        let opts = DagOptions::default()
            .with_distortion_budget(0)
            .with_unit_ops(unit_ops);
        let model = plan_dag("rand", graph.clone(), &opts).expect("generated graphs validate");
        prop_assert!(edge_cover_violations(&graph, model.root()).is_empty());
        match model.path() {
            PlanPath::ExactSp => prop_assert!(recognize(&graph).is_some()),
            PlanPath::SpIzed { distortion } => {
                // Budget 0 only admits SP-ization when it is free.
                prop_assert_eq!(distortion, 0);
            }
            PlanPath::Clustered { units } => {
                prop_assert_eq!(units, (graph.len() as u32).div_ceil(unit_ops));
                prop_assert!(units >= 1 && units as usize <= graph.len());
            }
        }
    }

    /// Arbitrary-DAG strategies survive the planner, the verifier, and the
    /// artifact codec: the plan path lands in the plan, round-trips through
    /// encode/decode, and `verify_strategy` accepts the decoded strategy.
    #[test]
    fn dag_strategies_verify_and_round_trip(
        picks in proptest::collection::vec((0usize..997, 1usize..4), 4..16),
        devices in 2usize..5,
    ) {
        use graphpipe::serve::artifact;
        let graph = build_dag(&picks);
        let model = plan_dag("rand", graph.clone(), &DagOptions::default())
            .expect("generated graphs validate");
        let cluster = Cluster::summit_like(devices);
        let plan = GraphPipePlanner::new()
            .plan(&model, &cluster, 16)
            .expect("tiny models always fit");
        prop_assert_eq!(plan.path, model.path());
        let report = verify_strategy(&model, &cluster, &plan);
        prop_assert!(report.is_clean(), "verifier rejected a fresh plan: {}", report);
        let text = artifact::encode_plan(&plan, None);
        let (decoded, _) = artifact::decode_plan(&text, model.graph(), &cluster)
            .expect("own artifacts decode");
        prop_assert_eq!(decoded.path, plan.path, "plan path lost in the codec");
    }
}
