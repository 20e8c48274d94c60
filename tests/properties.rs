//! Property-based tests over randomly generated series-parallel models:
//! whatever the topology, planned strategies must satisfy the paper's
//! validity conditions, the scheduler's in-flight accounting must bound the
//! simulator's observations, and `ComputeInFlight` must respect its
//! structural invariants.

use graphpipe::ir::{GraphBuilder, OpKind, Shape, SpBlock, SpModel};
use graphpipe::prelude::*;
use graphpipe::sched::{
    compute_in_flight, PipelineSchedule, Stage, StageGraph, StageId, StageSchedule,
};
use proptest::prelude::*;

/// Generates a random multi-branch MLP: `branches` parallel chains of
/// `layers` dense layers with hidden width `width`, merged by a concat and
/// a small head.
fn random_model(branches: usize, layers: usize, width: usize) -> SpModel {
    let mut b = GraphBuilder::new();
    let mut branch_blocks = Vec::new();
    let mut outs = Vec::new();
    for br in 0..branches {
        let mut blocks = Vec::new();
        let input = b.input(format!("in{br}"), Shape::vector(width));
        blocks.push(SpBlock::Leaf(input));
        let mut cur = input;
        for l in 0..layers {
            let fc = b.linear(format!("b{br}l{l}"), cur, width, true).unwrap();
            blocks.push(SpBlock::Leaf(fc));
            cur = fc;
        }
        outs.push(cur);
        branch_blocks.push(SpBlock::Chain(blocks));
    }
    let cat = b.op("cat", OpKind::Concat, &outs).unwrap();
    let head = b.linear("head", cat, 1, true).unwrap();
    let loss = b.loss("loss", &[head]);
    let root = SpBlock::Chain(vec![
        SpBlock::Branches(branch_blocks),
        SpBlock::Leaf(cat),
        SpBlock::Leaf(head),
        SpBlock::Leaf(loss),
    ]);
    SpModel::new("random", b.finish().unwrap(), root).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any planned strategy on any random SP model passes the plan
    /// verifier (C1-C4, device coverage, the in-flight table, deadlock
    /// freedom) and simulates; the simulator's peak memory never exceeds
    /// the planner's bound.
    #[test]
    fn planned_strategies_are_valid(
        branches in 1usize..5,
        layers in 1usize..5,
        width in prop::sample::select(vec![64usize, 128, 256]),
        devices in 2usize..7,
        log_b in 2u32..6,
    ) {
        let model = random_model(branches, layers, width);
        let cluster = Cluster::summit_like(devices);
        let mini_batch = 1u64 << log_b;
        let plan = GraphPipePlanner::new()
            .plan(&model, &cluster, mini_batch)
            .expect("tiny models always fit");
        let report = verify_plan(model.graph(), &cluster, &plan);
        prop_assert!(report.is_clean(), "{}", report);
        let report = graphpipe::simulate_plan(&model, &cluster, &plan).unwrap();
        prop_assert!(report.throughput > 0.0);
        prop_assert!(report.max_peak_memory() <= plan.peak_memory_bytes);
    }

    /// The sequential baseline is never structurally deeper than it is long,
    /// and GraphPipe is never deeper than the sequential baseline.
    #[test]
    fn gpp_depth_never_exceeds_spp_depth(
        branches in 2usize..5,
        layers in 2usize..5,
        devices in 2usize..7,
    ) {
        let model = random_model(branches, layers, 128);
        let cluster = Cluster::summit_like(devices);
        let opts = PlanOptions::default().with_forced_micro_batch(4);
        let gp = PlannerKind::GraphPipe.build(opts.clone(), &Telemetry::disabled())
            .plan(&model, &cluster, 16).unwrap();
        let pd = PlannerKind::PipeDream.build(opts, &Telemetry::disabled())
            .plan(&model, &cluster, 16).unwrap();
        prop_assert_eq!(pd.pipeline_depth(), pd.stage_graph.len());
        prop_assert!(gp.pipeline_depth() <= pd.pipeline_depth().max(gp.stage_graph.len()));
    }

    /// ComputeInFlight invariants: the upstream requirement strictly
    /// exceeds the downstream one, is monotone in `i_y`, and reduces to the
    /// classic 1F1B increment on uniform chains.
    #[test]
    fn compute_in_flight_invariants(
        k_x in 1u64..5,
        b_x_log in 0u32..5,
        k_y in 1u64..5,
        b_y_log in 0u32..5,
        i_mult in 1u64..9,
    ) {
        let b_x = 1u64 << b_x_log;
        let b_y = 1u64 << b_y_log;
        let i_y = i_mult * b_y;
        let i = compute_in_flight(k_x, b_x, k_y, b_y, i_y);
        prop_assert!(i > i_y, "upstream must hold more than downstream");
        // Monotone in i_y.
        let i2 = compute_in_flight(k_x, b_x, k_y, b_y, i_y + b_y);
        prop_assert!(i2 >= i);
        // Uniform 1F1B chain: exactly one extra micro-batch.
        if k_x == 1 && k_y == 1 && b_x == b_y {
            prop_assert_eq!(compute_in_flight(1, b_x, 1, b_x, i_y), i_y + b_x);
        }
    }

    /// Plan artifacts are lossless: for any random SP model and cluster,
    /// `decode(encode(plan)) == plan` exactly, with the fingerprint carried
    /// through the header (the gp-serve codec guarantee).
    #[test]
    fn plan_artifacts_round_trip(
        branches in 1usize..5,
        layers in 1usize..5,
        width in prop::sample::select(vec![64usize, 128, 256]),
        devices in 2usize..7,
        log_b in 2u32..6,
    ) {
        use graphpipe::serve::{artifact, fingerprint::request_fingerprint};
        let model = random_model(branches, layers, width);
        let cluster = Cluster::summit_like(devices);
        let mini_batch = 1u64 << log_b;
        let plan = GraphPipePlanner::new()
            .plan(&model, &cluster, mini_batch)
            .expect("tiny models always fit");
        let fp = request_fingerprint(&model, &cluster, mini_batch, &PlanOptions::default(), 0);
        let text = artifact::encode_plan(&plan, Some(fp));
        let (decoded, decoded_fp) = artifact::decode_plan(&text, model.graph(), &cluster)
            .expect("own artifacts decode");
        prop_assert_eq!(decoded_fp, Some(fp));
        // Re-encoding the decoded plan is byte-identical.
        prop_assert_eq!(artifact::encode_plan(&decoded, Some(fp)), text);
        // Phase walls are measurement, not plan data: never encoded, so
        // compare with walls zeroed on both sides.
        let (mut decoded, mut fresh) = (decoded, plan);
        decoded.stats.zero_walls();
        fresh.stats.zero_walls();
        prop_assert_eq!(&decoded, &fresh, "artifact was lossy: {}", text);
    }
}

/// Schedules generated for every warm-up/k combination satisfy C4 and peak
/// exactly at the requested warm-up length, over the whole grid: m in
/// 1..=32 (powers of two), warm-up in 1..=max(m, 8), k in 1..=4. Each order
/// is checked on a one-stage graph, so no other stage constrains it.
#[test]
fn kfkb_schedules_are_well_formed() {
    let model = zoo::mlp_chain(1, 8);
    for m in (0..6).map(|i| 1u64 << i) {
        for k in 1u64..=4 {
            let stage = Stage {
                id: StageId(0),
                ops: model.linearize(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 1,
                kfkb: k,
            };
            let sg =
                StageGraph::new(model.graph(), &Cluster::tiny_test(1), vec![stage], m).unwrap();
            for warmup in 1..=m.max(8) {
                let case = format!("m {m}, warmup {warmup}, k {k}");
                let s = StageSchedule::kfkb(StageId(0), m, warmup, k);
                assert_eq!(
                    s.peak_in_flight_micro_batches(),
                    warmup.max(k).min(m),
                    "{case}"
                );
                let report = verify_schedule(&sg, &PipelineSchedule { per_stage: vec![s] });
                assert!(report.is_clean(), "{case}: {report}");
            }
        }
    }
}
