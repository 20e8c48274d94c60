//! Integration tests for the discrete-event simulator: conservation laws,
//! schedule semantics, deadlock detection, and the paper's headline
//! GPP-beats-SPP behaviour.

use gp_baselines::PipeDreamPlanner;
use gp_cluster::{Cluster, DeviceRange};
use gp_cost::{CostModel, Pass};
use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig};
use gp_partition::{GraphPipePlanner, Plan, Planner};
use gp_sched::{
    assign_in_flight, schedule_tasks, PipelineSchedule, Stage, StageGraph, StageId, StageSchedule,
};
use gp_sim::{render_gantt, simulate, SimError};

/// Builds an n-stage 1F1B chain over an MLP with one device per stage.
fn chain_setup(
    n: usize,
    micro_batch: u64,
    mini_batch: u64,
) -> (gp_ir::SpModel, Cluster, StageGraph) {
    let model = zoo::mlp_chain(2 * n, 64);
    let cluster = Cluster::tiny_test(n);
    let ops = model.linearize();
    let per = ops.len().div_ceil(n);
    let stages: Vec<Stage> = ops
        .chunks(per)
        .enumerate()
        .map(|(i, chunk)| Stage {
            id: StageId(i as u32),
            ops: chunk.to_vec(),
            devices: DeviceRange::new(i as u32, 1),
            micro_batch,
            kfkb: 1,
        })
        .collect();
    let sg = StageGraph::new(model.graph(), &cluster, stages, mini_batch).unwrap();
    (model, cluster, sg)
}

#[test]
fn single_stage_runs_back_to_back() {
    let (model, cluster, sg) = chain_setup(1, 2, 8);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let report = simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    // One device, no dependencies: busy the whole time.
    assert!(report.utilization > 0.999, "{}", report.utilization);
    let cost = CostModel::new(&cluster);
    let stage = sg.stage(StageId(0));
    let per_mb = cost.stage_time(model.graph(), &stage.ops, 2, Pass::Forward)
        + cost.stage_time(model.graph(), &stage.ops, 2, Pass::Backward);
    let expect = per_mb * 4.0; // 4 micro-batches
    assert!((report.iteration_time - expect).abs() / expect < 1e-9);
    assert!((report.throughput - 8.0 / expect).abs() / report.throughput < 1e-9);
}

#[test]
fn chain_pipeline_has_warmup_and_bubbles() {
    let (model, cluster, sg) = chain_setup(4, 2, 32);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let report = simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    assert!(report.warmup_time > 0.0);
    assert!(report.bubble_fraction > 0.0 && report.bubble_fraction < 0.5);
    // All tasks appear on the timeline: 4 stages x 16 micro-batches x 2.
    assert_eq!(report.timeline.len(), 4 * 16 * 2);
}

#[test]
fn more_micro_batches_reduce_bubble_fraction() {
    // Classic pipelining: with per-micro-batch work held constant, more
    // micro-batches amortize the fixed warm-up/cool-down ramps.
    let (model, cluster, sg8) = chain_setup(4, 2, 16);
    let schedule8 = schedule_tasks(&sg8, &assign_in_flight(&sg8));
    let r8 = simulate(model.graph(), &cluster, &sg8, &schedule8).unwrap();
    let (_, _, sg32) = chain_setup(4, 2, 64);
    let schedule32 = schedule_tasks(&sg32, &assign_in_flight(&sg32));
    let r32 = simulate(model.graph(), &cluster, &sg32, &schedule32).unwrap();
    assert!(r32.bubble_fraction < r8.bubble_fraction);
}

#[test]
fn timeline_respects_stage_dependencies() {
    let (model, cluster, sg) = chain_setup(3, 2, 16);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let report = simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    let find = |stage: u32, mb: u32, pass: Pass| {
        report
            .timeline
            .iter()
            .find(|t| t.stage == StageId(stage) && t.mb == mb && t.pass == pass)
            .copied()
            .unwrap()
    };
    for mb in 0..8 {
        // Forward flows down the chain, backward flows up.
        assert!(find(0, mb, Pass::Forward).end <= find(1, mb, Pass::Forward).start + 1e-12);
        assert!(find(1, mb, Pass::Forward).end <= find(2, mb, Pass::Forward).start + 1e-12);
        assert!(find(2, mb, Pass::Backward).end <= find(1, mb, Pass::Backward).start + 1e-12);
        // C4 within a stage.
        assert!(find(1, mb, Pass::Forward).end <= find(1, mb, Pass::Backward).start + 1e-12);
    }
}

#[test]
fn deadlock_from_insufficient_warmup_is_detected() {
    let (model, cluster, sg) = chain_setup(2, 2, 8);
    // Stage 0 warms up only one micro-batch (needs two), stage 1 warms up
    // two (needs one): B1@S0 waits for B1@S1 which sits behind F2@S1,
    // which waits for F2@S0 queued behind B1@S0 — a cycle.
    let schedule = PipelineSchedule {
        per_stage: vec![
            StageSchedule::kfkb(StageId(0), 4, 1, 1),
            StageSchedule::kfkb(StageId(1), 4, 2, 1),
        ],
    };
    // Only the first forward of each stage runs before the cycle closes:
    // 2 of the 16 tasks (4 micro-batches x 2 passes x 2 stages).
    let err = simulate(model.graph(), &cluster, &sg, &schedule).unwrap_err();
    assert_eq!(
        err,
        SimError::Deadlock {
            completed: 2,
            total: 16
        }
    );
}

#[test]
fn missing_schedule_is_reported() {
    let (model, cluster, sg) = chain_setup(2, 2, 8);
    let schedule = PipelineSchedule {
        per_stage: vec![StageSchedule::kfkb(StageId(0), 4, 2, 1)],
    };
    let err = simulate(model.graph(), &cluster, &sg, &schedule).unwrap_err();
    assert_eq!(
        err,
        SimError::MissingSchedule {
            stages: 2,
            schedules: 1
        }
    );
}

#[test]
fn simulated_memory_matches_planner_prediction() {
    let model = zoo::candle_uno(&CandleUnoConfig::default());
    let cluster = Cluster::summit_like(8);
    let plan = GraphPipePlanner::new()
        .plan(&model, &cluster, 1024)
        .unwrap();
    let report = simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule).unwrap();
    // The simulator's peak per-device memory never exceeds the planner's
    // worst-stage estimate (the schedule bounds in-flight samples).
    assert!(
        report.max_peak_memory() <= plan.peak_memory_bytes,
        "sim {} > plan {}",
        report.max_peak_memory(),
        plan.peak_memory_bytes
    );
}

#[test]
fn in_flight_bound_is_tight_on_single_replica_chains() {
    let (model, cluster, sg) = chain_setup(3, 2, 16);
    let inflight = assign_in_flight(&sg);
    let schedule = schedule_tasks(&sg, &inflight);
    let report = simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    let cost = CostModel::new(&cluster);
    for s in sg.stages() {
        let act = cost.stage_activation_bytes_per_sample(model.graph(), &s.ops);
        let static_mem = cost.stage_param_bytes(model.graph(), &s.ops) / gp_ir::BYTES_PER_ELEMENT
            * gp_cost::BYTES_PER_PARAM_STATE;
        let predicted = static_mem + act * inflight.samples(s.id);
        let dev = s.devices.first().index();
        assert_eq!(
            report.peak_memory_bytes[dev], predicted,
            "stage {} memory",
            s.id
        );
    }
}

fn simulated_throughput(model: &gp_ir::SpModel, cluster: &Cluster, plan: &Plan) -> f64 {
    simulate(model.graph(), cluster, &plan.stage_graph, &plan.schedule)
        .unwrap()
        .throughput
}

#[test]
fn gpp_beats_spp_on_multi_branch_models() {
    // The headline result (Figure 6): on branchy models the GPP strategy's
    // shallower pipeline yields higher simulated throughput than the
    // sequential baseline.
    let model = zoo::candle_uno(&CandleUnoConfig::default());
    let cluster = Cluster::summit_like(8);
    let gpp = GraphPipePlanner::new()
        .plan(&model, &cluster, 8192)
        .unwrap();
    let spp = PipeDreamPlanner::new()
        .plan(&model, &cluster, 8192)
        .unwrap();
    let t_gpp = simulated_throughput(&model, &cluster, &gpp);
    let t_spp = simulated_throughput(&model, &cluster, &spp);
    assert!(
        t_gpp >= t_spp,
        "GraphPipe {t_gpp:.1} vs PipeDream {t_spp:.1} samples/s"
    );
}

#[test]
fn gpp_matches_spp_on_sequential_models() {
    // Appendix A.3: no branches, no GPP advantage — parity within a few
    // percent.
    let model = zoo::sequential_transformer(8, &MmtConfig::default());
    let cluster = Cluster::summit_like(4);
    let gpp = GraphPipePlanner::new().plan(&model, &cluster, 64).unwrap();
    let spp = PipeDreamPlanner::new().plan(&model, &cluster, 64).unwrap();
    let t_gpp = simulated_throughput(&model, &cluster, &gpp);
    let t_spp = simulated_throughput(&model, &cluster, &spp);
    let ratio = t_gpp / t_spp;
    assert!(
        (0.9..=1.15).contains(&ratio),
        "sequential parity broken: ratio {ratio:.3}"
    );
}

#[test]
fn gantt_renders_all_devices() {
    let (model, cluster, sg) = chain_setup(3, 2, 16);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let report = simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    let gantt = render_gantt(&report, &sg, 60);
    assert_eq!(gantt.lines().count(), 4); // 3 devices + footer
    assert!(gantt.contains("gpu0"));
    assert!(gantt.contains("bubble"));
}

#[test]
fn gantt_elides_rows_past_the_device_cap() {
    // A hand-built report with 100 devices: the chart stops at 64 rows
    // and says exactly what it dropped, instead of emitting one row per
    // simulated device.
    let (model, cluster, sg) = chain_setup(2, 2, 8);
    let schedule = schedule_tasks(&sg, &assign_in_flight(&sg));
    let mut report = simulate(model.graph(), &cluster, &sg, &schedule).unwrap();
    report.per_device_busy.resize(100, 0.0);
    report.peak_memory_bytes.resize(100, 0);
    let gantt = render_gantt(&report, &sg, 60);
    assert_eq!(gantt.lines().count(), 64 + 2); // rows + elision + footer
    assert!(gantt.contains("gpu63"));
    assert!(!gantt.contains("gpu64 "));
    assert!(gantt.contains("... 36 more devices elided (showing 64 of 100)"));
}

#[test]
fn reports_are_byte_deterministic() {
    // Repeated simulations of the same strategy must produce identical
    // timelines and renderings — including tie-breaks between task spans
    // starting at the same instant on branch stages — so golden tests and
    // cached-plan replays can byte-compare.
    let model = zoo::candle_uno(&CandleUnoConfig::tiny());
    let cluster = Cluster::summit_like(4);
    let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
    let a = simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule).unwrap();
    let b = simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule).unwrap();
    assert_eq!(format!("{:?}", a.timeline), format!("{:?}", b.timeline));
    assert_eq!(
        render_gantt(&a, &plan.stage_graph, 80),
        render_gantt(&b, &plan.stage_graph, 80)
    );
    // The timeline is ordered by the total key (start, device, stage, mb,
    // pass), not by construction order.
    for w in a.timeline.windows(2) {
        let ka = (w[0].device, w[0].stage, w[0].mb, w[0].pass as u8);
        let kb = (w[1].device, w[1].stage, w[1].mb, w[1].pass as u8);
        assert!(w[0].start < w[1].start || (w[0].start == w[1].start && ka <= kb));
    }
}
