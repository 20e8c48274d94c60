//! The invariant checks past the stage list: `verify_stage_graph`,
//! `verify_schedule`, `verify_plan`, `verify_model` and `verify_strategy`.
//!
//! Every check is named after its DESIGN.md §"Invariant catalog" entry (see
//! [`Check`]); the entry points compose so each caller pays only for the
//! structures it holds. The stage-list checks (`verify_stages`) live in
//! gp-sched, whose `StageGraph` constructors run them, and the SP-tree
//! checks live in `SpModel`'s constructors, so `verify_model` compares
//! plan paths and nothing more. None of the checks execute anything — the
//! deadlock-freedom certificate in particular is a topological argument
//! over the same task dependency graph `gp-sim` relaxes, not a simulation.

use gp_cluster::Cluster;
use gp_cost::{CostModel, Pass};
use gp_ir::{Graph, SpModel};
use gp_partition::Plan;
use gp_sched::{
    assign_in_flight, covering_micro_batches, verify_stages, Check, Location, PipelineSchedule,
    StageGraph, StageId, TaskIndex, VerifyReport,
};

/// Verifies a constructed [`StageGraph`]: everything [`verify_stages`]
/// covers plus `edge-derivation` — every data-derived edge (condition C2)
/// must be recorded, and any extra recorded edge must be an imposed
/// sequential-chain edge `S_i -> S_{i+1}` (DESIGN.md §"Invariant
/// catalog").
///
/// `StageGraph::new` establishes these at construction, against the graph
/// and cluster it was given; this re-proves them against the graph and
/// cluster the caller holds, which may differ.
pub fn verify_stage_graph(graph: &Graph, cluster: &Cluster, sg: &StageGraph) -> VerifyReport {
    let mut report = verify_stages(graph, cluster, sg.stages().as_slice(), sg.mini_batch());
    if !report.is_clean() {
        return report;
    }
    // Recorded edges, sorted by construction. The constructor fills the
    // predecessor and successor lists together, so checking one suffices.
    let recorded = sg.stage_edges();
    // Every data edge must be recorded.
    let mut derived: Vec<(StageId, StageId)> = Vec::new();
    for (u, v) in graph.edges() {
        let (su, sv) = (sg.stage_of(u), sg.stage_of(v));
        if su != sv && !derived.contains(&(su, sv)) {
            derived.push((su, sv));
        }
    }
    derived.sort_unstable();
    for &(u, v) in &derived {
        if recorded.binary_search(&(u, v)).is_err() {
            report.fail(
                Check::EdgeDerivation,
                Location::stage(u),
                format!("data-derived stage edge {u} -> {v} is missing (C2)"),
            );
        }
    }
    // Extra recorded edges are only legitimate as sequential-chain edges.
    for &(u, v) in &recorded {
        let is_chain = v.0 == u.0 + 1;
        if derived.binary_search(&(u, v)).is_err() && !is_chain {
            report.fail(
                Check::EdgeDerivation,
                Location::stage(u),
                format!("recorded stage edge {u} -> {v} has no data edge and is not a chain edge"),
            );
        }
    }
    report
}

/// Verifies a schedule against its stage graph: `schedule-coverage`,
/// `task-multiset`, `forward-order`, `backward-order`,
/// `backward-after-forward`, `warmup-consistent`, and — when the structure
/// is sound — the `deadlock-free` topological certificate (DESIGN.md
/// §"Invariant catalog").
pub fn verify_schedule(sg: &StageGraph, schedule: &PipelineSchedule) -> VerifyReport {
    let mut report = VerifyReport::new();
    if schedule.per_stage.len() != sg.len() {
        report.fail(
            Check::ScheduleCoverage,
            Location::global(),
            format!(
                "schedule covers {} stages but the strategy has {}",
                schedule.per_stage.len(),
                sg.len()
            ),
        );
        return report;
    }
    for (i, ss) in schedule.per_stage.iter().enumerate() {
        if ss.stage.index() != i {
            report.fail(
                Check::ScheduleCoverage,
                Location::stage(ss.stage),
                format!("task order at position {i} names stage {}", ss.stage),
            );
        }
    }
    if !report.is_clean() {
        return report;
    }
    for ss in &schedule.per_stage {
        let m = sg.stage(ss.stage).num_micro_batches(sg.mini_batch());
        // C4 + exact multiset, scanned once. Forwards and backwards must
        // each run micro-batches 0..m in order, and no backward may precede
        // its own forward.
        let mut next_f = 0u64;
        let mut next_b = 0u64;
        let mut structural = true;
        for t in &ss.tasks {
            if (t.mb as u64) >= m {
                report.fail(
                    Check::TaskMultiset,
                    Location::stage(ss.stage).at_task(t.mb, t.pass),
                    format!("micro-batch beyond the stage's {m}"),
                );
                structural = false;
                continue;
            }
            match t.pass {
                Pass::Forward => {
                    if t.mb as u64 != next_f {
                        report.fail(
                            Check::ForwardOrder,
                            Location::stage(ss.stage).at_task(t.mb, t.pass),
                            format!("expected F({next_f}) next (C4)"),
                        );
                        structural = false;
                    }
                    next_f = (t.mb as u64).max(next_f) + 1;
                }
                Pass::Backward => {
                    if t.mb as u64 != next_b {
                        report.fail(
                            Check::BackwardOrder,
                            Location::stage(ss.stage).at_task(t.mb, t.pass),
                            format!("expected B({next_b}) next (C4)"),
                        );
                        structural = false;
                    }
                    if t.mb as u64 >= next_f {
                        report.fail(
                            Check::BackwardAfterForward,
                            Location::stage(ss.stage).at_task(t.mb, t.pass),
                            "backward precedes its own forward (C4)",
                        );
                        structural = false;
                    }
                    next_b = (t.mb as u64).max(next_b) + 1;
                }
            }
        }
        if structural && (next_f != m || next_b != m) {
            report.fail(
                Check::TaskMultiset,
                Location::stage(ss.stage),
                format!("ran {next_f} forwards and {next_b} backwards, expected {m} each"),
            );
        }
        let leading = ss
            .tasks
            .iter()
            .take_while(|t| t.pass == Pass::Forward)
            .count() as u64;
        if ss.warmup != leading {
            report.fail(
                Check::WarmupConsistent,
                Location::stage(ss.stage),
                format!(
                    "recorded warm-up {} but the order opens with {leading} forwards",
                    ss.warmup
                ),
            );
        }
    }
    // The certificate assumes per-stage orders are complete and in-range;
    // only run it once the structural checks hold.
    if report.is_clean() {
        deadlock_certificate(sg, schedule, &mut report);
    }
    report
}

/// Proves the schedule deadlock-free by topologically sorting the exact
/// task dependency graph the simulator executes (`deadlock-free`,
/// DESIGN.md §"Invariant catalog"): per-replica queue edges (replica
/// `mb % d` of a stage runs its tasks in schedule order), forward-pass
/// data edges over covering micro-batches of every predecessor stage, and
/// backward-pass edges from the task's own forward plus covering backwards
/// of every successor stage. If Kahn's algorithm consumes every task, no
/// execution of the fixed per-device orders can stall; otherwise the
/// lowest-indexed stuck task names the cycle.
fn deadlock_certificate(sg: &StageGraph, schedule: &PipelineSchedule, report: &mut VerifyReport) {
    let idx = TaskIndex::new(sg);
    let n = idx.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    // Queue edges: each replica executes its share of the stage order
    // serially (the simulator's device queues).
    for s in sg.stages() {
        let d = s.dp_degree() as u32;
        let mut prev: Vec<Option<usize>> = vec![None; d as usize];
        for t in &schedule.stage(s.id).tasks {
            let ti = idx.index(s.id, t.mb, t.pass);
            let r = (t.mb % d) as usize;
            if let Some(p) = prev[r] {
                succs[p].push(ti as u32);
                indeg[ti] += 1;
            }
            prev[r] = Some(ti);
        }
    }
    // Data edges, mirroring `gp-sim`'s `ready_time`.
    for s in sg.stages() {
        let m = s.num_micro_batches(sg.mini_batch()) as u32;
        for mb in 0..m {
            let f = idx.index(s.id, mb, Pass::Forward);
            for &p in sg.preds(s.id) {
                for mb_p in covering_micro_batches(sg.stage(p).micro_batch, s.micro_batch, mb) {
                    let dep = idx.index(p, mb_p, Pass::Forward);
                    succs[dep].push(f as u32);
                    indeg[f] += 1;
                }
            }
            let b = idx.index(s.id, mb, Pass::Backward);
            succs[f].push(b as u32);
            indeg[b] += 1;
            for &t in sg.succs(s.id) {
                for mb_t in covering_micro_batches(sg.stage(t).micro_batch, s.micro_batch, mb) {
                    let dep = idx.index(t, mb_t, Pass::Backward);
                    succs[dep].push(b as u32);
                    indeg[b] += 1;
                }
            }
        }
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
    let mut done = 0usize;
    while let Some(t) = stack.pop() {
        done += 1;
        for &u in &succs[t as usize] {
            indeg[u as usize] -= 1;
            if indeg[u as usize] == 0 {
                stack.push(u);
            }
        }
    }
    if done != n {
        let stuck = indeg
            .iter()
            .position(|&d| d > 0)
            .expect("an unschedulable task retains in-degree");
        let (stage, mb, pass) = idx.task_at(stuck);
        let s = sg.stage(stage);
        let dev = gp_cluster::DeviceId(s.devices.first().0 + mb % s.dp_degree() as u32);
        report.fail(
            Check::DeadlockFree,
            Location::stage(stage).on_device(dev).at_task(mb, pass),
            format!("task can never run: the dependency graph has a cycle ({done}/{n} tasks sort)"),
        );
    }
}

/// Verifies a complete [`Plan`]: the stage graph and schedule, plus
/// `in-flight-consistent` (the recorded table equals the `ComputeInFlight`
/// recomputation), `stash-bound` (the schedule never holds more
/// micro-batches in flight than the table budgets), `memory-budget`
/// (Equation 2 per stage), `estimate-consistent` (the fingerprinted
/// estimates equal their cost-model recomputation bit-exactly), and
/// `estimate-finite` (DESIGN.md §"Invariant catalog").
pub fn verify_plan(graph: &Graph, cluster: &Cluster, plan: &Plan) -> VerifyReport {
    let sg = &plan.stage_graph;
    let mut report = verify_stage_graph(graph, cluster, sg);
    if !plan.bottleneck_tps.is_finite() || plan.bottleneck_tps < 0.0 {
        report.fail(
            Check::EstimateFinite,
            Location::global(),
            format!(
                "bottleneck TPS {} is not a finite non-negative value",
                plan.bottleneck_tps
            ),
        );
    }
    if !report.is_clean() {
        return report;
    }
    if plan.in_flight.len() != sg.len() {
        report.fail(
            Check::InFlightConsistent,
            Location::global(),
            format!(
                "in-flight table covers {} stages but the strategy has {}",
                plan.in_flight.len(),
                sg.len()
            ),
        );
        return report;
    }
    let expected = assign_in_flight(sg);
    for s in sg.stages() {
        if plan.in_flight.samples(s.id) != expected.samples(s.id) {
            report.fail(
                Check::InFlightConsistent,
                Location::stage(s.id),
                format!(
                    "in-flight table records {} samples but ComputeInFlight yields {}",
                    plan.in_flight.samples(s.id),
                    expected.samples(s.id)
                ),
            );
        }
    }
    report.merge(verify_schedule(sg, &plan.schedule));
    if !report.is_clean() {
        return report;
    }
    // The in-flight budget is charged in whole micro-batches (see
    // `CostModel::stage_memory`), so the bound compares micro-batch
    // counts.
    for s in sg.stages() {
        let held = plan.schedule.stage(s.id).peak_in_flight_micro_batches();
        let budget = plan.in_flight.micro_batches(sg, s.id);
        if held > budget {
            report.fail(
                Check::StashBound,
                Location::stage(s.id),
                format!(
                    "schedule holds {held} micro-batches in flight but the table budgets {budget}"
                ),
            );
        }
    }
    let cost = CostModel::new(cluster);
    for s in sg.stages() {
        let bytes = cost.stage_memory_bytes(
            graph,
            &s.ops,
            plan.in_flight.samples(s.id),
            s.micro_batch,
            s.dp_degree(),
        );
        if bytes > cost.memory_budget() {
            report.fail(
                Check::MemoryBudget,
                Location::stage(s.id).on_device(s.devices.first()),
                format!(
                    "needs {bytes} bytes per device, budget is {} (Equation 2)",
                    cost.memory_budget()
                ),
            );
        }
    }
    let (tps, mem) = plan.measure(graph, &cost);
    if plan.bottleneck_tps.to_bits() != tps.to_bits() {
        report.fail(
            Check::EstimateConsistent,
            Location::global(),
            format!(
                "recorded bottleneck TPS {:e} but the cost model yields {tps:e}",
                plan.bottleneck_tps
            ),
        );
    }
    if plan.peak_memory_bytes != mem {
        report.fail(
            Check::EstimateConsistent,
            Location::global(),
            format!(
                "recorded peak memory {} bytes but the cost model yields {mem}",
                plan.peak_memory_bytes
            ),
        );
    }
    report
}

/// Verifies the model side of a plan: `plan-path-consistent`, the plan's
/// recorded [`PlanPath`](gp_ir::PlanPath) against the model's (DESIGN.md
/// §"Invariant catalog"). The model's SP tree needs no check here: every
/// `SpModel` constructor audits it, and a model has no setters.
/// `Session::load_artifact` and the fleet's store hits run this on a plan
/// the artifact codec has already put through [`verify_plan`].
pub fn verify_model(model: &SpModel, plan: &Plan) -> VerifyReport {
    let mut report = VerifyReport::new();
    if plan.path != model.path() {
        report.fail(
            Check::PlanPathConsistent,
            Location::global(),
            format!(
                "plan records path `{}` but the model took `{}`",
                plan.path,
                model.path()
            ),
        );
    }
    report
}

/// Verifies a plan against its source model: everything [`verify_model`]
/// and [`verify_plan`] cover. This is the check `Session::plan` runs at its
/// trust boundary.
pub fn verify_strategy(model: &SpModel, cluster: &Cluster, plan: &Plan) -> VerifyReport {
    let mut report = verify_model(model, plan);
    report.merge(verify_plan(model.graph(), cluster, plan));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::DeviceRange;
    use gp_ir::zoo;
    use gp_partition::{GraphPipePlanner, Planner};
    use gp_sched::{schedule_tasks, Stage, StageSchedule, Task};

    fn chain_plan() -> (SpModel, Cluster, Plan) {
        let model = zoo::mlp_chain(4, 16);
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        (model, cluster, plan)
    }

    /// A hand-assembled two-stage pipeline (no planner): guarantees an
    /// upstream stage with warm-up >= 2 and stash head-room, which the
    /// planner's preferred strategy for a small chain may not exhibit.
    fn two_stage_plan(mini_batch: u64, micro_batch: u64) -> (SpModel, Cluster, Plan) {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(2);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &cluster, stages, mini_batch).unwrap();
        let plan = Plan::from_stage_graph(
            sg,
            &model,
            &CostModel::new(&cluster),
            gp_partition::SearchStats::default(),
        );
        (model, cluster, plan)
    }

    #[test]
    fn hand_assembled_plan_verifies_clean() {
        let (model, cluster, plan) = two_stage_plan(16, 4);
        let report = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn planner_output_verifies_clean() {
        let (model, cluster, plan) = chain_plan();
        let report = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn branching_model_verifies_clean() {
        let model = zoo::candle_uno(&zoo::CandleUnoConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let report = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{report}");
    }

    /// Hand-built raw stage list with every placement defect at once: the
    /// report must name each violated invariant.
    #[test]
    fn raw_stage_defects_are_all_named() {
        let model = zoo::mlp_chain(4, 16);
        let g = model.graph();
        let cluster = Cluster::summit_like(4);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..2].to_vec(), // leaves the rest uncovered
                devices: DeviceRange::new(0, 2),
                micro_batch: 3, // does not divide 32
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[..2].to_vec(),          // duplicates stage 0's ops
                devices: DeviceRange::new(1, 4), // overlaps + out of bounds
                micro_batch: 4,
                kfkb: 0, // empty-stage defect
            },
        ];
        let report = verify_stages(g, &cluster, &stages, 32);
        for check in [
            Check::MicroBatchDivides,
            Check::StageNonEmpty,
            Check::OpCoverExact,
            Check::DeviceBounds,
            Check::DeviceOverlap,
            Check::DeviceCoverage,
        ] {
            assert!(report.violates(check), "missing {check}:\n{report}");
        }
    }

    #[test]
    fn zero_mini_batch_is_named() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(1);
        let ops = model.linearize();
        let stages = vec![Stage {
            id: StageId(0),
            ops,
            devices: DeviceRange::new(0, 1),
            micro_batch: 2,
            kfkb: 1,
        }];
        let report = verify_stages(model.graph(), &cluster, &stages, 0);
        assert!(report.violates(Check::MiniBatchPositive), "{report}");
    }

    #[test]
    fn non_convex_stage_is_named() {
        let model = zoo::mlp_chain(2, 8);
        let g = model.graph();
        let cluster = Cluster::summit_like(2);
        let ops = model.linearize();
        let mut s0 = vec![ops[0], ops[2]];
        let mut s1 = vec![ops[1]];
        s1.extend_from_slice(&ops[3..]);
        s0.sort();
        s1.sort();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: s0,
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: s1,
                devices: DeviceRange::new(1, 1),
                micro_batch: 2,
                kfkb: 1,
            },
        ];
        let report = verify_stages(g, &cluster, &stages, 8);
        assert!(report.violates(Check::OpConvex), "{report}");
        assert!(report.violates(Check::StageAcyclic), "{report}");
    }

    #[test]
    fn schedule_defects_are_named() {
        let (_, _, plan) = two_stage_plan(16, 4);
        let sg = &plan.stage_graph;

        // Dropped task order.
        let mut sched = plan.schedule.clone();
        sched.per_stage.pop();
        assert!(verify_schedule(sg, &sched).violates(Check::ScheduleCoverage));

        // Swapped warm-up forwards (C4 order) on a stage with warmup >= 2.
        let mut sched = plan.schedule.clone();
        let victim = sched
            .per_stage
            .iter_mut()
            .find(|s| s.warmup >= 2)
            .expect("an upstream stage warms up at least 2");
        victim.tasks.swap(0, 1);
        assert!(verify_schedule(sg, &sched).violates(Check::ForwardOrder));

        // Dropped trailing backward: wrong multiset.
        let mut sched = plan.schedule.clone();
        sched.per_stage[0].tasks.pop();
        assert!(verify_schedule(sg, &sched).violates(Check::TaskMultiset));

        // Backward before its forward.
        let mut sched = plan.schedule.clone();
        let tasks = &mut sched.per_stage[0].tasks;
        let last = tasks.len() - 1;
        tasks.swap(0, last); // B(m-1) first, F(0) last
        let report = verify_schedule(sg, &sched);
        assert!(report.violates(Check::BackwardAfterForward), "{report}");

        // Inflated warm-up record.
        let mut sched = plan.schedule.clone();
        sched.per_stage[0].warmup += 1;
        assert!(verify_schedule(sg, &sched).violates(Check::WarmupConsistent));
    }

    /// Two C4-valid stage orders that deadlock against each other: S0 wants
    /// B(0) before F(1), but S1 backs up B(0) behind F(1) which needs S0's
    /// F(1). Only the topological certificate catches this.
    #[test]
    fn deadlock_certificate_catches_crossed_orders() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(2);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 4,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: 4,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap();
        let f = |mb| Task {
            pass: Pass::Forward,
            mb,
        };
        let b = |mb| Task {
            pass: Pass::Backward,
            mb,
        };
        let deadlocked = PipelineSchedule {
            per_stage: vec![
                StageSchedule {
                    stage: StageId(0),
                    warmup: 1,
                    tasks: vec![f(0), b(0), f(1), b(1)],
                },
                StageSchedule {
                    stage: StageId(1),
                    warmup: 2,
                    tasks: vec![f(0), f(1), b(0), b(1)],
                },
            ],
        };
        // Both orders satisfy C4 in isolation (the certificate runs only
        // once every per-stage check holds)...
        let report = verify_schedule(&sg, &deadlocked);
        assert_eq!(report.violations().len(), 1, "{report}");
        // ...but the cross-stage dependency graph is cyclic.
        assert!(report.violates(Check::DeadlockFree), "{report}");
        // The working order (enough warm-up upstream) proves clean.
        let fine = schedule_tasks(&sg, &assign_in_flight(&sg));
        assert!(verify_schedule(&sg, &fine).is_clean());
    }

    #[test]
    fn plan_level_defects_are_named() {
        let (model, cluster, plan) = chain_plan();
        let g = model.graph();

        // Corrupted in-flight table.
        let mut bad = plan.clone();
        let mut samples: Vec<u64> = bad
            .stage_graph
            .stages()
            .map(|s| bad.in_flight.samples(s.id))
            .collect();
        samples[0] += 1;
        bad.in_flight = gp_sched::InFlightTable::from_samples(samples);
        assert!(verify_plan(g, &cluster, &bad).violates(Check::InFlightConsistent));

        // Truncated in-flight table.
        let mut bad = plan.clone();
        bad.in_flight = gp_sched::InFlightTable::from_samples(vec![4]);
        if bad.stage_graph.len() > 1 {
            assert!(verify_plan(g, &cluster, &bad).violates(Check::InFlightConsistent));
        }

        // Drifted TPS estimate.
        let mut bad = plan.clone();
        bad.bottleneck_tps *= 1.0 + 1e-12;
        assert!(verify_plan(g, &cluster, &bad).violates(Check::EstimateConsistent));

        // Drifted memory estimate.
        let mut bad = plan.clone();
        bad.peak_memory_bytes += 1;
        assert!(verify_plan(g, &cluster, &bad).violates(Check::EstimateConsistent));

        // Non-finite estimate.
        let mut bad = plan.clone();
        bad.bottleneck_tps = f64::NAN;
        assert!(verify_plan(g, &cluster, &bad).violates(Check::EstimateFinite));
    }

    #[test]
    fn stash_bound_catches_oversized_schedule() {
        let (model, cluster, plan) = two_stage_plan(16, 4);
        let g = model.graph();
        // Rebuild stage 0's order with twice the warm-up: C4 still holds,
        // in-flight table still matches the graph, but the realized stash
        // exceeds the budget.
        let mut bad = plan.clone();
        let s0 = &bad.stage_graph.stage(StageId(0)).clone();
        let m = s0.num_micro_batches(bad.stage_graph.mini_batch());
        let budget = bad.in_flight.micro_batches(&bad.stage_graph, StageId(0));
        assert!(budget < m, "need head-room to oversubscribe");
        bad.schedule.per_stage[0] = StageSchedule::kfkb(StageId(0), m, budget + 1, s0.kfkb);
        let report = verify_plan(g, &cluster, &bad);
        assert!(report.violates(Check::StashBound), "{report}");
    }

    #[test]
    fn memory_budget_catches_tiny_cluster() {
        let (model, cluster, plan) = chain_plan();
        // Same plan, but judged against devices with 1 KiB of memory.
        let tiny = cluster.with_memory_capacity(1 << 10);
        let report = verify_plan(model.graph(), &tiny, &plan);
        assert!(report.violates(Check::MemoryBudget), "{report}");
        // The estimates were computed against the real cluster, so they
        // drift too — but memory-budget must be named independently.
        assert!(!report.is_clean());
    }
}
