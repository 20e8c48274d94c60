//! Mutation suite for the static verifier (`gp-verify`).
//!
//! Every committed golden artifact under `tests/goldens/` is decoded into a
//! [`Plan`] and then subjected to a battery of targeted corruptions — one
//! per cataloged invariant family. The verifier must (a) accept each golden
//! plan unmodified and (b) reject every corruption *by name*, i.e. the
//! expected [`Check`] must appear in the report. The corruptions are
//! applied at the layer where they can exist: raw stage lists go through
//! [`verify_stages`] and the [`StageGraph`] constructors that run it,
//! assembled plans through [`verify_plan`], and two
//! byte-level corruptions go through the artifact codec to prove decode
//! errors carry the violation name end to end (DESIGN.md §"Invariant
//! catalog").
//!
//! The goldens also pin planner and codec determinism: each must equal a
//! fresh plan of its cell and re-encode to its committed bytes. After an
//! intended planner or codec change, regenerate them with
//! `UPDATE_GOLDENS=1 cargo test -q --test verify_mutations`.

use gp_cluster::{Cluster, DeviceRange};
use gp_ir::{zoo, OpId, PlanPath, SpBlock, SpError, SpModel};
use gp_partition::{GraphPipePlanner, Plan, Planner};
use gp_sched::{InFlightTable, Stage, StageGraph, StageId};
use gp_serve::artifact::{decode_plan, encode_plan};
use gp_serve::{Fingerprint, PlanRequest};
use gp_verify::{verify_plan, verify_stages, verify_strategy, Check, VerifyReport};
use std::path::PathBuf;
use std::sync::Arc;

/// The mini-batch every golden cell is planned at.
const MINI_BATCH: u64 = 32;

/// The golden cells: small enough to plan in debug mode in well under a
/// second each, diverse enough to cover branching, MoE routing, and plain
/// chains.
fn cells() -> Vec<(&'static str, SpModel, usize)> {
    vec![
        ("mmt-tiny-4gpu", zoo::mmt(&zoo::MmtConfig::tiny()), 4),
        (
            "candle-uno-tiny-4gpu",
            zoo::candle_uno(&zoo::CandleUnoConfig::tiny()),
            4,
        ),
        ("moe-tiny-4gpu", zoo::moe(&zoo::MoeConfig::tiny()), 4),
        ("mlp-chain-4gpu", zoo::mlp_chain(4, 64), 4),
        (
            "gnn-pipe-tiny-4gpu",
            zoo::gnn_pipe(&zoo::GnnPipeConfig::tiny()),
            4,
        ),
        ("gpt2-tiny-4gpu", zoo::gpt2(&zoo::Gpt2Config::tiny()), 4),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

/// The committed artifact's text, its decoded plan, and the fingerprint
/// it records.
fn golden(name: &str, model: &SpModel, cluster: &Cluster) -> (String, Plan, Option<Fingerprint>) {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let (plan, fingerprint) = decode_plan(&text, model.graph(), cluster)
        .unwrap_or_else(|e| panic!("{name}: committed golden does not decode: {e}"));
    (text, plan, fingerprint)
}

fn stage_list(plan: &Plan) -> Vec<Stage> {
    plan.stage_graph.stages().cloned().collect()
}

/// Runs `mutate` on every golden cell's stage list and asserts that the
/// raw stage verifier and the stage-graph constructor name each
/// `expected` check.
fn assert_stage_mutation(expected: &[Check], mutate: impl Fn(&mut Vec<Stage>, &mut u64, &Cluster)) {
    for (name, model, devices) in cells() {
        let cluster = Cluster::summit_like(devices);
        let (_, plan, _) = golden(name, &model, &cluster);
        let mut stages = stage_list(&plan);
        let mut mini_batch = plan.stage_graph.mini_batch();
        mutate(&mut stages, &mut mini_batch, &cluster);
        let report = verify_stages(model.graph(), &cluster, &stages, mini_batch);
        let err = StageGraph::new(model.graph(), &cluster, stages, mini_batch)
            .expect_err("the constructor accepted a corrupted stage list");
        for check in expected {
            for report in [&report, err.report()] {
                assert!(
                    report.violates(*check),
                    "{name}: expected {check} in report, got: {report}"
                );
            }
        }
    }
}

/// Runs `mutate` on every golden cell's decoded plan and asserts the plan
/// verifier names each `expected` check.
fn assert_plan_mutation(expected: &[Check], mutate: impl Fn(&mut Plan)) {
    for (name, model, devices) in cells() {
        let cluster = Cluster::summit_like(devices);
        let (_, mut plan, _) = golden(name, &model, &cluster);
        mutate(&mut plan);
        let report = verify_plan(model.graph(), &cluster, &plan);
        for check in expected {
            assert!(
                report.violates(*check),
                "{name}: expected {check} in report, got: {report}"
            );
        }
    }
}

/// Every committed golden decodes and verifies clean, equals a fresh plan
/// of the same problem (planner determinism across builds), and
/// re-encodes to the committed bytes (codec determinism). With
/// `UPDATE_GOLDENS=1` the files are first rewritten from the fresh plans.
#[test]
fn golden_plans_verify_clean() {
    let update = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    for (name, model, devices) in cells() {
        let cluster = Cluster::summit_like(devices);
        let mut fresh = GraphPipePlanner::new()
            .plan(&model, &cluster, MINI_BATCH)
            .unwrap_or_else(|e| panic!("{name}: planner failed: {e}"));
        // Search walls are the only nondeterministic plan fields.
        fresh.stats.zero_walls();
        if update {
            let fp = PlanRequest::new(Arc::new(model.clone()), cluster.clone(), MINI_BATCH)
                .fingerprint();
            // Write, then rename: the other tests read the goldens
            // concurrently and must never see a half-written file.
            let path = golden_path(name);
            let tmp = path.with_extension("json.tmp");
            std::fs::write(&tmp, encode_plan(&fresh, Some(fp))).expect("write golden");
            std::fs::rename(&tmp, &path).expect("replace golden");
        }
        let (text, plan, recorded_fp) = golden(name, &model, &cluster);
        let report: VerifyReport = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{name}: golden plan rejected: {report}");
        assert!(
            plan == fresh,
            "{name}: golden differs from a fresh plan of the same problem \
             (rerun with UPDATE_GOLDENS=1 if the planner change is intended)"
        );
        assert!(
            encode_plan(&plan, recorded_fp) == text,
            "{name}: re-encoding the decoded golden changed its bytes"
        );
    }
}

#[test]
fn zero_mini_batch_is_rejected() {
    assert_stage_mutation(&[Check::MiniBatchPositive], |_, mini_batch, _| {
        *mini_batch = 0;
    });
}

#[test]
fn duplicate_stage_id_is_rejected() {
    assert_stage_mutation(&[Check::StageIdsDense], |stages, _, _| {
        let first = stages[0].id;
        stages.last_mut().unwrap().id = first;
    });
}

#[test]
fn empty_stage_is_rejected() {
    assert_stage_mutation(&[Check::StageNonEmpty], |stages, _, _| {
        stages[0].ops.clear();
    });
}

#[test]
fn non_dividing_micro_batch_is_rejected() {
    assert_stage_mutation(&[Check::MicroBatchDivides], |stages, mini_batch, _| {
        stages[0].micro_batch = *mini_batch + 1;
    });
}

#[test]
fn dropped_op_is_rejected() {
    assert_stage_mutation(&[Check::OpCoverExact], |stages, _, _| {
        stages[0].ops.remove(0);
    });
}

#[test]
fn doubly_assigned_op_is_rejected() {
    assert_stage_mutation(&[Check::OpCoverExact], |stages, _, _| {
        let dup = stages[1].ops[0];
        stages[0].ops.push(dup);
    });
}

/// Moving the sink stage's last op (the graph's sink) into the source
/// stage creates a path that leaves stage 0 and re-enters it — a convexity
/// (C1) violation — and the derived stage DAG acquires a cycle.
#[test]
fn nonconvex_stage_is_rejected() {
    assert_stage_mutation(&[Check::OpConvex, Check::StageAcyclic], |stages, _, _| {
        assert!(
            stages.last().unwrap().ops.len() >= 2,
            "cell must keep the sink stage nonempty after the move"
        );
        let sink_op = stages.last_mut().unwrap().ops.pop().unwrap();
        stages[0].ops.push(sink_op);
    });
}

#[test]
fn out_of_cluster_device_is_rejected() {
    assert_stage_mutation(&[Check::DeviceBounds], |stages, _, cluster| {
        stages[0].devices = DeviceRange::new(cluster.device_count() as u32, 1);
    });
}

#[test]
fn overlapping_devices_are_rejected() {
    assert_stage_mutation(&[Check::DeviceOverlap], |stages, _, _| {
        stages[0].devices = stages[1].devices;
    });
}

/// Widening one stage's device range makes the total device count exceed
/// the cluster's, so the tiling no longer covers the cluster exactly.
#[test]
fn untiled_devices_are_rejected() {
    assert_stage_mutation(&[Check::DeviceCoverage], |stages, _, _| {
        let d = stages[0].devices;
        stages[0].devices = DeviceRange::new(d.first().index() as u32, d.len() as u32 + 1);
    });
}

#[test]
fn tampered_in_flight_table_is_rejected() {
    assert_plan_mutation(&[Check::InFlightConsistent], |plan| {
        let n = plan.stage_graph.len();
        let mut samples: Vec<u64> = (0..n)
            .map(|i| plan.in_flight.samples(StageId(i as u32)))
            .collect();
        samples[0] += plan.stage_graph.stage(StageId(0)).micro_batch;
        plan.in_flight = InFlightTable::from_samples(samples);
    });
}

#[test]
fn reversed_task_order_is_rejected() {
    assert_plan_mutation(&[Check::BackwardAfterForward], |plan| {
        plan.schedule.per_stage[0].tasks.reverse();
    });
}

#[test]
fn dropped_task_is_rejected() {
    assert_plan_mutation(&[Check::TaskMultiset], |plan| {
        plan.schedule.per_stage[0].tasks.pop();
    });
}

#[test]
fn wrong_warmup_is_rejected() {
    assert_plan_mutation(&[Check::WarmupConsistent], |plan| {
        plan.schedule.per_stage[0].warmup += 1;
    });
}

#[test]
fn skewed_throughput_estimate_is_rejected() {
    assert_plan_mutation(&[Check::EstimateConsistent], |plan| {
        plan.bottleneck_tps *= 1.5;
    });
}

#[test]
fn skewed_memory_estimate_is_rejected() {
    assert_plan_mutation(&[Check::EstimateConsistent], |plan| {
        plan.peak_memory_bytes += 1;
    });
}

#[test]
fn non_finite_estimate_is_rejected() {
    assert_plan_mutation(&[Check::EstimateFinite], |plan| {
        plan.bottleneck_tps = f64::NAN;
    });
}

/// The SP-ized golden cell — the one whose model runs the DAG fallback
/// ladder ([`gp_ir::PlanPath::SpIzed`]) — with its decoded plan. The
/// SP-tree mutations below corrupt *this* model's tree seven ways and
/// require the strategy verifier to reject each by catalog name.
fn sp_ized_cell() -> (SpModel, Cluster, Plan) {
    let model = zoo::gnn_pipe(&zoo::GnnPipeConfig::tiny());
    let cluster = Cluster::summit_like(4);
    let (_, plan, _) = golden("gnn-pipe-tiny-4gpu", &model, &cluster);
    assert!(
        matches!(model.path(), PlanPath::SpIzed { .. }),
        "the gnn-pipe cell must exercise the SP-ization rung"
    );
    (model, cluster, plan)
}

/// Rebuilds the SP-ized cell's model with `mutate` applied to its tree
/// (bypassing validation via [`SpModel::new_unchecked`]) and asserts the
/// strategy verifier names `expected`, and that the validating constructor
/// rejects the same tree with `sp_error`.
fn assert_tree_mutation(expected: Check, sp_error: SpError, mutate: impl FnOnce(&mut SpBlock)) {
    let (model, cluster, plan) = sp_ized_cell();
    let mut root = model.root().clone();
    mutate(&mut root);
    assert_eq!(
        SpModel::new(model.name(), model.graph().clone(), root.clone()).err(),
        Some(sp_error)
    );
    let corrupt = SpModel::new_unchecked(model.name(), model.graph().clone(), root, model.path());
    let report = verify_strategy(&corrupt, &cluster, &plan);
    assert!(
        report.violates(expected),
        "expected {expected} in report, got: {report}"
    );
}

/// Returns the leaves of a tree in series order.
fn leaves(block: &SpBlock) -> Vec<gp_ir::OpId> {
    let mut model_order = Vec::new();
    fn walk(block: &SpBlock, out: &mut Vec<gp_ir::OpId>) {
        match block {
            SpBlock::Leaf(id) => out.push(*id),
            SpBlock::Chain(items) | SpBlock::Branches(items) => {
                items.iter().for_each(|b| walk(b, out))
            }
        }
    }
    walk(block, &mut model_order);
    model_order
}

#[test]
fn dropped_split_node_is_rejected() {
    // Removing the first child of the root drops every operator under it
    // from the tree's coverage.
    assert_tree_mutation(
        Check::SpCoverExact,
        SpError::MissingOp(OpId(0)),
        |root| match root {
            SpBlock::Chain(items) | SpBlock::Branches(items) => {
                items.remove(0);
            }
            SpBlock::Leaf(_) => panic!("the SP-ized cell's tree cannot be a single leaf"),
        },
    );
}

#[test]
fn duplicated_leaf_is_rejected() {
    assert_tree_mutation(Check::SpCoverExact, SpError::DuplicateOp(OpId(0)), |root| {
        let dup = SpBlock::Leaf(leaves(root)[0]);
        match root {
            SpBlock::Chain(items) | SpBlock::Branches(items) => items.push(dup),
            SpBlock::Leaf(_) => unreachable!(),
        }
    });
}

#[test]
fn reordered_chain_is_rejected() {
    // Reversing the series order runs the sink before the source.
    assert_tree_mutation(
        Check::SpTopoOrder,
        SpError::BackwardEdge(OpId(0), OpId(1)),
        |root| {
            let reversed: Vec<SpBlock> =
                leaves(root).into_iter().rev().map(SpBlock::Leaf).collect();
            *root = SpBlock::Chain(reversed);
        },
    );
}

#[test]
fn cross_branch_edge_is_rejected() {
    // Flattening the tree into one big `Branches` keeps coverage exact and
    // (leaves stay in series order) the linearization topological — but
    // every data edge now crosses parallel branches, exactly the corruption
    // `sp-edge-cover` exists to catch.
    assert_tree_mutation(
        Check::SpEdgeCover,
        SpError::CrossBranchEdge(OpId(0), OpId(1)),
        |root| {
            let flat: Vec<SpBlock> = leaves(root).into_iter().map(SpBlock::Leaf).collect();
            *root = SpBlock::Branches(flat);
        },
    );
}

#[test]
fn reversed_branches_are_rejected() {
    // The same flattening in reversed series order: every edge still
    // crosses parallel branches, which the constructor reports first, while
    // the verifier first finds that the series linearization runs
    // backwards.
    assert_tree_mutation(
        Check::SpTopoOrder,
        SpError::CrossBranchEdge(OpId(0), OpId(1)),
        |root| {
            let reversed: Vec<SpBlock> =
                leaves(root).into_iter().rev().map(SpBlock::Leaf).collect();
            *root = SpBlock::Branches(reversed);
        },
    );
}

#[test]
fn stale_distortion_is_rejected() {
    let (model, cluster, plan) = sp_ized_cell();
    let PlanPath::SpIzed { distortion } = model.path() else {
        unreachable!()
    };
    let stale = PlanPath::SpIzed {
        distortion: distortion + 1,
    };
    let corrupt = SpModel::new_unchecked(
        model.name(),
        model.graph().clone(),
        model.root().clone(),
        stale,
    );
    let report = verify_strategy(&corrupt, &cluster, &plan);
    assert!(
        report.violates(Check::DistortionExact),
        "expected distortion-exact in report, got: {report}"
    );
}

#[test]
fn mismatched_plan_path_is_rejected() {
    let (model, cluster, mut plan) = sp_ized_cell();
    plan.path = PlanPath::ExactSp;
    let report = verify_strategy(&model, &cluster, &plan);
    assert!(
        report.violates(Check::PlanPathConsistent),
        "expected plan-path-consistent in report, got: {report}"
    );
}

#[test]
fn insane_cluster_unit_count_is_rejected() {
    let (model, cluster, mut plan) = sp_ized_cell();
    let zero_units = PlanPath::Clustered { units: 0 };
    plan.path = zero_units;
    let corrupt = SpModel::new_unchecked(
        model.name(),
        model.graph().clone(),
        model.root().clone(),
        zero_units,
    );
    let report = verify_strategy(&corrupt, &cluster, &plan);
    assert!(
        report.violates(Check::PlanPathConsistent),
        "expected plan-path-consistent in report, got: {report}"
    );
}

/// Byte-level corruption: the codec's decode error must carry the violated
/// invariant's catalog name, not a generic parse failure.
#[test]
fn corrupted_artifact_bytes_name_the_invariant() {
    for (name, model, devices) in cells() {
        let cluster = Cluster::summit_like(devices);
        let (text, _, _) = golden(name, &model, &cluster);

        let zeroed = text.replace("\"mini_batch\":32", "\"mini_batch\":0");
        assert_ne!(zeroed, text, "{name}: mini_batch field not found");
        let err = decode_plan(&zeroed, model.graph(), &cluster)
            .expect_err("zero mini-batch must not decode");
        assert!(
            err.to_string().contains("mini-batch-positive"),
            "{name}: error does not name the invariant: {err}"
        );

        let shifted = text.replacen("\"dev_start\":0", "\"dev_start\":1", 1);
        assert_ne!(shifted, text, "{name}: dev_start field not found");
        let err = decode_plan(&shifted, model.graph(), &cluster)
            .expect_err("overlapping devices must not decode");
        assert!(
            err.to_string().contains("device-overlap"),
            "{name}: error does not name the invariant: {err}"
        );
    }
}
