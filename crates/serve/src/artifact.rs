//! The versioned, lossless plan artifact format.
//!
//! A *plan artifact* is the on-the-wire / on-disk form of a
//! [`gp_partition::Plan`]: a single JSON document that a plan service can
//! persist, ship to trainers, and decode back into the exact strategy the
//! planner produced. The codec is hand-rolled on [`crate::json`].
//!
//! # Format (version 4)
//!
//! ```json
//! {
//!   "format": "graphpipe-plan",
//!   "version": 4,
//!   "fingerprint": "<32 hex digits, optional>",
//!   "mini_batch": 64,
//!   "stages": [
//!     {"id": 0, "ops": [0, 1, 2], "dev_start": 0, "dev_len": 2,
//!      "micro_batch": 4, "kfkb": 1}
//!   ],
//!   "edges": [[0, 1]],
//!   "in_flight": [8, 4],
//!   "schedule": [{"stage": 0, "warmup": 2, "tasks": [0, 2, 1, 3]}],
//!   "bottleneck_tps": 1.25e-6,
//!   "peak_memory_bytes": 123456,
//!   "stats": {"wall_secs": 0, "wall_nanos": 81342, "dp_evals": 62013,
//!             "dp_states": 911, "memo_hits": 50211, "memo_misses": 911,
//!             "work_bound_prunes": 1423, "memory_prunes": 61,
//!             "beam_prunes": 0, "eval_batches": 702,
//!             "binary_iters": 9, "configs_tried": 4}
//! }
//! ```
//!
//! * `tasks` packs each pass as `2 * micro_batch_index + direction`
//!   (`0` = forward, `1` = backward), preserving order;
//! * `edges` records the stage DAG's edge list — including any sequential
//!   edges an SPP baseline imposed — so decoding can *verify* that the
//!   reconstructed, re-validated stage graph is identical to the encoded
//!   one;
//! * `wall_secs`/`wall_nanos` split the search wall-clock duration
//!   losslessly;
//! * floats are written in shortest round-trip form, integers never pass
//!   through `f64` (see [`crate::json`]), so
//!   `decode(encode(plan)) == plan` exactly.
//!
//! # Compatibility rules
//!
//! * `format` must equal `"graphpipe-plan"`; anything else is rejected.
//! * `version` is a single integer. Decoders accept only [`VERSION`];
//!   every other version is rejected with
//!   [`ArtifactError::UnsupportedVersion`] rather than misread. Adding
//!   fields requires a version bump; unknown fields are ignored.
//! * every search counter in `stats` is required.
//! * the optional `plan_path` member records which rung of the DAG
//!   fallback ladder produced the plan's model
//!   (`{"kind": "sp-ized", "distortion": N}` or
//!   `{"kind": "clustered", "units": N}`); absence means the exact-SP
//!   path.
//!
//! Decoding is *validating*: the stage graph is rebuilt once through
//! [`StageGraph::new`] (plus [`StageGraph::into_sequential`] for artifacts
//! carrying imposed chain edges), which runs the stage-list checks
//! ([`gp_verify::verify_stages`]), and the assembled plan runs
//! through [`gp_verify::verify_plan`] — C4 order, deadlock freedom, stash
//! and memory bounds, estimate agreement. A corrupted or mismatched
//! artifact fails with [`ArtifactError::Violation`], naming the exact
//! invariant (and stage/device/task) that failed.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::fingerprint::Fingerprint;
use crate::json::{Json, JsonError};
use gp_cluster::{Cluster, DeviceRange};
use gp_cost::Pass;
use gp_ir::{Graph, OpId, PlanPath};
use gp_partition::{Plan, SearchStats};
use gp_sched::{InFlightTable, PipelineSchedule, Stage, StageGraph, StageId, StageSchedule, Task};
use std::fmt;
use std::time::Duration;

/// The artifact `format` marker.
pub const FORMAT: &str = "graphpipe-plan";

/// The artifact version this build writes and the only one it decodes.
pub const VERSION: u64 = 4;

/// Why an artifact failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The document is not syntactically valid JSON.
    Json(JsonError),
    /// The `format` marker is missing or not [`FORMAT`].
    BadFormat(String),
    /// The document's version is not [`VERSION`], the only one this
    /// decoder understands.
    UnsupportedVersion(u64),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// The document parses but does not describe a valid strategy: the
    /// static verifier ([`gp_verify`]) rejected it, and the violation
    /// names the exact invariant (and stage/device/task) that failed.
    Violation(gp_verify::Violation),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "malformed artifact: {e}"),
            ArtifactError::BadFormat(got) => {
                write!(f, "not a plan artifact (format marker `{got}`)")
            }
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "artifact version {v} is unsupported (this build reads {VERSION})"
                )
            }
            ArtifactError::Field(name) => {
                write!(f, "artifact field `{name}` is missing or ill-typed")
            }
            ArtifactError::Violation(v) => {
                write!(f, "artifact does not describe a valid strategy: {v}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

/// The *strategy* members of the artifact document — everything that
/// describes the plan itself (stages, placement, edges, in-flight,
/// schedule, estimates), excluding the format header and the search-stats
/// block. This is the canonical form behind
/// [`crate::fingerprint::plan_fingerprint`], so it must not absorb codec
/// versioning or accounting details.
pub(crate) fn strategy_members(plan: &Plan) -> Vec<(String, Json)> {
    let sg = &plan.stage_graph;
    let mut members: Vec<(String, Json)> = Vec::new();
    members.push(("mini_batch".into(), Json::Int(sg.mini_batch() as i128)));
    members.push((
        "stages".into(),
        Json::Arr(
            sg.stages()
                .map(|s| {
                    Json::Obj(vec![
                        ("id".into(), Json::Int(s.id.0 as i128)),
                        (
                            "ops".into(),
                            Json::Arr(s.ops.iter().map(|o| Json::Int(o.0 as i128)).collect()),
                        ),
                        ("dev_start".into(), Json::Int(s.devices.first().0 as i128)),
                        ("dev_len".into(), Json::Int(s.devices.len() as i128)),
                        ("micro_batch".into(), Json::Int(s.micro_batch as i128)),
                        ("kfkb".into(), Json::Int(s.kfkb as i128)),
                    ])
                })
                .collect(),
        ),
    ));
    members.push((
        "edges".into(),
        Json::Arr(
            sg.stage_edges()
                .into_iter()
                .map(|(a, b)| Json::Arr(vec![Json::Int(a.0 as i128), Json::Int(b.0 as i128)]))
                .collect(),
        ),
    ));
    members.push((
        "in_flight".into(),
        Json::Arr(
            (0..sg.len() as u32)
                .map(|i| Json::Int(plan.in_flight.samples(StageId(i)) as i128))
                .collect(),
        ),
    ));
    members.push((
        "schedule".into(),
        Json::Arr(
            plan.schedule
                .per_stage
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("stage".into(), Json::Int(s.stage.0 as i128)),
                        ("warmup".into(), Json::Int(s.warmup as i128)),
                        (
                            "tasks".into(),
                            Json::Arr(
                                s.tasks
                                    .iter()
                                    .map(|t| {
                                        let dir = match t.pass {
                                            Pass::Forward => 0,
                                            Pass::Backward => 1,
                                        };
                                        Json::Int((2 * t.mb as i128) + dir)
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    members.push(("bottleneck_tps".into(), Json::Float(plan.bottleneck_tps)));
    members.push((
        "peak_memory_bytes".into(),
        Json::Int(plan.peak_memory_bytes as i128),
    ));
    // Emitted only off the exact-SP path: pre-DAG plans (and their
    // fingerprints) stay byte-stable, while SP-ized/clustered strategies
    // carry the rung — and its accounting — in their identity.
    if let Some(path) = encode_plan_path(plan.path) {
        members.push(("plan_path".into(), path));
    }
    members
}

/// Encodes a [`PlanPath`] as the artifact's `plan_path` member:
/// `{"kind": "sp-ized", "distortion": N}` or
/// `{"kind": "clustered", "units": N}`. The exact-SP path is `None`: the
/// artifact spells it by leaving the member out.
fn encode_plan_path(path: PlanPath) -> Option<Json> {
    let (kind, key, value) = match path {
        PlanPath::ExactSp => return None,
        PlanPath::SpIzed { distortion } => ("sp-ized", "distortion", distortion),
        PlanPath::Clustered { units } => ("clustered", "units", u64::from(units)),
    };
    Some(Json::Obj(vec![
        ("kind".into(), Json::Str(kind.into())),
        (key.into(), Json::Int(i128::from(value))),
    ]))
}

/// Decodes what [`encode_plan_path`] wrote. `None` when the `kind` is
/// missing or unknown, or its count is missing, ill-typed or out of
/// range; the caller reports that as a typed field error.
fn decode_plan_path(doc: &Json) -> Option<PlanPath> {
    match doc.get("kind")?.as_str()? {
        "sp-ized" => Some(PlanPath::SpIzed {
            distortion: doc.get("distortion")?.as_u64()?,
        }),
        "clustered" => Some(PlanPath::Clustered {
            units: u32::try_from(doc.get("units")?.as_u64()?).ok()?,
        }),
        _ => None,
    }
}

/// Encodes a plan as a version-[`VERSION`] artifact document, optionally
/// stamping the request fingerprint into the header.
pub fn encode_plan(plan: &Plan, fingerprint: Option<Fingerprint>) -> String {
    let mut members: Vec<(String, Json)> = vec![
        ("format".into(), Json::Str(FORMAT.into())),
        ("version".into(), Json::Int(VERSION as i128)),
    ];
    if let Some(fp) = fingerprint {
        members.push(("fingerprint".into(), Json::Str(fp.to_string())));
    }
    members.extend(strategy_members(plan));
    members.push((
        "stats".into(),
        Json::Obj(vec![
            (
                "wall_secs".into(),
                Json::Int(plan.stats.wall.as_secs() as i128),
            ),
            (
                "wall_nanos".into(),
                Json::Int(plan.stats.wall.subsec_nanos() as i128),
            ),
            ("dp_evals".into(), Json::Int(plan.stats.dp_evals as i128)),
            ("dp_states".into(), Json::Int(plan.stats.dp_states as i128)),
            ("memo_hits".into(), Json::Int(plan.stats.memo_hits as i128)),
            (
                "memo_misses".into(),
                Json::Int(plan.stats.memo_misses as i128),
            ),
            (
                "work_bound_prunes".into(),
                Json::Int(plan.stats.work_bound_prunes as i128),
            ),
            (
                "memory_prunes".into(),
                Json::Int(plan.stats.memory_prunes as i128),
            ),
            (
                "beam_prunes".into(),
                Json::Int(plan.stats.beam_prunes as i128),
            ),
            (
                "eval_batches".into(),
                Json::Int(plan.stats.eval_batches as i128),
            ),
            (
                "binary_iters".into(),
                Json::Int(plan.stats.binary_iters as i128),
            ),
            (
                "configs_tried".into(),
                Json::Int(plan.stats.configs_tried as i128),
            ),
        ]),
    ));
    Json::Obj(members).to_string()
}

/// The canonical artifact the fleet serves and persists: [`encode_plan`]
/// with the **search stats zeroed**. Search counters and wall clocks are
/// measurement — they vary with the machine — while the strategy itself
/// is a pure function of the request. Zeroing them makes the artifact
/// bytes a pure function of the request too, which is the fleet's
/// determinism contract: a store file holds exactly these bytes.
pub fn canonical_artifact(plan: &Plan, fingerprint: Fingerprint) -> String {
    let mut canonical = plan.clone();
    canonical.stats = SearchStats::default();
    encode_plan(&canonical, Some(fingerprint))
}

fn field<'j>(doc: &'j Json, name: &'static str) -> Result<&'j Json, ArtifactError> {
    doc.get(name).ok_or(ArtifactError::Field(name))
}

fn u64_field(doc: &Json, name: &'static str) -> Result<u64, ArtifactError> {
    field(doc, name)?.as_u64().ok_or(ArtifactError::Field(name))
}

fn u32_field(doc: &Json, name: &'static str) -> Result<u32, ArtifactError> {
    u32::try_from(u64_field(doc, name)?).map_err(|_| ArtifactError::Field(name))
}

/// Rebuilds and validates a stage graph from its parts, requiring its
/// derived edge list to equal `expected_edges`. Tries the plain (C2-derived)
/// graph first, then the same graph with the sequential chain imposed, so
/// both GraphPipe and SPP-baseline strategies reconstruct exactly. A stage
/// list the constructor rejects fails with its first violation.
fn rebuild_stage_graph(
    graph: &Graph,
    cluster: &Cluster,
    stages: Vec<Stage>,
    mini_batch: u64,
    expected_edges: &[(StageId, StageId)],
) -> Result<StageGraph, ArtifactError> {
    let plain = StageGraph::new(graph, cluster, stages, mini_batch)
        .map_err(|e| ArtifactError::Violation(e.violation().clone()))?;
    let derived = plain.stage_edges();
    if derived == expected_edges {
        return Ok(plain);
    }
    if let Ok(seq) = plain.into_sequential() {
        if seq.stage_edges() == expected_edges {
            return Ok(seq);
        }
    }
    // Neither graph reproduces the recorded edge list: name the first edge
    // the data flow derives but the artifact lacks (or vice versa), so a
    // mismatched model/cluster is diagnosed precisely.
    let disagreement = derived
        .iter()
        .find(|e| !expected_edges.contains(e))
        .map(|&(a, b)| (a, b, "data flow derives"))
        .or_else(|| {
            expected_edges
                .iter()
                .find(|e| !derived.contains(e))
                .map(|&(a, b)| (a, b, "artifact records"))
        });
    let violation = match disagreement {
        Some((a, b, who)) => gp_verify::Violation::new(
            gp_verify::Check::EdgeDerivation,
            gp_verify::Location::stage(a),
            format!("{who} stage edge {a} -> {b}, which the other side lacks (C2)"),
        ),
        // Same edge *sets* but different order/multiplicity.
        None => gp_verify::Violation::new(
            gp_verify::Check::EdgeDerivation,
            gp_verify::Location::global(),
            "recorded stage edges disagree with the supplied model/cluster (C2)".to_string(),
        ),
    };
    Err(ArtifactError::Violation(violation))
}

/// Decodes a version-[`VERSION`] plan artifact back into the exact
/// [`Plan`] it encoded, re-validating every §3 condition against
/// the caller's model graph and cluster.
///
/// Returns the plan together with the fingerprint stamped in the header,
/// if any.
///
/// # Errors
///
/// Returns an [`ArtifactError`] for malformed JSON, a wrong format marker,
/// an unsupported version, missing fields, or a strategy that does not
/// validate against `graph`/`cluster`.
pub fn decode_plan(
    text: &str,
    graph: &Graph,
    cluster: &Cluster,
) -> Result<(Plan, Option<Fingerprint>), ArtifactError> {
    let doc = Json::parse(text)?;
    let format = field(&doc, "format")?
        .as_str()
        .ok_or(ArtifactError::Field("format"))?;
    if format != FORMAT {
        return Err(ArtifactError::BadFormat(format.to_string()));
    }
    let version = u64_field(&doc, "version")?;
    if version != VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let fingerprint = match doc.get("fingerprint") {
        Some(v) => Some(
            v.as_str()
                .and_then(Fingerprint::parse)
                .ok_or(ArtifactError::Field("fingerprint"))?,
        ),
        None => None,
    };
    let mini_batch = u64_field(&doc, "mini_batch")?;

    // Stages.
    let mut stages = Vec::new();
    for s in field(&doc, "stages")?
        .as_arr()
        .ok_or(ArtifactError::Field("stages"))?
    {
        let ops = s
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or(ArtifactError::Field("stages.ops"))?
            .iter()
            .map(|o| {
                // Type-level check only; out-of-range operator ids are a
                // *semantic* defect the verifier names (`op-cover-exact`).
                o.as_u64().and_then(|v| u32::try_from(v).ok()).map(OpId)
            })
            .collect::<Option<Vec<OpId>>>()
            .ok_or(ArtifactError::Field("stages.ops"))?;
        let dev_len = u32_field(s, "dev_len")?;
        if dev_len == 0 {
            return Err(ArtifactError::Field("stages.dev_len"));
        }
        // `DeviceRange` adds start and length in u32, so a range past the
        // last addressable device is a field error, not an overflow.
        let dev_start = u32_field(s, "dev_start")?;
        if dev_start.checked_add(dev_len).is_none() {
            return Err(ArtifactError::Field("stages.dev_start"));
        }
        stages.push(Stage {
            id: StageId(u32_field(s, "id")?),
            ops,
            devices: DeviceRange::new(dev_start, dev_len),
            micro_batch: u64_field(s, "micro_batch")?,
            kfkb: u64_field(s, "kfkb")?,
        });
    }
    // Edges.
    let mut edges = Vec::new();
    for e in field(&doc, "edges")?
        .as_arr()
        .ok_or(ArtifactError::Field("edges"))?
    {
        let endpoint = |v: &Json| {
            v.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .map(StageId)
                .ok_or(ArtifactError::Field("edges"))
        };
        match e.as_arr() {
            Some([a, b]) => edges.push((endpoint(a)?, endpoint(b)?)),
            _ => return Err(ArtifactError::Field("edges")),
        }
    }

    let stage_graph = rebuild_stage_graph(graph, cluster, stages, mini_batch, &edges)?;
    // A group larger than the mini-batch schedules like one of exactly the
    // mini-batch, and the in-flight formula the verifier runs below
    // multiplies it by the micro-batch size; no planner emits one.
    if stage_graph.stages().any(|s| s.kfkb > mini_batch) {
        return Err(ArtifactError::Field("stages.kfkb"));
    }

    // In-flight table.
    let in_flight_samples = field(&doc, "in_flight")?
        .as_arr()
        .ok_or(ArtifactError::Field("in_flight"))?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<u64>>>()
        .ok_or(ArtifactError::Field("in_flight"))?;
    // Agreement with the `ComputeInFlight` recomputation is the verifier's
    // `in-flight-consistent` check, run over the assembled plan below.
    let in_flight = InFlightTable::from_samples(in_flight_samples);

    // Schedule.
    let mut per_stage = Vec::new();
    for s in field(&doc, "schedule")?
        .as_arr()
        .ok_or(ArtifactError::Field("schedule"))?
    {
        let tasks = s
            .get("tasks")
            .and_then(Json::as_arr)
            .ok_or(ArtifactError::Field("schedule.tasks"))?
            .iter()
            .map(|t| {
                t.as_u64()
                    .filter(|&packed| packed / 2 <= u32::MAX as u64)
                    .map(|packed| Task {
                        pass: if packed % 2 == 0 {
                            Pass::Forward
                        } else {
                            Pass::Backward
                        },
                        mb: (packed / 2) as u32,
                    })
            })
            .collect::<Option<Vec<Task>>>()
            .ok_or(ArtifactError::Field("schedule.tasks"))?;
        per_stage.push(StageSchedule {
            stage: StageId(u32_field(s, "stage")?),
            warmup: u64_field(s, "warmup")?,
            tasks,
        });
    }
    // Coverage, C4 order, and deadlock freedom are the verifier's
    // `schedule-*` checks, run over the assembled plan below.
    let schedule = PipelineSchedule { per_stage };

    let stats_doc = field(&doc, "stats")?;
    let wall_nanos = u32_field(stats_doc, "wall_nanos")?;
    if wall_nanos >= 1_000_000_000 {
        // Duration would carry the overflow into the seconds, breaking the
        // byte-identical re-encode guarantee.
        return Err(ArtifactError::Field("wall_nanos"));
    }
    let stats = SearchStats {
        wall: Duration::new(u64_field(stats_doc, "wall_secs")?, wall_nanos),
        dp_evals: u64_field(stats_doc, "dp_evals")?,
        dp_states: u64_field(stats_doc, "dp_states")?,
        memo_hits: u64_field(stats_doc, "memo_hits")?,
        memo_misses: u64_field(stats_doc, "memo_misses")?,
        work_bound_prunes: u64_field(stats_doc, "work_bound_prunes")?,
        memory_prunes: u64_field(stats_doc, "memory_prunes")?,
        beam_prunes: u64_field(stats_doc, "beam_prunes")?,
        eval_batches: u64_field(stats_doc, "eval_batches")?,
        binary_iters: u32_field(stats_doc, "binary_iters")?,
        configs_tried: u32_field(stats_doc, "configs_tried")?,
    };

    // Absent means the exact-SP path.
    let path = match doc.get("plan_path") {
        None => PlanPath::ExactSp,
        Some(p) => decode_plan_path(p).ok_or(ArtifactError::Field("plan_path"))?,
    };

    let plan = Plan {
        stage_graph,
        in_flight,
        schedule,
        bottleneck_tps: field(&doc, "bottleneck_tps")?
            .as_f64()
            .ok_or(ArtifactError::Field("bottleneck_tps"))?,
        peak_memory_bytes: u64_field(&doc, "peak_memory_bytes")?,
        path,
        stats,
    };
    // Full semantic verification of the assembled plan: in-flight
    // consistency, C4 order, deadlock freedom, stash and memory bounds,
    // and bit-exact estimate agreement. A corrupted artifact fails here
    // with the violated invariant's name.
    if let Some(v) = gp_verify::verify_plan(graph, cluster, &plan).first() {
        return Err(ArtifactError::Violation(v.clone()));
    }
    Ok((plan, fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::request_fingerprint;
    use gp_baselines::PipeDreamPlanner;
    use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig, MoeConfig};
    use gp_ir::SpModel;
    use gp_partition::{GraphPipePlanner, PlanOptions, Planner};

    fn round_trip(model: &SpModel, cluster: &Cluster, mini_batch: u64) {
        let plan = GraphPipePlanner::new()
            .plan(model, cluster, mini_batch)
            .unwrap();
        let fp = request_fingerprint(model, cluster, mini_batch, &PlanOptions::default(), 0);
        let text = encode_plan(&plan, Some(fp));
        let (decoded, got_fp) = decode_plan(&text, model.graph(), cluster).unwrap();
        assert_eq!(got_fp, Some(fp));
        // Encoding is deterministic, so a second hop is byte-identical.
        assert_eq!(encode_plan(&decoded, Some(fp)), text);
        // Phase walls are measurement, not plan data: the codec never
        // encodes them, so compare with walls zeroed on both sides.
        let (mut decoded, mut fresh) = (decoded, plan);
        decoded.stats.zero_walls();
        fresh.stats.zero_walls();
        assert_eq!(decoded, fresh, "round trip lost information: {text}");
    }

    #[test]
    fn zoo_plans_round_trip_losslessly() {
        let four = Cluster::summit_like(4);
        let eight = Cluster::summit_like(8);
        round_trip(&zoo::mmt(&MmtConfig::tiny()), &four, 32);
        round_trip(&zoo::mmt(&MmtConfig::two_branch()), &four, 64);
        round_trip(&zoo::candle_uno(&CandleUnoConfig::tiny()), &four, 32);
        round_trip(&zoo::candle_uno(&CandleUnoConfig::default()), &eight, 1024);
        round_trip(&zoo::candle_uno(&CandleUnoConfig::full()), &eight, 1024);
        round_trip(&zoo::moe(&MoeConfig::tiny()), &four, 32);
        round_trip(&zoo::moe(&MoeConfig::default()), &eight, 256);
        round_trip(&zoo::mlp_chain(4, 64), &four, 32);
    }

    #[test]
    fn current_version_documents_require_every_counter() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(2);
        let plan = gp_partition::GraphPipePlanner::new()
            .plan(&model, &cluster, 8)
            .unwrap();
        let text = encode_plan(&plan, None);
        let hits = format!("\"memo_hits\":{},", plan.stats.memo_hits);
        assert!(text.contains(&hits), "{text}");
        // A current document missing a required counter is corrupt, not
        // lenient.
        assert_eq!(
            decode_plan(&text.replace(&hits, ""), model.graph(), &cluster).unwrap_err(),
            ArtifactError::Field("memo_hits")
        );
        let batches = format!("\"eval_batches\":{},", plan.stats.eval_batches);
        assert!(text.contains(&batches), "{text}");
        assert_eq!(
            decode_plan(&text.replace(&batches, ""), model.graph(), &cluster).unwrap_err(),
            ArtifactError::Field("eval_batches")
        );
    }

    #[test]
    fn sequential_baseline_plans_round_trip() {
        // PipeDream imposes sequential edges; decode must reconstruct them
        // through the into_sequential fallback.
        let model = zoo::candle_uno(&CandleUnoConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let plan = PipeDreamPlanner::new().plan(&model, &cluster, 32).unwrap();
        let text = encode_plan(&plan, None);
        let (decoded, fp) = decode_plan(&text, model.graph(), &cluster).unwrap();
        assert_eq!(fp, None);
        assert_eq!(decoded, plan);
    }

    #[test]
    fn rejects_foreign_and_future_documents() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(2);
        assert!(matches!(
            decode_plan("{\"format\":\"other\"}", model.graph(), &cluster),
            Err(ArtifactError::BadFormat(_))
        ));
        assert!(matches!(
            decode_plan(
                "{\"format\":\"graphpipe-plan\",\"version\":99}",
                model.graph(),
                &cluster
            ),
            Err(ArtifactError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            decode_plan("not json", model.graph(), &cluster),
            Err(ArtifactError::Json(_))
        ));
        assert!(matches!(
            decode_plan(&"[".repeat(100_000), model.graph(), &cluster),
            Err(ArtifactError::Json(e)) if e.kind == crate::json::JsonErrorKind::TooDeep
        ));
        assert!(matches!(
            decode_plan(
                "{\"format\":\"graphpipe-plan\",\"version\":1}",
                model.graph(),
                &cluster
            ),
            Err(ArtifactError::UnsupportedVersion(1))
        ));
        // Only the current version decodes: a complete document relabelled
        // with an older version is rejected, not read leniently.
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 8).unwrap();
        let text = encode_plan(&plan, None);
        let current = format!("\"version\":{VERSION}");
        assert!(text.contains(&current), "{text}");
        for version in [1, 2, 3] {
            let older = text.replace(&current, &format!("\"version\":{version}"));
            assert_eq!(
                decode_plan(&older, model.graph(), &cluster).unwrap_err(),
                ArtifactError::UnsupportedVersion(version)
            );
        }
    }

    #[test]
    fn rejects_artifact_for_a_different_model() {
        let model = zoo::mlp_chain(4, 64);
        let other = zoo::mlp_chain(6, 64);
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let text = encode_plan(&plan, None);
        // Decoding against a graph with different operators must fail the
        // rebuild validation rather than hand back a bogus strategy.
        assert!(decode_plan(&text, other.graph(), &cluster).is_err());
    }

    /// An unknown plan-path kind, or a kind without its count, is a typed
    /// field error.
    #[test]
    fn hostile_plan_paths_are_field_errors() {
        let model = zoo::gnn_pipe(&zoo::GnnPipeConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let member = encode_plan_path(model.path())
            .expect("gnn-pipe takes the SP-ized path")
            .to_string();
        let text = encode_plan(&plan, None);
        assert!(text.contains(&member), "{text}");
        for hostile in [
            r#"{"kind":"bogus","distortion":1}"#,
            r#"{"kind":"sp-ized"}"#,
            r#"{"kind":"clustered"}"#,
        ] {
            assert_eq!(
                decode_plan(&text.replacen(&member, hostile, 1), model.graph(), &cluster).err(),
                Some(ArtifactError::Field("plan_path"))
            );
        }
    }

    /// A device range that ends past `u32::MAX` is a field error. Built
    /// into a `DeviceRange`, its end overflowed: a debug build panicked
    /// and a release build compared wrapped values.
    #[test]
    fn device_ranges_past_u32_are_field_errors() {
        let model = zoo::mlp_chain(4, 64);
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let text = encode_plan(&plan, None);
        let devices = plan.stage_graph.stage(StageId(0)).devices;
        let range = format!(
            "\"dev_start\":{},\"dev_len\":{}",
            devices.first().0,
            devices.len()
        );
        assert!(text.contains(&range), "{text}");
        for dev_len in [1, 2] {
            let hostile = text.replacen(
                &range,
                &format!("\"dev_start\":{},\"dev_len\":{dev_len}", u32::MAX),
                1,
            );
            assert_eq!(
                decode_plan(&hostile, model.graph(), &cluster).unwrap_err(),
                ArtifactError::Field("stages.dev_start"),
                "dev_len {dev_len}"
            );
        }
    }

    /// A kFkB group larger than the mini-batch is a field error. Its
    /// product with the micro-batch size overflowed the in-flight formula:
    /// a debug build panicked, and a release build could wrap it into a
    /// plan that verified.
    #[test]
    fn kfkb_above_the_mini_batch_is_a_field_error() {
        let model = zoo::mlp_chain(4, 64);
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let text = encode_plan(&plan, None);
        let stage = plan.stage_graph.stage(StageId(0));
        let schedule = |kfkb: u64| format!("\"micro_batch\":{},\"kfkb\":{kfkb}", stage.micro_batch);
        assert!(text.contains(&schedule(stage.kfkb)), "{text}");
        let decode = |kfkb: u64| {
            let hostile = text.replacen(&schedule(stage.kfkb), &schedule(kfkb), 1);
            decode_plan(&hostile, model.graph(), &cluster)
        };
        for kfkb in [33, 1 << 62, u64::MAX] {
            assert_eq!(
                decode(kfkb).unwrap_err(),
                ArtifactError::Field("stages.kfkb"),
                "kfkb {kfkb}"
            );
        }
        // At the bound the group reaches the verifier, which names the
        // schedule it contradicts.
        assert!(
            matches!(decode(32), Err(ArtifactError::Violation(_))),
            "{:?}",
            decode(32)
        );
    }

    #[test]
    fn error_display_is_informative() {
        let violation = gp_verify::Violation::new(
            gp_verify::Check::EdgeDerivation,
            gp_verify::Location::global(),
            "recorded stage edges disagree with the supplied model/cluster".to_string(),
        );
        let text = ArtifactError::Violation(violation).to_string();
        assert!(text.contains("edge-derivation"), "{text}");
        assert!(ArtifactError::UnsupportedVersion(7)
            .to_string()
            .contains('7'));
        assert!(ArtifactError::Field("stages")
            .to_string()
            .contains("stages"));
    }

    /// Satellite: corrupted artifacts are rejected with the *name* of the
    /// violated invariant, not a generic "invalid plan".
    #[test]
    fn corrupted_artifacts_name_the_violated_invariant() {
        let model = zoo::mlp_chain(4, 64);
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let text = encode_plan(&plan, None);
        let violation_name = |text: &str| -> String {
            match decode_plan(text, model.graph(), &cluster) {
                Err(ArtifactError::Violation(v)) => v.check.to_string(),
                other => panic!("expected a named violation, got {other:?}"),
            }
        };
        // Drift the recorded estimate by one ULP-ish step.
        let tps = format!(
            "\"bottleneck_tps\":{}",
            crate::json::Json::Float(plan.bottleneck_tps)
        );
        assert!(text.contains(&tps), "{text}");
        let drifted = text.replace(
            &tps,
            &format!(
                "\"bottleneck_tps\":{}",
                crate::json::Json::Float(plan.bottleneck_tps * 1.5)
            ),
        );
        assert_eq!(violation_name(&drifted), "estimate-consistent");
        // Corrupt the in-flight table.
        let in_flight_json = format!("\"in_flight\":[{}", plan.in_flight.samples(StageId(0)));
        assert!(text.contains(&in_flight_json), "{text}");
        let corrupted = text.replace(
            &in_flight_json,
            &format!(
                "\"in_flight\":[{}",
                plan.in_flight.samples(StageId(0)) + plan.stage_graph.stage(StageId(0)).micro_batch
            ),
        );
        assert_eq!(violation_name(&corrupted), "in-flight-consistent");
    }
}
