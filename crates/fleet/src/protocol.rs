//! The fleet wire protocol: a lossless plan-request codec plus
//! length-prefixed framing over `std::net` TCP streams.
//!
//! # Documents
//!
//! Three JSON document kinds travel over a worker connection, all
//! distinguished by their `format` marker:
//!
//! * **plan request** (`graphpipe-plan-request`, version 2) — everything a
//!   planner needs: the model (operator list + SP tree), the cluster, the
//!   mini-batch, the full search options, and the planner choice. The
//!   codec is *lossless*: decoding an encoded request rebuilds a model
//!   with identical operator numbering (`numbering_signature` equal) and
//!   an identical request fingerprint, which is what makes remote
//!   planning byte-compatible with local planning. Version 2 dropped
//!   version 1's required `options.parallelism`; in a version 1 document
//!   it is ignored like any unknown member. Older version 2 encoders also
//!   wrote a top-level `warm` member (`null` or a `tps_hint` search
//!   hint); decoding ignores it the same way, so peers on both sides of
//!   its removal still interoperate.
//! * **plan artifact** (`graphpipe-plan`) — the success reply; exactly the
//!   `gp-serve` artifact codec bytes ([`canonical_artifact`]), passed
//!   through verbatim so the bytes a remote worker computed are the bytes
//!   the front-end stores, caches, and serves.
//! * **plan error** (`graphpipe-plan-error`, version 1) — the failure
//!   reply, carrying the [`PlanError`] variant losslessly.
//!
//! # Framing
//!
//! Every document is one frame: a 4-byte big-endian byte length followed
//! by the UTF-8 document. Frames above [`MAX_FRAME`] (64 MiB) are
//! rejected before allocation, so a corrupt length prefix cannot balloon
//! memory. One connection carries one request frame and one reply frame;
//! reconnect-per-request keeps worker death visible as a plain transport
//! error.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use gp_cluster::{Cluster, DeviceProfile, LinkProfile};
use gp_ir::{GraphBuilder, Nonlinearity, OpId, OpKind, Shape, SpBlock, SpModel};
use gp_partition::{Plan, PlanError, PlanOptions, SearchStats};
use gp_serve::json::{Json, JsonError};
use gp_serve::{artifact, Fingerprint, PlanRequest, ServePlanner};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

/// The plan-request `format` marker.
pub const REQUEST_FORMAT: &str = "graphpipe-plan-request";

/// The plan-request version this build writes.
pub const REQUEST_VERSION: u64 = 2;

/// The plan-error `format` marker.
pub const ERROR_FORMAT: &str = "graphpipe-plan-error";

/// Largest frame either side will read or write (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// Why a wire document failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The document is not syntactically valid JSON.
    Json(JsonError),
    /// The `format` marker is missing or unknown.
    BadFormat(String),
    /// The document's version is newer than this decoder understands.
    UnsupportedVersion(u64),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// The request parsed but does not rebuild into a valid model
    /// (graph construction or SP validation failed).
    Model(String),
    /// A count is larger than the decoder can represent: device ids are
    /// `u32`, so a cluster beyond `u32::MAX` devices cannot be addressed.
    OutOfRange {
        /// The field.
        field: &'static str,
        /// The value on the wire.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Json(e) => write!(f, "malformed wire document: {e}"),
            ProtocolError::BadFormat(got) => {
                write!(f, "unknown wire document (format marker `{got}`)")
            }
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "wire document version {v} is newer than supported ({REQUEST_VERSION})"
                )
            }
            ProtocolError::Field(name) => write!(f, "missing or mistyped field `{name}`"),
            ProtocolError::Model(why) => write!(f, "request model invalid: {why}"),
            ProtocolError::OutOfRange { field, value, max } => {
                write!(f, "field `{field}` is {value}, above the limit {max}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The canonical artifact the fleet serves and persists: the `gp-serve`
/// plan codec with the **search stats zeroed**. Search counters and wall
/// clocks are measurement — they vary with the machine — while the
/// strategy itself is a pure function of the request. Zeroing them makes
/// the artifact bytes a pure function of the request too, which is the
/// fleet's determinism contract: a remotely planned artifact is
/// byte-identical to a locally planned one.
pub fn canonical_artifact(plan: &Plan, fingerprint: Fingerprint) -> String {
    let mut canonical = plan.clone();
    canonical.stats = SearchStats::default();
    artifact::encode_plan(&canonical, Some(fingerprint))
}

// ---------------------------------------------------------------------------
// Framing.

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// `InvalidInput` when the document exceeds [`MAX_FRAME`]; otherwise
/// propagates the underlying write.
pub fn write_frame(w: &mut impl Write, document: &str) -> std::io::Result<()> {
    let bytes = document.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// `InvalidData` for an oversized length prefix or non-UTF-8 payload;
/// otherwise propagates the underlying read (including `UnexpectedEof`
/// when the peer died mid-frame).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<String> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

// ---------------------------------------------------------------------------
// Request encoding.

/// Encodes a plan request as one wire document.
pub fn encode_request(request: &PlanRequest) -> String {
    let graph = request.model.graph();
    let ops = graph
        .nodes()
        .map(|node| {
            Json::Obj(vec![
                ("name".into(), Json::Str(node.name.clone())),
                ("kind".into(), encode_kind(&node.kind)),
                (
                    "preds".into(),
                    Json::Arr(
                        graph
                            .preds(node.id)
                            .iter()
                            .map(|p| Json::Int(p.index() as i128))
                            .collect(),
                    ),
                ),
                (
                    "shape".into(),
                    Json::Arr(
                        node.out_shape
                            .dims()
                            .iter()
                            .map(|&d| Json::Int(d as i128))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let mut model_members = vec![
        (
            "name".to_string(),
            Json::Str(request.model.name().to_string()),
        ),
        ("ops".to_string(), Json::Arr(ops)),
        ("sp".to_string(), encode_sp(request.model.root())),
    ];
    if let Some(path) = artifact::encode_plan_path(request.model.path()) {
        model_members.push(("path".to_string(), path));
    }
    let model = Json::Obj(model_members);
    Json::Obj(vec![
        ("format".into(), Json::Str(REQUEST_FORMAT.into())),
        ("version".into(), Json::Int(i128::from(REQUEST_VERSION))),
        ("model".into(), model),
        ("cluster".into(), encode_cluster(&request.cluster)),
        (
            "mini_batch".into(),
            Json::Int(i128::from(request.mini_batch)),
        ),
        (
            "planner".into(),
            Json::Str(planner_tag(request.planner).into()),
        ),
        ("options".into(), encode_options(&request.options)),
    ])
    .to_string()
}

fn planner_tag(planner: ServePlanner) -> &'static str {
    match planner {
        ServePlanner::GraphPipe => "graphpipe",
        ServePlanner::PipeDream => "pipedream",
        ServePlanner::Piper => "piper",
    }
}

fn encode_kind(kind: &OpKind) -> Json {
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let int = |v: usize| Json::Int(v as i128);
    match *kind {
        OpKind::Input => obj(vec![("op", Json::Str("input".into()))]),
        OpKind::Linear {
            in_features,
            out_features,
            bias,
        } => obj(vec![
            ("op", Json::Str("linear".into())),
            ("in_features", int(in_features)),
            ("out_features", int(out_features)),
            ("bias", Json::Bool(bias)),
        ]),
        OpKind::MultiHeadAttention { seq, hidden, heads } => obj(vec![
            ("op", Json::Str("attention".into())),
            ("seq", int(seq)),
            ("hidden", int(hidden)),
            ("heads", int(heads)),
        ]),
        OpKind::LayerNorm { dim } => obj(vec![
            ("op", Json::Str("layernorm".into())),
            ("dim", int(dim)),
        ]),
        OpKind::Activation(Nonlinearity::Relu) => obj(vec![("op", Json::Str("relu".into()))]),
        OpKind::Activation(Nonlinearity::Gelu) => obj(vec![("op", Json::Str("gelu".into()))]),
        OpKind::EmbeddingBag { entries, dim, bag } => obj(vec![
            ("op", Json::Str("embedding_bag".into())),
            ("entries", int(entries)),
            ("dim", int(dim)),
            ("bag", int(bag)),
        ]),
        OpKind::Concat => obj(vec![("op", Json::Str("concat".into()))]),
        OpKind::FeatureInteraction { features, dim } => obj(vec![
            ("op", Json::Str("interaction".into())),
            ("features", int(features)),
            ("dim", int(dim)),
        ]),
        OpKind::Loss => obj(vec![("op", Json::Str("loss".into()))]),
        OpKind::Add => obj(vec![("op", Json::Str("add".into()))]),
    }
}

fn encode_sp(block: &SpBlock) -> Json {
    match block {
        SpBlock::Leaf(id) => Json::Obj(vec![("leaf".into(), Json::Int(id.index() as i128))]),
        SpBlock::Chain(children) => Json::Obj(vec![(
            "chain".into(),
            Json::Arr(children.iter().map(encode_sp).collect()),
        )]),
        SpBlock::Branches(children) => Json::Obj(vec![(
            "branches".into(),
            Json::Arr(children.iter().map(encode_sp).collect()),
        )]),
    }
}

fn encode_cluster(cluster: &Cluster) -> Json {
    let profile = cluster.profile();
    let link = |l: LinkProfile| {
        Json::Obj(vec![
            ("bandwidth".into(), Json::Float(l.bandwidth)),
            ("latency".into(), Json::Float(l.latency)),
        ])
    };
    Json::Obj(vec![
        (
            "profile".into(),
            Json::Obj(vec![
                ("name".into(), Json::Str(profile.name.clone())),
                ("peak_flops".into(), Json::Float(profile.peak_flops)),
                ("mem_bandwidth".into(), Json::Float(profile.mem_bandwidth)),
                (
                    "mem_capacity".into(),
                    Json::Int(i128::from(profile.mem_capacity)),
                ),
                (
                    "kernel_overhead".into(),
                    Json::Float(profile.kernel_overhead),
                ),
                (
                    "efficiency_half_sat".into(),
                    Json::Float(profile.efficiency_half_sat),
                ),
            ]),
        ),
        ("devices".into(), Json::Int(cluster.device_count() as i128)),
        (
            "gpus_per_node".into(),
            Json::Int(cluster.gpus_per_node() as i128),
        ),
        ("intra_link".into(), link(cluster.intra_link())),
        ("inter_link".into(), link(cluster.inter_link())),
    ])
}

fn encode_options(options: &PlanOptions) -> Json {
    Json::Obj(vec![
        ("epsilon".into(), Json::Float(options.epsilon)),
        (
            "micro_batch_candidates".into(),
            match &options.micro_batch_candidates {
                None => Json::Null,
                Some(c) => Json::Arr(c.iter().map(|&v| Json::Int(i128::from(v))).collect()),
            },
        ),
        (
            "max_micro_batches".into(),
            Json::Int(i128::from(options.max_micro_batches)),
        ),
        (
            "kfkb_candidates".into(),
            Json::Arr(
                options
                    .kfkb_candidates
                    .iter()
                    .map(|&v| Json::Int(i128::from(v)))
                    .collect(),
            ),
        ),
        (
            "per_stage_micro_batch".into(),
            Json::Bool(options.per_stage_micro_batch),
        ),
        (
            "eval_budget".into(),
            Json::Int(i128::from(options.eval_budget)),
        ),
        (
            "beam_width".into(),
            match options.beam_width {
                Some(w) => Json::Int(i128::from(w)),
                None => Json::Null,
            },
        ),
    ])
}

// ---------------------------------------------------------------------------
// Request decoding.

/// Decodes a plan request, rebuilding the model through [`GraphBuilder`]
/// and [`SpModel::new`] so the result is fully re-validated.
///
/// # Errors
///
/// [`ProtocolError`] on malformed documents, unknown formats, newer
/// versions, or models that fail graph/SP validation.
pub fn decode_request(text: &str) -> Result<PlanRequest, ProtocolError> {
    let doc = Json::parse(text).map_err(ProtocolError::Json)?;
    let format = doc
        .get("format")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::Field("format"))?;
    if format != REQUEST_FORMAT {
        return Err(ProtocolError::BadFormat(format.to_string()));
    }
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or(ProtocolError::Field("version"))?;
    if version > REQUEST_VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let model = decode_model(doc.get("model").ok_or(ProtocolError::Field("model"))?)?;
    let cluster = decode_cluster(doc.get("cluster").ok_or(ProtocolError::Field("cluster"))?)?;
    let mini_batch = doc
        .get("mini_batch")
        .and_then(Json::as_u64)
        .ok_or(ProtocolError::Field("mini_batch"))?;
    let planner = match doc
        .get("planner")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::Field("planner"))?
    {
        "graphpipe" => ServePlanner::GraphPipe,
        "pipedream" => ServePlanner::PipeDream,
        "piper" => ServePlanner::Piper,
        other => return Err(ProtocolError::Model(format!("unknown planner `{other}`"))),
    };
    let options = decode_options(doc.get("options").ok_or(ProtocolError::Field("options"))?)?;
    Ok(PlanRequest::new(Arc::new(model), cluster, mini_batch)
        .with_options(options)
        .with_planner(planner))
}

fn decode_model(doc: &Json) -> Result<SpModel, ProtocolError> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::Field("model.name"))?;
    let ops = doc
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or(ProtocolError::Field("model.ops"))?;
    let mut builder = GraphBuilder::new();
    let mut ids: Vec<OpId> = Vec::with_capacity(ops.len());
    for op in ops {
        let op_name = op
            .get("name")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::Field("op.name"))?;
        let kind = decode_kind(op.get("kind").ok_or(ProtocolError::Field("op.kind"))?)?;
        let preds: Vec<OpId> = op
            .get("preds")
            .and_then(Json::as_arr)
            .ok_or(ProtocolError::Field("op.preds"))?
            .iter()
            .map(|p| {
                p.as_u64()
                    .and_then(|i| ids.get(i as usize).copied())
                    .ok_or(ProtocolError::Field("op.preds"))
            })
            .collect::<Result<_, _>>()?;
        let shape: Vec<usize> = op
            .get("shape")
            .and_then(Json::as_arr)
            .ok_or(ProtocolError::Field("op.shape"))?
            .iter()
            .map(|d| {
                d.as_u64()
                    .map(|d| d as usize)
                    .ok_or(ProtocolError::Field("op.shape"))
            })
            .collect::<Result<_, _>>()?;
        let id = match kind {
            OpKind::Input => builder.input(op_name, Shape::new(shape.clone())),
            OpKind::Loss => builder.loss(op_name, &preds),
            kind => builder
                .op(op_name, kind, &preds)
                .map_err(|e| ProtocolError::Model(format!("op `{op_name}`: {e:?}")))?,
        };
        // Shapes are re-inferred during the rebuild; a mismatch means the
        // document was corrupted or produced by an incompatible encoder.
        if builder.shape_of(id).dims() != shape.as_slice() {
            return Err(ProtocolError::Model(format!(
                "op `{op_name}`: carried shape {:?} disagrees with inferred {:?}",
                shape,
                builder.shape_of(id).dims()
            )));
        }
        ids.push(id);
    }
    let root = decode_sp(doc.get("sp").ok_or(ProtocolError::Field("model.sp"))?, &ids)?;
    let graph = builder
        .finish()
        .map_err(|e| ProtocolError::Model(format!("graph validation: {e:?}")))?;
    let model = SpModel::new(name, graph, root)
        .map_err(|e| ProtocolError::Model(format!("sp tree: {e:?}")))?;
    match doc.get("path") {
        Some(path) => Ok(model.with_path(
            artifact::decode_plan_path(path).ok_or(ProtocolError::Field("model.path"))?,
        )),
        None => Ok(model),
    }
}

fn decode_kind(doc: &Json) -> Result<OpKind, ProtocolError> {
    let tag = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::Field("kind.op"))?;
    let field = |name: &'static str| -> Result<usize, ProtocolError> {
        doc.get(name)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or(ProtocolError::Field(name))
    };
    Ok(match tag {
        "input" => OpKind::Input,
        "linear" => OpKind::Linear {
            in_features: field("in_features")?,
            out_features: field("out_features")?,
            bias: matches!(doc.get("bias"), Some(Json::Bool(true))),
        },
        "attention" => OpKind::MultiHeadAttention {
            seq: field("seq")?,
            hidden: field("hidden")?,
            heads: field("heads")?,
        },
        "layernorm" => OpKind::LayerNorm { dim: field("dim")? },
        "relu" => OpKind::Activation(Nonlinearity::Relu),
        "gelu" => OpKind::Activation(Nonlinearity::Gelu),
        "embedding_bag" => OpKind::EmbeddingBag {
            entries: field("entries")?,
            dim: field("dim")?,
            bag: field("bag")?,
        },
        "concat" => OpKind::Concat,
        "interaction" => OpKind::FeatureInteraction {
            features: field("features")?,
            dim: field("dim")?,
        },
        "loss" => OpKind::Loss,
        "add" => OpKind::Add,
        other => return Err(ProtocolError::Model(format!("unknown op kind `{other}`"))),
    })
}

fn decode_sp(doc: &Json, ids: &[OpId]) -> Result<SpBlock, ProtocolError> {
    if let Some(leaf) = doc.get("leaf") {
        let i = leaf.as_u64().ok_or(ProtocolError::Field("sp.leaf"))?;
        return ids
            .get(i as usize)
            .map(|&id| SpBlock::Leaf(id))
            .ok_or(ProtocolError::Field("sp.leaf"));
    }
    for (key, ctor) in [
        ("chain", SpBlock::Chain as fn(Vec<SpBlock>) -> SpBlock),
        ("branches", SpBlock::Branches as fn(Vec<SpBlock>) -> SpBlock),
    ] {
        if let Some(children) = doc.get(key) {
            let children = children
                .as_arr()
                .ok_or(ProtocolError::Field("sp.children"))?
                .iter()
                .map(|c| decode_sp(c, ids))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(ctor(children));
        }
    }
    Err(ProtocolError::Field("sp"))
}

fn decode_cluster(doc: &Json) -> Result<Cluster, ProtocolError> {
    let profile = doc
        .get("profile")
        .ok_or(ProtocolError::Field("cluster.profile"))?;
    let float = |doc: &Json, name: &'static str| -> Result<f64, ProtocolError> {
        doc.get(name)
            .and_then(Json::as_f64)
            .ok_or(ProtocolError::Field(name))
    };
    let link = |doc: Option<&Json>| -> Result<LinkProfile, ProtocolError> {
        let doc = doc.ok_or(ProtocolError::Field("cluster.link"))?;
        Ok(LinkProfile {
            bandwidth: float(doc, "bandwidth")?,
            latency: float(doc, "latency")?,
        })
    };
    let device = DeviceProfile {
        name: profile
            .get("name")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::Field("profile.name"))?
            .to_string(),
        peak_flops: float(profile, "peak_flops")?,
        mem_bandwidth: float(profile, "mem_bandwidth")?,
        mem_capacity: profile
            .get("mem_capacity")
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::Field("profile.mem_capacity"))?,
        kernel_overhead: float(profile, "kernel_overhead")?,
        efficiency_half_sat: float(profile, "efficiency_half_sat")?,
    };
    // Device ids and ranges are u32 (`DeviceId`, `DeviceRange`), so a
    // larger count could not be addressed, only truncated.
    let count = |member: &str, field: &'static str| -> Result<usize, ProtocolError> {
        let value = doc
            .get(member)
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::Field(field))?;
        let max = u64::from(u32::MAX);
        if value > max {
            return Err(ProtocolError::OutOfRange { field, value, max });
        }
        Ok(value as usize)
    };
    let devices = count("devices", "cluster.devices")?;
    let gpus_per_node = count("gpus_per_node", "cluster.gpus_per_node")?;
    if devices == 0 || gpus_per_node == 0 {
        return Err(ProtocolError::Model("cluster with zero devices".into()));
    }
    Ok(Cluster::new(
        device,
        devices,
        gpus_per_node,
        link(doc.get("intra_link"))?,
        link(doc.get("inter_link"))?,
    ))
}

fn decode_options(doc: &Json) -> Result<PlanOptions, ProtocolError> {
    let ints = |v: &Json, name: &'static str| -> Result<Vec<u64>, ProtocolError> {
        v.as_arr()
            .ok_or(ProtocolError::Field(name))?
            .iter()
            .map(|i| i.as_u64().ok_or(ProtocolError::Field(name)))
            .collect()
    };
    Ok(PlanOptions {
        epsilon: doc
            .get("epsilon")
            .and_then(Json::as_f64)
            .ok_or(ProtocolError::Field("options.epsilon"))?,
        micro_batch_candidates: match doc.get("micro_batch_candidates") {
            None | Some(Json::Null) => None,
            Some(v) => Some(ints(v, "options.micro_batch_candidates")?),
        },
        max_micro_batches: doc
            .get("max_micro_batches")
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::Field("options.max_micro_batches"))?,
        kfkb_candidates: ints(
            doc.get("kfkb_candidates")
                .ok_or(ProtocolError::Field("options.kfkb_candidates"))?,
            "options.kfkb_candidates",
        )?,
        per_stage_micro_batch: matches!(doc.get("per_stage_micro_batch"), Some(Json::Bool(true))),
        eval_budget: doc
            .get("eval_budget")
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::Field("options.eval_budget"))?,
        beam_width: match doc.get("beam_width") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .and_then(|w| u32::try_from(w).ok())
                    .ok_or(ProtocolError::Field("options.beam_width"))?,
            ),
        },
    })
}

// ---------------------------------------------------------------------------
// Replies.

/// A worker's reply, classified by its `format` marker.
pub enum WireReply {
    /// A plan artifact; the `String` is the **verbatim** document text, so
    /// the bytes the worker computed are the bytes the caller keeps.
    Artifact(String),
    /// The worker's planner failed.
    Error(PlanError),
}

/// Encodes a planner failure as the error reply document.
pub fn encode_plan_error(error: &PlanError) -> String {
    let (kind, message, evals) = match error {
        PlanError::Infeasible(why) => ("infeasible", why.clone(), 0),
        PlanError::SearchExplosion { evals } => ("explosion", String::new(), *evals),
        PlanError::UnsupportedModel(why) => ("unsupported", why.clone(), 0),
        PlanError::Internal(why) => ("internal", why.clone(), 0),
    };
    Json::Obj(vec![
        ("format".into(), Json::Str(ERROR_FORMAT.into())),
        ("version".into(), Json::Int(1)),
        ("kind".into(), Json::Str(kind.into())),
        ("message".into(), Json::Str(message)),
        ("evals".into(), Json::Int(i128::from(evals))),
    ])
    .to_string()
}

/// Classifies a reply document: a plan artifact (returned verbatim) or a
/// decoded planner failure.
///
/// # Errors
///
/// [`ProtocolError`] when the document is malformed or carries an unknown
/// `format` marker.
pub fn classify_reply(text: &str) -> Result<WireReply, ProtocolError> {
    let doc = Json::parse(text).map_err(ProtocolError::Json)?;
    let format = doc
        .get("format")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::Field("format"))?;
    match format {
        artifact::FORMAT => Ok(WireReply::Artifact(text.to_string())),
        ERROR_FORMAT => {
            let kind = doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or(ProtocolError::Field("kind"))?;
            let message = doc
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let error = match kind {
                "infeasible" => PlanError::Infeasible(message),
                "explosion" => PlanError::SearchExplosion {
                    evals: doc.get("evals").and_then(Json::as_u64).unwrap_or(0),
                },
                "unsupported" => PlanError::UnsupportedModel(message),
                "internal" => PlanError::Internal(message),
                other => {
                    return Err(ProtocolError::Model(format!(
                        "unknown error kind `{other}`"
                    )))
                }
            };
            Ok(WireReply::Error(error))
        }
        other => Err(ProtocolError::BadFormat(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};
    use gp_serve::json::JsonErrorKind;

    fn zoo_requests() -> Vec<PlanRequest> {
        let cluster = Cluster::summit_like(8);
        vec![
            PlanRequest::new(
                Arc::new(zoo::mmt(&MmtConfig::two_branch())),
                cluster.clone(),
                128,
            ),
            PlanRequest::new(
                Arc::new(zoo::dlrm(&DlrmConfig::tiny())),
                cluster.clone(),
                64,
            )
            .with_planner(ServePlanner::PipeDream),
            PlanRequest::new(
                Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())),
                Cluster::tiny_test(4),
                32,
            )
            .with_options(PlanOptions {
                epsilon: 0.02,
                micro_batch_candidates: Some(vec![4, 8]),
                max_micro_batches: 64,
                kfkb_candidates: vec![1, 2],
                per_stage_micro_batch: true,
                eval_budget: 12345,
                beam_width: Some(6),
            }),
            PlanRequest::new(Arc::new(zoo::moe(&MoeConfig::tiny())), cluster.clone(), 256)
                .with_planner(ServePlanner::Piper),
            PlanRequest::new(
                Arc::new(zoo::gpt2(&zoo::Gpt2Config::default())),
                cluster.clone(),
                64,
            ),
            PlanRequest::new(
                Arc::new(zoo::gnn_pipe(&zoo::GnnPipeConfig::default())),
                cluster,
                64,
            ),
        ]
    }

    fn depth(doc: &Json) -> usize {
        match doc {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn requests_round_trip_losslessly() {
        for request in zoo_requests() {
            let text = encode_request(&request);
            let doc = Json::parse(&text).expect("parses");
            assert!(
                depth(&doc) <= gp_serve::json::MAX_DEPTH / 8,
                "nesting headroom"
            );
            let decoded = decode_request(&text).expect("decodes");
            assert_eq!(decoded.fingerprint(), request.fingerprint());
            assert_eq!(
                decoded.model.numbering_signature(),
                request.model.numbering_signature(),
                "operator numbering must survive the wire"
            );
            assert_eq!(decoded.mini_batch, request.mini_batch);
            assert_eq!(decoded.options, request.options);
            assert_eq!(decoded.planner, request.planner);
            // Idempotent: re-encoding the decoded request reproduces bytes.
            assert_eq!(encode_request(&decoded), text);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), "hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), "");
        assert!(read_frame(&mut cursor).is_err(), "eof surfaces as an error");
    }

    #[test]
    fn oversize_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut cursor = &buf[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn plan_errors_round_trip() {
        for error in [
            PlanError::Infeasible("memory".into()),
            PlanError::SearchExplosion { evals: 42 },
            PlanError::UnsupportedModel("shape".into()),
            PlanError::Internal("bug".into()),
        ] {
            let text = encode_plan_error(&error);
            match classify_reply(&text).unwrap() {
                WireReply::Error(decoded) => assert_eq!(decoded, error),
                WireReply::Artifact(_) => panic!("misclassified error reply"),
            }
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(matches!(
            decode_request("not json"),
            Err(ProtocolError::Json(_))
        ));
        // A nesting bomb is a typed error, not a stack overflow.
        let bomb = "[".repeat(100_000);
        for err in [decode_request(&bomb).err(), classify_reply(&bomb).err()] {
            assert!(
                matches!(&err, Some(ProtocolError::Json(e)) if e.kind == JsonErrorKind::TooDeep),
                "{err:?}"
            );
        }
        assert!(matches!(
            decode_request("{\"format\":\"other\"}"),
            Err(ProtocolError::Field("format") | ProtocolError::BadFormat(_))
        ));
        let newer = format!(
            "{{\"format\":\"{REQUEST_FORMAT}\",\"version\":{}}}",
            REQUEST_VERSION + 1
        );
        assert!(matches!(
            decode_request(&newer),
            Err(ProtocolError::UnsupportedVersion(_))
        ));
        assert!(classify_reply("{\"format\":\"mystery\"}").is_err());
    }

    /// An unknown plan-path kind, or a kind without its count, is a typed
    /// field error from both documents that share the plan-path codec.
    #[test]
    fn hostile_plan_paths_are_field_errors() {
        let model = zoo::gnn_pipe(&zoo::GnnPipeConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let request = PlanRequest::new(Arc::new(model.clone()), cluster.clone(), 32);
        let plan = ServePlanner::GraphPipe
            .build(PlanOptions::default(), &Default::default())
            .plan(&model, &cluster, 32)
            .unwrap();
        let member = artifact::encode_plan_path(model.path())
            .expect("gnn-pipe takes the SP-ized path")
            .to_string();
        let (wire, stored) = (encode_request(&request), artifact::encode_plan(&plan, None));
        for hostile in [
            r#"{"kind":"bogus","distortion":1}"#,
            r#"{"kind":"sp-ized"}"#,
            r#"{"kind":"clustered"}"#,
        ] {
            let wire = wire.replacen(&member, hostile, 1);
            let stored = stored.replacen(&member, hostile, 1);
            assert_eq!(
                decode_request(&wire).err(),
                Some(ProtocolError::Field("model.path"))
            );
            assert_eq!(
                artifact::decode_plan(&stored, model.graph(), &cluster).err(),
                Some(artifact::ArtifactError::Field("plan_path"))
            );
        }
    }

    #[test]
    fn device_counts_beyond_u32_are_rejected() {
        let request = PlanRequest::new(
            Arc::new(zoo::mmt(&MmtConfig::tiny())),
            Cluster::summit_like(8),
            64,
        );
        let text = encode_request(&request);
        let huge = (1u64 << 32) + 8;
        for (member, field) in [
            ("\"devices\":8,", "cluster.devices"),
            ("\"gpus_per_node\":4,", "cluster.gpus_per_node"),
        ] {
            let name = member.split(':').next().unwrap();
            let hostile = text.replacen(member, &format!("{name}:{huge},"), 1);
            assert_ne!(hostile, text, "{member} was replaced");
            assert_eq!(
                decode_request(&hostile).err(),
                Some(ProtocolError::OutOfRange {
                    field,
                    value: huge,
                    max: u64::from(u32::MAX),
                })
            );
        }
        // The bound is inclusive.
        let widest = text.replacen("\"devices\":8,", &format!("\"devices\":{},", u32::MAX), 1);
        let decoded = decode_request(&widest).expect("u32::MAX devices decode");
        assert_eq!(decoded.cluster.device_count(), u32::MAX as usize);
    }

    #[test]
    fn retired_members_are_ignored() {
        // Version 1 documents carry `options.parallelism`, and older
        // version 2 encoders wrote a top-level `warm` search hint. Whatever
        // their values, they must reach neither the fingerprint nor the
        // planner.
        let request = PlanRequest::new(
            Arc::new(zoo::mmt(&MmtConfig::two_branch())),
            Cluster::summit_like(4),
            64,
        );
        let plan = |r: &PlanRequest| {
            let planner = r.planner.build(r.options.clone(), &Default::default());
            let mut plan = planner
                .plan(&r.model, &r.cluster, r.mini_batch)
                .expect("plans normally");
            plan.stats.zero_walls();
            plan
        };
        let expected = plan(&request);
        let plain = encode_request(&request);
        for (anchor, injected) in [
            (
                "\"options\":{",
                "\"options\":{\"parallelism\":18446744073709551615,",
            ),
            ("{\"format\":", "{\"warm\":null,\"format\":"),
            ("{\"format\":", "{\"warm\":{\"tps_hint\":2e-7},\"format\":"),
        ] {
            let hostile = plain.replacen(anchor, injected, 1);
            assert_ne!(hostile, plain, "{injected} was injected");
            let decoded = decode_request(&hostile).expect("an unknown member is ignored");
            assert_eq!(decoded.fingerprint(), request.fingerprint(), "{injected}");
            assert_eq!(plan(&decoded), expected, "{injected}");
        }
    }
}
