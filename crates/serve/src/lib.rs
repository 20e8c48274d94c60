//! # gp-serve — plan fingerprints, artifacts, and requests
//!
//! GraphPipe's value is the *plan*: the §5 partitioner spends tens of
//! thousands of DP evaluations per query, yet the result is a small, pure
//! function of `(model, cluster, planner, options, mini-batch)`. This crate
//! holds what makes planning servable — the PipeDream-style profiler →
//! planner → runtime split realized for the reproduction:
//!
//! * [`fingerprint`] — **canonical cache keys.** A 128-bit structural hash
//!   over the model graph (Weisfeiler–Leman-refined, so it is invariant
//!   under node-insertion order and operator renaming), its SP
//!   decomposition, the cluster spec, the planner choice and options, and
//!   the mini-batch size. The model part is hashed once per model
//!   instance and memoized on it ([`gp_ir::SpModel::fingerprint`]). See
//!   [`fingerprint::request_fingerprint`] for the exact definition.
//! * [`artifact`] — **a lossless, versioned plan format.** Hand-rolled
//!   JSON encode/decode for [`gp_partition::Plan`] with a
//!   `format`/`version` header, integer-exact numbers, shortest-round-trip
//!   floats, and *validating* decoding (the stage graph is rebuilt and
//!   re-checked against §3's C1–C4). `decode(encode(plan)) == plan`,
//!   exactly. Built on the in-crate [`json`] document model.
//! * [`PlanRequest`] — the planning problem plus the planner choice
//!   ([`ServePlanner`], whose [`ServePlanner::build`] is the one planner
//!   factory), and [`ServeError`], the failures a serving layer reports.
//!
//! The serving layer itself — sharded cache, single-flight joins, worker
//! pool, persistent store, admission — is `gp-fleet`'s `FleetService`,
//! built on these keys and this codec.
//!
//! Plans carry raw operator ids, so before any plan is reused — cache hit
//! or single-flight fan-out — the receiving request's graph must match the
//! plan's recorded *numbering signature*
//! ([`gp_ir::SpModel::numbering_signature`], an order-sensitive
//! exact-graph hash). A fingerprint collision — or an isomorphic model with
//! renumbered operators — therefore degrades to a fresh planner run
//! instead of returning a plan that indexes the wrong operators.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use gp_cluster::Cluster;
//! use gp_ir::zoo::{self, CandleUnoConfig};
//! use gp_obs::Telemetry;
//! use gp_serve::{artifact, PlanRequest};
//!
//! let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny()));
//! let cluster = Cluster::summit_like(4);
//! let request = PlanRequest::new(Arc::clone(&model), cluster.clone(), 32);
//! let fingerprint = request.fingerprint();
//!
//! // Plan the request with its own planner choice.
//! let plan = request
//!     .planner
//!     .build(request.options.clone(), &Telemetry::disabled())
//!     .plan(&model, &cluster, 32)?;
//!
//! // Persist the strategy and restore it, losslessly.
//! let text = artifact::encode_plan(&plan, Some(fingerprint));
//! let (restored, fp) = artifact::decode_plan(&text, model.graph(), &cluster)
//!     .expect("artifact decodes");
//! // Lossless for plan data (search-phase wall timings are measurement,
//! // not plan data): re-encoding reproduces the bytes exactly.
//! assert_eq!(artifact::encode_plan(&restored, fp), text);
//! assert_eq!(fp, Some(fingerprint));
//! # Ok::<(), gp_partition::PlanError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod fingerprint;
pub mod json;
mod request;

pub use fingerprint::Fingerprint;
pub use request::{PlanRequest, ServeError, ServePlanner};
