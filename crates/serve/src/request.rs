//! Plan requests: everything a planner needs, the planner choice, and the
//! failures a serving layer reports.
//!
//! [`ServePlanner::build`] is the workspace's one planner factory: the
//! `Session` facade and the `gp-fleet` worker construct planners through
//! it, so a request planned locally or served from a fleet runs the same
//! search.

use crate::fingerprint::{request_fingerprint, Fingerprint};
use gp_baselines::{PipeDreamPlanner, PiperPlanner};
use gp_cluster::Cluster;
use gp_ir::SpModel;
use gp_obs::Telemetry;
use gp_partition::{GraphPipePlanner, PlanError, PlanOptions, Planner};
use std::fmt;
use std::sync::Arc;

/// The planners compared throughout the paper's evaluation, and the one
/// a request runs on a cache miss. The facade re-exports it as
/// `PlannerKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServePlanner {
    /// GraphPipe (this paper, §5–§6; the default).
    #[default]
    GraphPipe,
    /// PipeDream at operator granularity (SPP baseline).
    PipeDream,
    /// Piper's downset planner (SPP baseline with cross-branch stages).
    Piper,
}

impl ServePlanner {
    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ServePlanner::GraphPipe => "GraphPipe",
            ServePlanner::PipeDream => "PipeDream",
            ServePlanner::Piper => "Piper",
        }
    }

    /// Stable tag mixed into the request fingerprint.
    pub fn tag(self) -> u64 {
        match self {
            ServePlanner::GraphPipe => 0,
            ServePlanner::PipeDream => 1,
            ServePlanner::Piper => 2,
        }
    }

    /// Constructs this planner with `options`. GraphPipe records into
    /// `telemetry`; the baselines ignore it.
    pub fn build(self, options: PlanOptions, telemetry: &Telemetry) -> Box<dyn Planner> {
        match self {
            ServePlanner::GraphPipe => {
                Box::new(GraphPipePlanner::with_options(options).with_telemetry(telemetry.clone()))
            }
            ServePlanner::PipeDream => Box::new(PipeDreamPlanner::with_options(options)),
            ServePlanner::Piper => Box::new(PiperPlanner::with_options(options)),
        }
    }
}

/// One planning request: everything a planner needs, plus the planner
/// choice.
#[derive(Clone)]
pub struct PlanRequest {
    /// The model to plan (shared, since many requests reuse one model).
    pub model: Arc<SpModel>,
    /// The target cluster.
    pub cluster: Cluster,
    /// Global mini-batch size.
    pub mini_batch: u64,
    /// Planner search options.
    pub options: PlanOptions,
    /// Which planner to run on a miss.
    pub planner: ServePlanner,
}

impl PlanRequest {
    /// A GraphPipe request with default options.
    pub fn new(model: Arc<SpModel>, cluster: Cluster, mini_batch: u64) -> Self {
        PlanRequest {
            model,
            cluster,
            mini_batch,
            options: PlanOptions::default(),
            planner: ServePlanner::default(),
        }
    }

    /// Replaces the search options.
    pub fn with_options(mut self, options: PlanOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the planner choice.
    pub fn with_planner(mut self, planner: ServePlanner) -> Self {
        self.planner = planner;
        self
    }

    /// The request's cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        request_fingerprint(
            &self.model,
            &self.cluster,
            self.mini_batch,
            &self.options,
            self.planner.tag(),
        )
    }
}

/// Why a served request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The planner itself failed (infeasible, search explosion, ...).
    Plan(PlanError),
    /// The planner produced a plan the static verifier rejects: a planner
    /// bug, caught before the plan reaches the cache or any subscriber.
    InvalidPlan(gp_verify::VerifyError),
    /// The service shut down before the request completed.
    ServiceStopped,
    /// Admission control refused the request: the tenant is at its
    /// in-flight quota, or the miss queue is past its configured depth
    /// (`gp-fleet` shedding).
    Overloaded {
        /// The tenant whose request was refused.
        tenant: String,
        /// In-flight requests (quota refusal) or queued misses (shedding)
        /// at refusal time.
        depth: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Plan(e) => write!(f, "planning failed: {e}"),
            ServeError::InvalidPlan(e) => {
                write!(f, "planner produced an invalid plan: {e}")
            }
            ServeError::ServiceStopped => write!(f, "plan service stopped"),
            ServeError::Overloaded { tenant, depth } => {
                write!(f, "request shed for tenant `{tenant}` (depth {depth})")
            }
        }
    }
}

impl std::error::Error for ServeError {}
