//! Planner workers: the [`PlanWorker`] trait the dispatchers call, and
//! [`LocalWorker`], the one implementation a [`FleetService`] starts.
//!
//! A worker maps a [`PlanRequest`] to a verified [`Plan`] with its search
//! stats zeroed: the canonical form, whose
//! [`encode_plan`](gp_serve::artifact::encode_plan) is the
//! [`canonical_artifact`](gp_serve::artifact::canonical_artifact) the
//! store persists. The trait is the seam through which the service tests
//! plug in gated, panicking and rendezvous workers.
//!
//! [`FleetService`]: crate::FleetService

use gp_obs::Telemetry;
use gp_partition::{Plan, SearchStats};
use gp_serve::{PlanRequest, ServeError};

/// A planning backend: maps a request to its verified, canonical plan.
pub trait PlanWorker: Send + Sync {
    /// Human-readable identity for error messages.
    fn describe(&self) -> String;

    /// Plans the request and returns the verified plan with its search
    /// stats zeroed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Plan`] when the search fails,
    /// [`ServeError::InvalidPlan`] when the produced strategy violates a
    /// static invariant.
    fn plan(&self, request: &PlanRequest) -> Result<Plan, ServeError>;
}

/// An in-process worker: plans on the calling dispatcher thread.
///
/// The planner comes from [`ServePlanner::build`](gp_serve::ServePlanner::build),
/// the same factory `Session::plan` uses, so a fleet worker and local
/// planning produce the same strategy for the same request.
pub struct LocalWorker {
    index: usize,
    telemetry: Telemetry,
}

impl LocalWorker {
    /// A local worker labelled `local-<index>` in errors.
    pub fn new(index: usize, telemetry: Telemetry) -> Self {
        LocalWorker { index, telemetry }
    }
}

impl PlanWorker for LocalWorker {
    fn describe(&self) -> String {
        format!("local-{}", self.index)
    }

    fn plan(&self, request: &PlanRequest) -> Result<Plan, ServeError> {
        let mut plan = request
            .planner
            .build(request.options.clone(), &self.telemetry)
            .plan(&request.model, &request.cluster, request.mini_batch)
            .map_err(ServeError::Plan)?;
        // Trust boundary: no unverified plan reaches a cache or a waiter.
        gp_verify::verify_strategy(&request.model, &request.cluster, &plan)
            .into_result()
            .map_err(ServeError::InvalidPlan)?;
        // Search effort is measurement, not strategy: zeroed, the plan is a
        // pure function of the request.
        plan.stats = SearchStats::default();
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_ir::zoo::{self, CandleUnoConfig};
    use gp_serve::artifact::{canonical_artifact, decode_plan, encode_plan};
    use std::sync::Arc;

    #[test]
    fn local_worker_output_is_the_canonical_artifact() {
        let request = PlanRequest::new(
            Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())),
            Cluster::summit_like(4),
            32,
        );
        let plan = LocalWorker::new(0, Telemetry::disabled())
            .plan(&request)
            .expect("plans");
        let fp = request.fingerprint();
        let text = encode_plan(&plan, Some(fp));
        assert_eq!(text, canonical_artifact(&plan, fp));
        let (decoded, got) = decode_plan(&text, request.model.graph(), &request.cluster)
            .expect("artifact decodes and validates");
        assert_eq!(got, Some(fp));
        assert_eq!(decoded, plan, "the worker's plan survives the store");
    }
}
