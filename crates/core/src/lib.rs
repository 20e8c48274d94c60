//! # graphpipe — graph pipeline parallelism for DNN training
//!
//! A faithful reproduction of *GraphPipe: Improving Performance and
//! Scalability of DNN Training with Graph Pipeline Parallelism* (ASPLOS
//! 2025). GraphPipe partitions a DNN into a **DAG of pipeline stages** —
//! instead of the sequential chain used by PipeDream-style systems —
//! preserving the model's parallel branches. Independent branches execute
//! concurrently, shrinking the pipeline depth, which cuts both warm-up
//! bubbles and the activation memory held for in-flight micro-batches; the
//! freed memory admits larger micro-batches and better device utilization.
//!
//! This crate implements the user-facing facade over the workspace. Its
//! centerpiece is the typed [`Session`] API ([`session`] module): one
//! entry point from a model to a plan, its simulation, its threaded
//! execution, its serve artifact, and the cached serving path — all
//! returning the single [`Error`] type. The subsystem crates underneath:
//!
//! * [`ir`] — computation-graph IR, series-parallel structure, model zoo;
//! * [`cluster`] — device profiles and interconnect topology;
//! * [`cost`] — roofline cost/memory/communication models;
//! * [`sched`] — the §6 micro-batch scheduler (`ComputeInFlight`, kFkB);
//! * [`partition`] — the §5 partitioner (binary search + SP decomposition);
//! * [`baselines`] — PipeDream and Piper planners, the Figure 9 ablation;
//! * [`sim`] — the discrete-event execution simulator (timing);
//! * [`exec`] — the threaded runtime with real tensor math (semantics);
//! * [`tensor`] — the minimal f32 tensor library underneath `exec`.
//!
//! # Quickstart
//!
//! ```
//! use graphpipe::prelude::*;
//!
//! // A multi-branch model on a Summit-like 4-GPU cluster.
//! let session = Session::builder()
//!     .model(zoo::mmt(&zoo::MmtConfig::tiny()))
//!     .cluster(Cluster::summit_like(4))
//!     .mini_batch(32)
//!     .options(PlanOptions::default().with_max_micro_batches(16))
//!     .build()?;
//!
//! // Plan with GraphPipe, then execute the strategy on the simulator.
//! let strategy = session.plan(PlannerKind::GraphPipe)?;
//! let report = strategy.simulate()?;
//! assert!(report.throughput > 0.0);
//!
//! // Compare against the sequential baseline (Figure 6c: branches pay off).
//! let table = session.compare(&[PlannerKind::GraphPipe, PlannerKind::PipeDream]);
//! assert!(table.speedup(PlannerKind::GraphPipe, PlannerKind::PipeDream).unwrap() >= 1.0);
//! # Ok::<(), graphpipe::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod session;

pub use error::Error;
pub use session::{
    Comparison, ComparisonRow, EvalResult, PlannedStrategy, Session, SessionBuilder, SessionFleet,
    TrainingConfig, TrainingRun,
};

/// Computation-graph IR and model zoo (re-export of `gp-ir`).
pub mod ir {
    pub use gp_ir::*;
}
/// Device topology substrate (re-export of `gp-cluster`).
pub mod cluster {
    pub use gp_cluster::*;
}
/// Cost, memory and communication models (re-export of `gp-cost`).
pub mod cost {
    pub use gp_cost::*;
}
/// Micro-batch scheduler (re-export of `gp-sched`).
pub mod sched {
    pub use gp_sched::*;
}
/// The GraphPipe partitioner (re-export of `gp-partition`).
pub mod partition {
    pub use gp_partition::*;
}
/// SPP baselines (re-export of `gp-baselines`).
pub mod baselines {
    pub use gp_baselines::*;
}
/// Discrete-event simulator (re-export of `gp-sim`).
pub mod sim {
    pub use gp_sim::*;
}
/// Threaded training runtime (re-export of `gp-exec`).
pub mod exec {
    pub use gp_exec::*;
}
/// Tensor math (re-export of `gp-tensor`).
pub mod tensor {
    pub use gp_tensor::*;
}
/// Static plan/schedule invariant verifier (re-export of `gp-verify`).
pub mod verify {
    pub use gp_verify::*;
}
/// Telemetry: spans, metrics, trace export (re-export of `gp-obs`).
pub mod obs {
    pub use gp_obs::*;
}
/// Plan serving: sharded cache, persistent artifact store, in-process
/// planner workers, multi-tenant admission (re-export of `gp-fleet`).
pub mod fleet {
    pub use gp_fleet::*;
}

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use crate::baselines::{parallel_ablation, PipeDreamPlanner, PiperPlanner};
    pub use crate::cluster::{Cluster, DeviceRange};
    pub use crate::ir::zoo;
    pub use crate::ir::{DagOptions, Graph, OpId, PlanPath, SpModel};
    pub use crate::obs::{PerfettoSink, SummarySink, Telemetry, TraceSink};
    pub use crate::partition::{
        GraphPipePlanner, Plan, PlanError, PlanOptions, Planner, SearchStats,
    };
    pub use crate::sim::{render_gantt, SimOptions, SimReport};
    pub use crate::verify::{verify_plan, verify_schedule, verify_strategy, VerifyReport};
    pub use crate::{
        simulate_plan, Comparison, ComparisonRow, Error, EvalResult, PlannedStrategy, PlannerKind,
        Session, SessionBuilder, SessionFleet, TrainingConfig, TrainingRun,
    };
}

use gp_cluster::Cluster;
use gp_ir::SpModel;
use gp_partition::Plan;
use gp_sim::SimReport;

/// The planners compared throughout the paper's evaluation: the facade's
/// name for `gp-serve`'s planner choice, so a session's requests and a
/// fleet's share one enum and one fingerprint tag.
pub use gp_serve::ServePlanner as PlannerKind;

/// Simulates one training iteration of a plan on the cluster it was
/// planned for.
///
/// Thin shim over the [`Session`] machinery — equivalent to
/// [`PlannedStrategy::simulate`] for a strategy bound to `model` and
/// `cluster`, without requiring the plan to have come from a session.
///
/// # Errors
///
/// Propagates simulator failures (which indicate an invalid schedule) as
/// [`Error::Sim`].
pub fn simulate_plan(model: &SpModel, cluster: &Cluster, plan: &Plan) -> Result<SimReport, Error> {
    session::simulate_on(model, cluster, plan, &gp_obs::Telemetry::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig};
    use gp_partition::{PlanError, PlanOptions};

    fn session(model: SpModel, mini_batch: u64, options: PlanOptions) -> Session {
        Session::builder()
            .model(model)
            .cluster(Cluster::summit_like(4))
            .mini_batch(mini_batch)
            .options(options)
            .build()
            .unwrap()
    }

    #[test]
    fn planner_factory_names() {
        for (kind, name) in [
            (PlannerKind::GraphPipe, "graphpipe"),
            (PlannerKind::PipeDream, "pipedream"),
            (PlannerKind::Piper, "piper"),
        ] {
            let planner = kind.build(PlanOptions::default(), &gp_obs::Telemetry::disabled());
            assert_eq!(planner.name(), name);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn evaluate_sweeps_and_picks_best() {
        let opts = PlanOptions {
            max_micro_batches: 64,
            ..PlanOptions::default()
        };
        let session = session(zoo::candle_uno(&CandleUnoConfig::default()), 1024, opts);
        let result = session.evaluate(PlannerKind::GraphPipe).unwrap();
        assert!(!result.per_micro_batch.is_empty());
        let best_throughput = result.report.throughput;
        for (_, t) in &result.per_micro_batch {
            assert!(*t <= best_throughput + 1e-9);
        }
    }

    #[test]
    fn evaluate_propagates_piper_explosion() {
        let session = session(
            zoo::dlrm(&DlrmConfig::default()),
            256,
            PlanOptions::default(),
        );
        let err = session.evaluate(PlannerKind::Piper).unwrap_err();
        assert!(matches!(
            err,
            Error::Plan(PlanError::SearchExplosion { .. })
        ));
    }
}
