//! # graphpipe — graph pipeline parallelism for DNN training
//!
//! The user-facing facade of the GraphPipe (ASPLOS 2025) reproduction:
//! everything in [`gp_core`] re-exported under the name downstream code,
//! the repository examples, and the integration tests import, plus the
//! [`serve`] subsystem.
//!
//! The front door is the typed [`Session`] API: pin a planning problem
//! once (`model × cluster × mini-batch × options`), then ask it for typed
//! artifacts — a [`PlannedStrategy`] that simulates, executes, and
//! persists itself; a [`Comparison`] table across planners; a cached
//! serving handle. Every method returns the one [`Error`] type, which
//! wraps and [`source`](std::error::Error::source)-chains the subsystem
//! errors (`PlanError`, `SimError`, `ExecError`, `ServeError`).
//!
//! # Quickstart
//!
//! ```
//! use graphpipe::prelude::*;
//!
//! // 1. Pin the planning problem: model, cluster, mini-batch.
//! let session = Session::builder()
//!     .model(zoo::mmt(&zoo::MmtConfig::tiny()))
//!     .cluster(Cluster::summit_like(4))
//!     .mini_batch(32)
//!     .options(PlanOptions::default().with_max_micro_batches(16))
//!     .build()?;
//!
//! // 2. Plan with GraphPipe; the strategy knows how to simulate itself.
//! let strategy = session.plan(PlannerKind::GraphPipe)?;
//! let report = strategy.simulate()?;
//! assert!(report.throughput > 0.0);
//!
//! // 3. Persist the strategy as a lossless, fingerprinted artifact
//! //    (per-phase search walls are measurement, not plan data — the
//! //    codec doesn't carry them, so zero them before comparing).
//! let restored = session.load_artifact(&strategy.artifact(), PlannerKind::GraphPipe)?;
//! let strip = |p: &Plan| {
//!     let mut p = p.clone();
//!     p.stats.zero_walls();
//!     p
//! };
//! assert_eq!(strip(restored.plan()), strip(strategy.plan()));
//!
//! // 4. ...and compare against the sequential baseline (Figure 6c).
//! let table = session.compare(&[PlannerKind::GraphPipe, PlannerKind::PipeDream]);
//! assert!(table.speedup(PlannerKind::GraphPipe, PlannerKind::PipeDream).unwrap() >= 1.0);
//! # Ok::<(), graphpipe::Error>(())
//! ```
//!
//! # Module tour
//!
//! * [`session`] — the [`Session`] builder, [`PlannedStrategy`],
//!   [`Comparison`], and the serving handle ([`SessionFleet`]);
//! * [`ir`] — computation-graph IR, SP decomposition, model zoo;
//! * [`cluster`] — device profiles and interconnect topology;
//! * [`cost`] — roofline cost/memory/communication models;
//! * [`sched`] — the §6 micro-batch scheduler;
//! * [`partition`] — the §5 partitioner ([`prelude::GraphPipePlanner`]);
//! * [`baselines`] — PipeDream/Piper planners and the Figure 9 ablation;
//! * [`sim`] — the discrete-event simulator ([`simulate_plan`]);
//! * [`exec`] — the threaded runtime with real tensor math
//!   ([`PlannedStrategy::execute`]);
//! * [`prelude`] — one-stop imports, plus [`simulate_plan`], a free
//!   function for simulating a plan that did not come from a session;
//! * [`serve`] — plan-serving primitives: canonical graph fingerprints,
//!   the lossless plan artifact codec, and the plan request types;
//! * [`fleet`] — the plan service: the sharded cache, persistent artifact
//!   store, in-process planner workers, and multi-tenant admission
//!   behind [`Session::serve_fleet`] ([`fleet::FleetConfig::local`] is the
//!   minimal preset).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gp_core::*;

/// Plan fingerprints, artifacts, and requests (re-export of `gp-serve`).
pub mod serve {
    pub use gp_serve::*;
}
