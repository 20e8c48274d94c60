//! # gp-sched — GraphPipe's static micro-batch scheduler (§6)
//!
//! This crate implements the second core component of GraphPipe: given a
//! partition of the model into a DAG of pipeline stages, it decides *when*
//! each stage runs each micro-batch's forward and backward pass, minimizing
//! the number of in-flight samples (and therefore activation memory) while
//! preserving continuous pipelining.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`Stage`], [`StageGraph`] — the stage tuple `<G_i, b_i, D_i, Pi_i>`
//!   and the derived stage DAG;
//! * [`verify_stages`] — the validity conditions C1–C3 of §3, which every
//!   [`StageGraph`] constructor runs, reporting violations by the catalog
//!   names of [`Check`] (DESIGN.md §"Invariant catalog");
//! * [`compute_in_flight`] — the closed-form `ComputeInFlight` of Table 2
//!   (Appendix A.1), generalized over per-stage micro-batch sizes and kFkB
//!   schedules;
//! * [`assign_in_flight`] — the backward traversal of the stage DAG that
//!   propagates in-flight counts from sinks to sources (§6);
//! * [`StageSchedule::kfkb`] / [`schedule_tasks`] — `ScheduleTask`, the
//!   greedy earliest-backward order generation of Algorithm 2;
//! * [`TaskIndex`] — the dense `(stage, micro-batch, pass)` → flat-offset
//!   map consumers key per-task arenas by (`gp-sim`'s relaxation columns
//!   are the motivating user; see DESIGN.md §"Scale: the simulator at
//!   512+ devices").
//!
//! # Examples
//!
//! ```
//! use gp_cluster::{Cluster, DeviceRange};
//! use gp_ir::zoo;
//! use gp_sched::{assign_in_flight, schedule_tasks, Stage, StageGraph, StageId};
//!
//! // Two sequential stages over a small MLP, 1F1B, micro-batch 2.
//! let model = zoo::mlp_chain(2, 8);
//! let ops = model.linearize();
//! let cluster = Cluster::tiny_test(2);
//! let stages = vec![
//!     Stage { id: StageId(0), ops: ops[..3].to_vec(),
//!             devices: DeviceRange::new(0, 1), micro_batch: 2, kfkb: 1 },
//!     Stage { id: StageId(1), ops: ops[3..].to_vec(),
//!             devices: DeviceRange::new(1, 1), micro_batch: 2, kfkb: 1 },
//! ];
//! let sg = StageGraph::new(model.graph(), &cluster, stages, 8)?;
//! let inflight = assign_in_flight(&sg);
//! assert_eq!(inflight.samples(StageId(0)), 4); // one extra micro-batch upstream
//! let schedule = schedule_tasks(&sg, &inflight);
//! assert_eq!(schedule.stage(StageId(0)).warmup, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod inflight;
mod report;
mod stage;
mod tasks;

pub use inflight::{assign_in_flight, compute_in_flight, InFlightTable};
pub use report::{verify_stages, Check, Location, VerifyError, VerifyReport, Violation};
pub use stage::{Stage, StageGraph, StageId};
pub use tasks::{
    covering_micro_batches, schedule_tasks, PipelineSchedule, StageSchedule, Task, TaskIndex,
};
