//! # gp-partition — the GraphPipe pipeline-stage partitioner (§5)
//!
//! Implements Algorithm 1 of the paper: a binary search over the bottleneck
//! stage's Time-Per-Sample wrapped around a dynamic program that performs
//! series-parallel decompositions of the model, jointly choosing the stage
//! partition, per-stage device counts, micro-batch sizes, and (via
//! `gp-sched`) micro-batch schedules.
//!
//! The crate also defines the planner-facing vocabulary shared with the
//! SPP baselines in `gp-baselines`: [`Planner`], [`Plan`], [`PlanOptions`],
//! [`PlanError`] and [`SearchStats`].
//!
//! # Examples
//!
//! ```
//! use gp_cluster::Cluster;
//! use gp_ir::zoo::{self, MmtConfig};
//! use gp_partition::{GraphPipePlanner, Planner};
//!
//! let model = zoo::mmt(&MmtConfig::two_branch());
//! let plan = GraphPipePlanner::new().plan(&model, &Cluster::summit_like(4), 64)?;
//! println!("{}", plan.describe(model.graph()));
//! assert!(plan.bottleneck_tps > 0.0);
//! # Ok::<(), gp_partition::PlanError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cores;
mod dp;
mod plan;

pub use dp::GraphPipePlanner;
pub use plan::{Plan, PlanError, PlanOptions, Planner, SearchStats};
