//! # gp-exec — threaded distributed-training runtime with real numerics
//!
//! The GraphPipe paper's third component is a distributed runtime that
//! executes discovered GPP strategies while preserving synchronous training
//! semantics. This crate is that runtime's *semantic* substitute (the
//! timing substitute is `gp-sim`): worker threads play the role of GPUs,
//! `std::sync::mpsc` channels play the role of NVLink/InfiniBand, and real
//! f32 tensor math (`gp-tensor`) runs every forward and backward pass in
//! the order prescribed by the strategy's micro-batch schedules.
//!
//! The headline guarantees, enforced by the integration tests:
//!
//! * **gradient equivalence** — a pipelined, data-parallel iteration
//!   produces the same gradients as a single-device full-batch step;
//! * **convergence** — training loss decreases under SGD on every zoo
//!   model;
//! * **schedule conformance** — each replica's execution trace follows its
//!   kFkB task order.
//!
//! # Examples
//!
//! ```
//! use gp_cluster::Cluster;
//! use gp_exec::{synth_batch, train, ModelParams};
//! use gp_ir::zoo::{self, CandleUnoConfig};
//! use gp_partition::{GraphPipePlanner, Planner};
//!
//! let model = zoo::candle_uno(&CandleUnoConfig::tiny());
//! let cluster = Cluster::summit_like(3).with_memory_capacity(1 << 30);
//! let plan = GraphPipePlanner::new().plan(&model, &cluster, 8)?;
//! let mut params = ModelParams::init(model.graph(), 42);
//! let batch = synth_batch(model.graph(), 8, 7);
//! let losses = train(
//!     model.graph(), &plan.stage_graph, &plan.schedule,
//!     &mut params, &batch, 0.05, 4,
//! )?;
//! assert!(losses.last().unwrap() < losses.first().unwrap());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod data;
mod module;
mod reference;
mod runtime;
mod stage;

pub use data::{slice_batch, synth_batch};
pub use module::{op_backward, op_forward, ModelParams, OpCache, OpParams};
pub use reference::{reference_step, reference_train};
pub use runtime::{train, train_iteration, train_traced, ExecError, IterationResult, TraceEvent};
pub use stage::StageRunner;
