//! # gp-ir — DNN computation-graph IR for the GraphPipe reproduction
//!
//! This crate is the modeling substrate of the workspace: it defines
//! per-sample tensor [`Shape`]s, DNN operators ([`OpKind`]) with analytic
//! FLOP/parameter/activation accounting, the computation-graph DAG
//! ([`Graph`]) with shape inference and convexity checks, the
//! series-parallel decomposition ([`SpBlock`]/[`SpModel`]) that GraphPipe's
//! partitioner consumes, and a [`zoo`] of the paper's evaluated models.
//!
//! # Examples
//!
//! ```
//! use gp_ir::zoo::{self, MmtConfig};
//!
//! // The Multi-Modal Transformer of the paper's evaluation (Appendix A.2).
//! let model = zoo::mmt(&MmtConfig::default());
//! assert_eq!(model.name(), "mmt");
//!
//! // The SP tree exposes the branch structure GPP exploits...
//! assert!(model.root().branch_points() >= 1);
//!
//! // ...while SPP baselines see the linearized operator chain.
//! let chain = model.linearize();
//! assert!(model.graph().is_topo_order(&chain));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dag;
mod graph;
mod identity;
mod op;
mod shape;
mod sp;
pub mod zoo;

pub use dag::{plan_dag, recognize, DagOptions};
pub use graph::{Graph, GraphBuilder, GraphError, Node, OpId};
pub use identity::Digest;
pub use op::{Nonlinearity, OpKind, BYTES_PER_ELEMENT};
pub use shape::Shape;
pub use sp::{EdgeFault, PlanPath, SpAudit, SpBlock, SpError, SpModel};
