//! `gp-verify` — static plan/schedule invariant verifier.
//!
//! GraphPipe's correctness argument rests on properties that are *decided
//! before execution*: the partition covers the graph with convex stages
//! (C1), stage edges follow data flow (C2), device ranges tile the cluster
//! (C3), per-stage task orders are well-formed (C4), the in-flight table
//! matches the `ComputeInFlight` recursion, Equation 2's memory bound
//! holds per device, and the fixed per-device schedules admit at least one
//! execution (deadlock freedom). This crate re-proves all of them from the
//! serialized data alone — no simulation, no planner re-run — and reports
//! failures as named violations with precise locations.
//!
//! The full catalog lives in DESIGN.md §"Invariant catalog"; each
//! [`Check`] variant's doc comment names its entry. Entry points:
//!
//! - [`verify_stages`] — raw stage lists; re-exported from gp-sched, whose
//!   [`StageGraph`] constructors run it, so no stage graph exists without
//!   passing it;
//! - [`verify_stage_graph`] — a [`StageGraph`] against the graph and
//!   cluster the caller holds;
//! - [`verify_schedule`] — a [`PipelineSchedule`] against its stage graph,
//!   including the topological deadlock certificate;
//! - [`verify_plan`] — a complete [`Plan`] including in-flight, memory,
//!   and estimate consistency;
//! - [`verify_model`] — a plan's SP tree and plan path against its source
//!   [`SpModel`], the check `Session::load_artifact` adds to the codec's;
//! - [`verify_strategy`] — [`verify_model`] and [`verify_plan`] together,
//!   the check `Session::plan` runs.
//!
//! All entry points return a [`VerifyReport`]; convert to a hard error
//! with [`VerifyReport::into_result`]. The checks themselves iterate only
//! ordered structures (no `HashMap` walks), so a verification run is
//! bit-deterministic — the same discipline `cargo xtask lint` enforces on
//! the fingerprint and codec modules.
//!
//! [`StageGraph`]: gp_sched::StageGraph
//! [`PipelineSchedule`]: gp_sched::PipelineSchedule
//! [`Plan`]: gp_partition::Plan
//! [`SpModel`]: gp_ir::SpModel

mod checks;

pub use checks::{verify_model, verify_plan, verify_schedule, verify_stage_graph, verify_strategy};
pub use gp_sched::{verify_stages, Check, Location, VerifyError, VerifyReport, Violation};
