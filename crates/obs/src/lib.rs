//! `gp-obs`: zero-dependency, determinism-safe telemetry for the
//! GraphPipe reproduction — hierarchical spans, atomic metrics, and
//! exportable traces (DESIGN.md §"Observability").
//!
//! The design constraints, in order:
//!
//! 1. **Inert by default.** [`Telemetry::disabled`] (also `Default`) makes
//!    every operation a branch-and-return: no allocation, no atomics, no
//!    clock reads. Instrumentation can therefore live permanently in hot
//!    paths (planner search, simulator relaxation, serve fast path).
//! 2. **Write-only.** Telemetry data never flows back into plans,
//!    schedules, reports, or fingerprints. Enabling tracing at any
//!    verbosity must leave every artifact byte-identical — the golden
//!    tests assert exactly this.
//! 3. **Clock seam.** All wall-clock reads used by `gp-lint:
//!    deterministic`-tagged modules go through the [`Clock`] trait;
//!    [`MonotonicClock`] is the single production implementation, and
//!    [`ManualClock`] makes timing deterministic under test.
//! 4. **No dependencies.** Hand-rolled histograms and JSON emission keep
//!    this crate buildable offline below every other workspace crate.
//!
//! The two exporters ([`SummarySink`], [`PerfettoSink`]) implement
//! [`TraceSink`] and are driven by [`Telemetry::export`].
//! The Perfetto output opens directly in `ui.perfetto.dev`.

mod clock;
mod export;
mod metrics;
mod span;

pub use clock::{Clock, ClockHandle, ManualClock, MonotonicClock};
pub use export::{PerfettoSink, SummarySink, TraceSink, PERFETTO_PID_LIVE, PERFETTO_PID_SIM};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};
pub use span::{Span, SpanId, SpanRecord, Telemetry};
