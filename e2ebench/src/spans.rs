//! Reads the program's own gp-obs spans back out of an enabled
//! [`Telemetry`] and attributes their time.

use graphpipe::obs::{SpanRecord, Telemetry};
use std::collections::BTreeMap;

/// Per span name: how often it closed, its total time, and its self time
/// (duration minus the durations of its same-thread children — children
/// on other threads run concurrently and are not subtracted).
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct SpanTable(BTreeMap<&'static str, SpanTotals>);

impl SpanTable {
    pub fn collect(telemetry: &Telemetry) -> SpanTable {
        Self::from_records(&telemetry.spans())
    }

    pub fn from_records(spans: &[SpanRecord]) -> SpanTable {
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if let Some(parent) = by_id.get(&s.parent) {
                if parent.thread == s.thread {
                    *child_ns.entry(parent.id).or_default() += s.duration_ns();
                }
            }
        }
        let mut table: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans {
            let t = table.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s
                .duration_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        SpanTable(table)
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6)
    }

    /// Self milliseconds of spans called `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6)
    }

    /// Report lines: one per span name, with count, total and self time
    /// per op.
    pub fn lines(&self, ops: u64) -> Vec<String> {
        let ops = ops.max(1) as f64;
        let mut out = vec![format!(
            "{:<22} {:>12} {:>14} {:>14}",
            "span (per op)", "count", "total_ms", "self_ms"
        )];
        for (name, t) in &self.0 {
            out.push(format!(
                "{:<22} {:>12.2} {:>14.6} {:>14.6}",
                name,
                t.count as f64 / ops,
                t.total_ns as f64 / 1e6 / ops,
                t.self_ns as f64 / 1e6 / ops
            ));
        }
        out
    }
}
