//! Trace exporters: a human-readable summary tree and Chrome/Perfetto
//! `trace_event` JSON.
//!
//! Both implement [`TraceSink`]; [`Telemetry::export`]
//! (crate::Telemetry::export) replays finished spans (sorted by start
//! time) and metrics (sorted by name) into a sink and returns
//! `sink.finish()`. Output is deterministic given deterministic inputs: no
//! sink reads a clock or iterates an unordered container.

use crate::metrics::HistogramSnapshot;
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Receives a replay of spans and metrics and renders them.
pub trait TraceSink {
    fn span(&mut self, span: &SpanRecord);
    fn counter(&mut self, _name: &str, _value: u64) {}
    fn gauge(&mut self, _name: &str, _value: i64) {}
    fn histogram(&mut self, _name: &str, _snap: &HistogramSnapshot) {}
    /// Render and return the accumulated output.
    fn finish(&mut self) -> String;
}

/// Minimal JSON string escaping (control characters, quotes, backslash).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as a microsecond decimal (`12.345`), the unit
/// Chrome's `trace_event` format expects. Integer math keeps it exact.
fn ns_as_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

struct SummaryNode {
    name: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
    children: Vec<usize>,
}

/// A human-readable aggregate tree: spans grouped by (parent-path, name)
/// with counts, total and max durations, followed by a metrics listing.
#[derive(Default)]
pub struct SummarySink {
    nodes: Vec<SummaryNode>,
    roots: Vec<usize>,
    /// span id → node index, so children aggregate under the right node.
    node_of_span: BTreeMap<u64, usize>,
    metrics: String,
}

impl SummarySink {
    pub fn new() -> Self {
        Self::default()
    }

    fn render_node(&self, idx: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[idx];
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", n.name);
        let _ = writeln!(
            out,
            "{label:<44} {:>6}x  total {:>12}  max {:>12}",
            n.count,
            fmt_ns(n.total_ns),
            fmt_ns(n.max_ns),
        );
        for &child in &n.children {
            self.render_node(child, depth + 1, out);
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 1_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

impl TraceSink for SummarySink {
    fn span(&mut self, s: &SpanRecord) {
        // Find (or create) the aggregate node for this span's name under
        // its parent's node; then remember which node this span id maps to.
        let siblings = match self.node_of_span.get(&s.parent) {
            Some(&p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let existing = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == s.name);
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(SummaryNode {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                    children: Vec::new(),
                });
                match self.node_of_span.get(&s.parent) {
                    Some(&p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        let dur = s.duration_ns();
        let n = &mut self.nodes[idx];
        n.count += 1;
        n.total_ns += dur;
        n.max_ns = n.max_ns.max(dur);
        self.node_of_span.insert(s.id, idx);
    }

    fn counter(&mut self, name: &str, value: u64) {
        let _ = writeln!(self.metrics, "  counter {name:<40} {value}");
    }

    fn gauge(&mut self, name: &str, value: i64) {
        let _ = writeln!(self.metrics, "  gauge   {name:<40} {value}");
    }

    fn histogram(&mut self, name: &str, s: &HistogramSnapshot) {
        let _ = writeln!(
            self.metrics,
            "  hist    {name:<40} n={} p50={} p90={} p99={} max={}",
            s.count,
            fmt_ns(s.p50),
            fmt_ns(s.p90),
            fmt_ns(s.p99),
            fmt_ns(s.max),
        );
    }

    fn finish(&mut self) -> String {
        let mut out = String::new();
        if !self.roots.is_empty() {
            out.push_str("spans:\n");
            for &root in &self.roots {
                self.render_node(root, 1, &mut out);
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("metrics:\n");
            out.push_str(&self.metrics);
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

/// Process/thread lane ids used by the Perfetto exporter.
pub const PERFETTO_PID_LIVE: u32 = 1;
pub const PERFETTO_PID_SIM: u32 = 2;

/// Chrome/Perfetto `trace_event` JSON (the "JSON Array Format"): live
/// spans become paired `B`/`E` events (pid 1, one lane per recording
/// thread); simulator timelines are added as `X` complete events (pid 2,
/// one lane per device) via [`add_slice`](Self::add_slice). The output
/// opens directly in `ui.perfetto.dev` or `chrome://tracing`.
#[derive(Default)]
pub struct PerfettoSink {
    /// Live spans, grouped per thread lane; `B`/`E` pairs are emitted with
    /// strict stack discipline in `finish`.
    lanes: BTreeMap<u32, Vec<SpanRecord>>,
    /// Pre-timed `X` slices: `(pid, tid, ts_ns, body)`.
    slices: Vec<(u32, u32, u64, String)>,
    metadata: Vec<String>,
    named_threads: BTreeMap<(u32, u32), ()>,
}

impl PerfettoSink {
    pub fn new() -> Self {
        let mut sink = Self::default();
        sink.name_process(PERFETTO_PID_LIVE, "live");
        sink
    }

    /// Attach a human-readable name to a process lane.
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.metadata.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Attach a human-readable name to a thread lane.
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.named_threads.insert((pid, tid), ());
        self.metadata.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Add a pre-timed complete (`X`) slice — how simulator timelines and
    /// other non-span data enter the trace. Times are in nanoseconds.
    pub fn add_slice(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let body = format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\"}}",
            ns_as_us(start_ns),
            ns_as_us(dur_ns),
            json_escape(name),
            json_escape(cat),
        );
        self.slices.push((pid, tid, start_ns, body));
    }

    /// Emit one lane's spans as strictly nested `B`/`E` pairs, following
    /// the recorded parent tree (spans whose parent lives on another lane
    /// become lane roots). A monotone cursor clamps every emitted
    /// timestamp, so pairing and time order always validate — even for
    /// zero-duration spans or out-of-order guard drops.
    fn emit_lane(spans: &mut [SpanRecord], tid: u32, out: &mut Vec<String>) {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let index_of: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match index_of.get(&s.parent) {
                Some(&p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn emit(
            idx: usize,
            spans: &[SpanRecord],
            children: &[Vec<usize>],
            tid: u32,
            cursor: &mut u64,
            out: &mut Vec<String>,
        ) {
            let s = &spans[idx];
            let pid = PERFETTO_PID_LIVE;
            let start = s.start_ns.max(*cursor);
            *cursor = start;
            let args = s
                .detail
                .map_or(String::new(), |d| format!(",\"args\":{{\"detail\":{d}}}"));
            out.push(format!(
                "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"cat\":\"span\"{args}}}",
                ns_as_us(start),
                json_escape(s.name),
            ));
            for &c in &children[idx] {
                emit(c, spans, children, tid, cursor, out);
            }
            let end = s.end_ns.max(*cursor);
            *cursor = end;
            out.push(format!(
                "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\"}}",
                ns_as_us(end),
                json_escape(s.name),
            ));
        }
        let mut cursor = 0u64;
        for &root in &roots {
            emit(root, spans, &children, tid, &mut cursor, out);
        }
    }
}

impl TraceSink for PerfettoSink {
    fn span(&mut self, s: &SpanRecord) {
        if !self
            .named_threads
            .contains_key(&(PERFETTO_PID_LIVE, s.thread))
        {
            self.name_thread(PERFETTO_PID_LIVE, s.thread, &format!("thread {}", s.thread));
        }
        self.lanes.entry(s.thread).or_default().push(s.clone());
    }

    fn finish(&mut self) -> String {
        let mut events: Vec<String> = Vec::new();
        for (&tid, spans) in self.lanes.iter_mut() {
            Self::emit_lane(spans, tid, &mut events);
        }
        self.slices.sort_by_key(|s| (s.0, s.1, s.2));
        events.extend(self.slices.iter().map(|(_, _, _, body)| body.clone()));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for piece in self.metadata.iter().chain(events.iter()) {
            if !first {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(piece);
            first = false;
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClockHandle, ManualClock};
    use crate::span::Telemetry;
    use std::sync::Arc;

    fn sample_telemetry() -> Telemetry {
        let clock = Arc::new(ManualClock::new());
        let tele = Telemetry::with_clock(ClockHandle::new(clock.clone()));
        {
            let _a = tele.span("outer");
            clock.advance(1_000);
            {
                let _b = tele.span_with("inner", 3);
                clock.advance(500);
            }
            clock.advance(250);
        }
        tele.counter_add("events", 7);
        tele.record("lat", 500);
        tele
    }

    #[test]
    fn summary_tree_nests_and_aggregates() {
        let tele = sample_telemetry();
        let out = tele.export(&mut SummarySink::new());
        let outer_line = out.lines().find(|l| l.contains("outer")).unwrap();
        let inner_line = out.lines().find(|l| l.contains("inner")).unwrap();
        assert!(outer_line.starts_with("  outer"), "{out}");
        assert!(inner_line.starts_with("    inner"), "{out}");
        assert!(out.contains("counter events"), "{out}");
        assert!(out.contains("hist    lat"), "{out}");
    }

    #[test]
    fn perfetto_events_pair_and_nest() {
        let tele = sample_telemetry();
        let out = tele.export(&mut PerfettoSink::new());
        assert!(out.starts_with("{\"displayTimeUnit\""));
        let b_count = out.matches("\"ph\":\"B\"").count();
        let e_count = out.matches("\"ph\":\"E\"").count();
        assert_eq!(b_count, 2);
        assert_eq!(e_count, 2);
        // outer opens before inner; inner closes before outer.
        let b_outer = out.find("\"ph\":\"B\",\"pid\":1,\"tid\":").unwrap();
        let _ = b_outer;
        let outer_b = out.find("\"name\":\"outer\",\"cat\":\"span\"").unwrap();
        let inner_b = out.find("\"name\":\"inner\"").unwrap();
        assert!(outer_b < inner_b, "{out}");
    }

    #[test]
    fn perfetto_slices_and_lane_names() {
        let mut sink = PerfettoSink::new();
        sink.name_process(PERFETTO_PID_SIM, "simulated cluster");
        sink.name_thread(PERFETTO_PID_SIM, 0, "device 0");
        sink.add_slice(PERFETTO_PID_SIM, 0, "fwd s0 mb0", "compute", 0, 2_500);
        let out = sink.finish();
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"dur\":2.500"));
        assert!(out.contains("simulated cluster"));
        assert!(out.contains("device 0"));
    }

    #[test]
    fn equal_timestamp_events_keep_stack_discipline() {
        // Two nested spans with identical start and end times: the sort
        // must order B(outer) B(inner) E(inner) E(outer).
        let clock = Arc::new(ManualClock::new());
        let tele = Telemetry::with_clock(ClockHandle::new(clock.clone()));
        {
            let _a = tele.span("outer");
            let _b = tele.span("inner");
        }
        let out = tele.export(&mut PerfettoSink::new());
        let order: Vec<(char, &str)> = out
            .lines()
            .filter_map(|l| {
                let ph = if l.contains("\"ph\":\"B\"") {
                    'B'
                } else if l.contains("\"ph\":\"E\"") {
                    'E'
                } else {
                    return None;
                };
                let name = if l.contains("\"name\":\"outer\"") {
                    "outer"
                } else {
                    "inner"
                };
                Some((ph, name))
            })
            .collect();
        assert_eq!(
            order,
            vec![
                ('B', "outer"),
                ('B', "inner"),
                ('E', "inner"),
                ('E', "outer")
            ],
            "{out}"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(ns_as_us(1_234_567), "1234.567");
        assert_eq!(ns_as_us(42), "0.042");
    }
}
