//! Hierarchical spans and the [`Telemetry`] handle.
//!
//! `Telemetry` is the one object the rest of the workspace threads around.
//! It is a cheap clone (an `Option<Arc<..>>`), and the disabled default is
//! provably inert: `Telemetry::disabled().span(..)` performs **no
//! allocation and no atomic operation** — it returns a guard whose only
//! state is `None` — so instrumented hot paths cost one branch when
//! telemetry is off.
//!
//! Parenting is implicit within a thread (a thread-local span stack) and
//! explicit across threads ([`Telemetry::span_under_with`]), which is how the
//! executor's per-replica worker threads attach to the iteration span that
//! spawned them.

use crate::clock::ClockHandle;
use crate::export::TraceSink;
use crate::metrics::{Histogram, HistogramSnapshot, Registry};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A finished span, as recorded for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within one `Telemetry` instance; ids start at 1.
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Optional numeric annotation (micro-batch count, step index, ...).
    pub detail: Option<u64>,
    /// Clock reading at span open, nanoseconds.
    pub start_ns: u64,
    /// Clock reading at span close; `end_ns >= start_ns` always holds.
    pub end_ns: u64,
    /// Small per-process thread number (first-use order), for trace lanes.
    pub thread: u32,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Identifies an open span so work on another thread can parent under it.
/// `SpanId::NONE` (id 0) means "no parent"; disabled telemetry hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// Process-wide small thread numbers: assigned on first telemetry use per
/// thread, purely for grouping trace events into lanes. Never fed into any
/// fingerprint or plan.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// The open-span stack: `(telemetry instance tag, span id)`. The tag
    /// keeps two live `Telemetry` instances on one thread (e.g. parallel
    /// tests) from adopting each other's spans as parents.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

struct Inner {
    clock: ClockHandle,
    registry: Registry,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
}

impl Inner {
    fn tag(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }
}

/// The telemetry handle. `Default`/[`Telemetry::disabled`] is inert;
/// [`Telemetry::enabled`] records spans and metrics against a
/// [`MonotonicClock`](crate::MonotonicClock).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

impl Telemetry {
    /// The inert default: every operation is a no-op and allocation-free.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording handle against the production monotonic clock.
    pub fn enabled() -> Self {
        Self::with_clock(ClockHandle::monotonic())
    }

    /// A recording handle against an injected clock (tests use
    /// [`ManualClock`](crate::ManualClock) for deterministic timings).
    pub fn with_clock(clock: ClockHandle) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                registry: Registry::new(),
                spans: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The clock behind this handle, if recording.
    pub fn clock(&self) -> Option<&ClockHandle> {
        self.inner.as_deref().map(|i| &i.clock)
    }

    /// Current clock reading, or 0 when disabled. Pair with
    /// [`is_enabled`](Self::is_enabled) when the 0 would be ambiguous.
    pub fn now_nanos(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.clock.now_nanos())
    }

    /// Open a span parented under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Span {
        self.open(name, None, None)
    }

    /// Like [`span`](Self::span), with a numeric annotation.
    pub fn span_with(&self, name: &'static str, detail: u64) -> Span {
        self.open(name, Some(detail), None)
    }

    /// Open a span with a numeric annotation under an explicit parent —
    /// the cross-thread form. The span still pushes onto the *current*
    /// thread's stack, so further spans opened on this thread nest under
    /// it.
    pub fn span_under_with(&self, name: &'static str, detail: u64, parent: SpanId) -> Span {
        self.open(name, Some(detail), Some(parent))
    }

    fn open(&self, name: &'static str, detail: Option<u64>, parent: Option<SpanId>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let tag = inner.tag();
        let parent = match parent {
            Some(p) => p.0,
            None => SPAN_STACK.with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|(t, _)| *t == tag)
                    .map_or(0, |(_, id)| *id)
            }),
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push((tag, id)));
        Span {
            state: Some(SpanState {
                inner: inner.clone(),
                id,
                parent,
                name,
                detail,
                start_ns: inner.clock.now_nanos(),
                thread: THREAD_NO.with(|t| *t),
            }),
        }
    }

    /// Bump a named counter (no-op when disabled). Hot loops should
    /// accumulate locally and flush once, or hold
    /// [`histogram`](Self::histogram)/`counter` handles.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name).add(delta);
        }
    }

    /// Set a named gauge (no-op when disabled).
    pub fn gauge_set(&self, name: &str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name).set(value);
        }
    }

    /// Record one sample into a named histogram (no-op when disabled).
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.histogram(name).record(value);
        }
    }

    /// A shared handle to a named histogram, for paths that record many
    /// samples: one lookup, then lock-free recording. `None` when disabled.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.inner.as_deref().map(|i| i.registry.histogram(name))
    }

    /// Snapshot of a named histogram; default (all-zero) when disabled or
    /// when the histogram has never been touched.
    pub fn histogram_snapshot(&self, name: &str) -> HistogramSnapshot {
        self.inner
            .as_deref()
            .map_or_else(HistogramSnapshot::default, |i| {
                i.registry.histogram(name).snapshot()
            })
    }

    /// The metric registry, if recording.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// All finished spans, sorted by `(start_ns, id)` — id breaks the tie
    /// deterministically when a manual clock never advances.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = inner.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Replay every finished span and metric into `sink` (spans sorted by
    /// start time, metrics sorted by name) and return the rendered output.
    pub fn export(&self, sink: &mut dyn TraceSink) -> String {
        for span in self.spans() {
            sink.span(&span);
        }
        if let Some(reg) = self.registry() {
            for (name, value) in reg.counters() {
                sink.counter(&name, value);
            }
            for (name, value) in reg.gauges() {
                sink.gauge(&name, value);
            }
            for (name, snap) in reg.histograms() {
                sink.histogram(&name, &snap);
            }
        }
        sink.finish()
    }
}

struct SpanState {
    inner: Arc<Inner>,
    id: u64,
    parent: u64,
    name: &'static str,
    detail: Option<u64>,
    start_ns: u64,
    thread: u32,
}

/// An open span; closing (dropping) it records a [`SpanRecord`]. The
/// disabled form carries no state at all.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// This span's id, for explicit cross-thread parenting.
    /// [`SpanId::NONE`] when telemetry is disabled.
    pub fn id(&self) -> SpanId {
        self.state.as_ref().map_or(SpanId::NONE, |s| SpanId(s.id))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let end_ns = state.inner.clock.now_nanos().max(state.start_ns);
        let tag = state.inner.tag();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Usually the top of stack; a linear scan tolerates out-of-order
            // drops (e.g. spans stored in structs) without corrupting others.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, id)| t == tag && id == state.id)
            {
                stack.remove(pos);
            }
        });
        state
            .inner
            .spans
            .lock()
            .expect("span log poisoned")
            .push(SpanRecord {
                id: state.id,
                parent: state.parent,
                name: state.name,
                detail: state.detail,
                start_ns: state.start_ns,
                end_ns,
                thread: state.thread,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Telemetry, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let tele = Telemetry::with_clock(ClockHandle::new(clock.clone()));
        (tele, clock)
    }

    #[test]
    fn disabled_spans_are_inert() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        let outer = tele.span("outer");
        assert_eq!(outer.id(), SpanId::NONE);
        let inner = tele.span("inner");
        drop(inner);
        drop(outer);
        assert!(tele.spans().is_empty());
        tele.counter_add("c", 1);
        tele.record("h", 1);
        assert_eq!(tele.histogram_snapshot("h"), HistogramSnapshot::default());
        assert!(tele.histogram("h").is_none());
    }

    #[test]
    fn spans_nest_implicitly_within_a_thread() {
        let (tele, clock) = manual();
        {
            let _plan = tele.span("plan");
            clock.advance(10);
            {
                let _search = tele.span("search");
                clock.advance(5);
                let _probe = tele.span_with("probe", 7);
                clock.advance(1);
            }
            clock.advance(4);
        }
        let spans = tele.spans();
        assert_eq!(spans.len(), 3);
        let plan = spans.iter().find(|s| s.name == "plan").unwrap();
        let search = spans.iter().find(|s| s.name == "search").unwrap();
        let probe = spans.iter().find(|s| s.name == "probe").unwrap();
        assert_eq!(plan.parent, 0);
        assert_eq!(search.parent, plan.id);
        assert_eq!(probe.parent, search.id);
        assert_eq!(probe.detail, Some(7));
        assert_eq!(plan.duration_ns(), 20);
        assert_eq!(search.duration_ns(), 6);
        assert_eq!(probe.duration_ns(), 1);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let (tele, _clock) = manual();
        let root = tele.span("root");
        let root_id = root.id();
        let tele2 = tele.clone();
        std::thread::spawn(move || {
            let _w = tele2.span_under_with("worker", 0, root_id);
        })
        .join()
        .unwrap();
        drop(root);
        let spans = tele.spans();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, root.id);
        assert_ne!(worker.thread, root.thread);
    }

    #[test]
    fn two_instances_do_not_adopt_each_others_spans() {
        let (a, _) = manual();
        let (b, _) = manual();
        let _outer_a = a.span("a.outer");
        let inner_b = b.span("b.inner");
        drop(inner_b);
        let b_spans = b.spans();
        assert_eq!(b_spans.len(), 1);
        assert_eq!(b_spans[0].parent, 0, "b must not parent under a's span");
    }

    #[test]
    fn out_of_order_drop_keeps_stack_sane() {
        let (tele, _) = manual();
        let first = tele.span("first");
        let second = tele.span("second");
        drop(first);
        let third = tele.span("third");
        drop(third);
        drop(second);
        let spans = tele.spans();
        let second_rec = spans.iter().find(|s| s.name == "second").unwrap();
        let third_rec = spans.iter().find(|s| s.name == "third").unwrap();
        assert_eq!(third_rec.parent, second_rec.id);
    }
}
