//! End-to-end telemetry: a full [`Session`] run (plan → simulate →
//! execute) with tracing enabled exports a valid Perfetto trace and a
//! summary tree at least four span levels deep — while every
//! deterministic output (plan, fingerprint, sim report, training losses)
//! stays byte-identical to the untraced run. The inertness half of this
//! contract is also pinned per-layer in `tests/golden_planner.rs` and
//! `tests/golden_sim.rs`.

use graphpipe::fleet::FleetConfig;
use graphpipe::obs::{PerfettoSink, SummarySink, Telemetry};
use graphpipe::prelude::*;
use graphpipe::serve::json::Json;
use graphpipe::sim::report_into_perfetto;
use std::collections::HashMap;

fn session_with(telemetry: Telemetry) -> Session {
    Session::builder()
        .model(zoo::mmt(&zoo::MmtConfig::tiny()))
        .cluster(Cluster::summit_like(3).with_memory_capacity(1 << 30))
        .mini_batch(8)
        .telemetry(telemetry)
        .build()
        .unwrap()
}

/// Nesting depth of a span record (a root span has depth 1; parent id 0
/// means root).
fn depth_of(id: u64, parent_of: &HashMap<u64, u64>) -> usize {
    let mut depth = 1;
    let mut cur = id;
    while let Some(&p) = parent_of.get(&cur) {
        if p == 0 {
            break;
        }
        depth += 1;
        cur = p;
    }
    depth
}

#[test]
fn session_run_exports_valid_trace_with_deep_spans() {
    let telemetry = Telemetry::enabled();
    let session = session_with(telemetry.clone());
    let strategy = session.plan(PlannerKind::GraphPipe).unwrap();
    let report = strategy.simulate().unwrap();
    let run = strategy
        .execute(&TrainingConfig {
            steps: 2,
            ..TrainingConfig::default()
        })
        .unwrap();
    assert_eq!(run.losses.len(), 2);

    // The recorded span forest covers every layer and nests at least four
    // levels deep (session.plan → planner.search → search.bracket →
    // search.probe; session.execute → exec.step → exec.iteration →
    // exec.replica).
    let spans = telemetry.spans();
    let parent_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let max_depth = spans
        .iter()
        .map(|s| depth_of(s.id, &parent_of))
        .max()
        .unwrap_or(0);
    assert!(max_depth >= 4, "span tree only {max_depth} levels deep");
    for expected in [
        "session.plan",
        "planner.search",
        "search.bracket",
        "search.probe",
        "search.bisect",
        "search.complete",
        "session.simulate",
        "sim.relax",
        "session.execute",
        "exec.step",
        "exec.replica",
    ] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "no `{expected}` span recorded"
        );
    }
    // The completion pass is attributed inside the bisection, not to it.
    let name_of: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    for complete in spans.iter().filter(|s| s.name == "search.complete") {
        assert_eq!(name_of.get(&complete.parent), Some(&"search.bisect"));
    }

    // The summary tree renders the same hierarchy.
    let summary = telemetry.export(&mut SummarySink::new());
    for expected in ["session.plan", "planner.search", "exec.step"] {
        assert!(summary.contains(expected), "{summary}");
    }

    // One Perfetto file holds the live spans (pid 1) next to the
    // simulated schedule (pid 2), and it is the shape ui.perfetto.dev
    // renders without warnings: non-negative timestamps and durations,
    // and per-lane B/E stack discipline where a named E closes the B of
    // the same name.
    let mut sink = PerfettoSink::new();
    report_into_perfetto(&mut sink, &report);
    let trace = telemetry.export(&mut sink);
    let doc = Json::parse(&trace).expect("trace is well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut open: HashMap<(u64, u64), Vec<(&str, f64)>> = HashMap::new();
    let mut saw_slice = false;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let lane = (
            ev.get("pid").and_then(Json::as_u64).unwrap_or(0),
            ev.get("tid").and_then(Json::as_u64).unwrap_or(0),
        );
        let name = ev.get("name").and_then(Json::as_str);
        let ts = || {
            let ts = ev.get("ts").and_then(Json::as_f64).expect("numeric ts");
            assert!(ts >= 0.0, "negative `{ph}` timestamp {ts}");
            ts
        };
        match ph {
            "B" => open
                .entry(lane)
                .or_default()
                .push((name.expect("B has a name"), ts())),
            "E" => {
                let (began, begin) = open
                    .get_mut(&lane)
                    .and_then(Vec::pop)
                    .expect("E closes an open B");
                // trace_event lets E omit its name.
                if let Some(name) = name {
                    assert_eq!(name, began, "E closes a B of another name");
                }
                assert!(ts() >= begin, "negative span duration");
            }
            "X" => {
                ts();
                assert!(ev.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
                saw_slice = true;
            }
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(open.values().all(Vec::is_empty), "unclosed B events");
    assert!(saw_slice, "no simulated task slices");
    assert!(trace.contains("simulated cluster"));

    // Serving through the same session records latency histograms: one
    // planned miss (queue wait + worker round trip), one shard hit.
    let fleet = session.serve_fleet(FleetConfig::local(1, 4)).unwrap();
    fleet.plan(PlannerKind::GraphPipe).unwrap();
    fleet.plan(PlannerKind::GraphPipe).unwrap();
    let stats = fleet.shutdown();
    assert_eq!(stats.shard_hits, 1, "{}", stats.render());
    assert_eq!(stats.worker_rtt.count, 1, "{}", stats.render());
    assert_eq!(stats.queue_wait.count, 1, "{}", stats.render());
    assert!(stats.render().contains("worker-rtt"), "{}", stats.render());
    for name in ["fleet.worker_rtt_ns", "fleet.queue_wait_ns"] {
        assert_eq!(telemetry.histogram_snapshot(name).count, 1, "{name}");
    }
}

#[test]
fn telemetry_is_inert_across_the_session() {
    let quiet = session_with(Telemetry::disabled());
    let loud = session_with(Telemetry::enabled());

    let (a, b) = (
        quiet.plan(PlannerKind::GraphPipe).unwrap(),
        loud.plan(PlannerKind::GraphPipe).unwrap(),
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
    // Wall timings are machine noise either way; everything else in the
    // plan must match exactly.
    let strip = |s: &PlannedStrategy| {
        let mut p = (**s.plan()).clone();
        p.stats.zero_walls();
        p
    };
    assert_eq!(strip(&a), strip(&b));

    let (ra, rb) = (a.simulate().unwrap(), b.simulate().unwrap());
    assert_eq!(ra.fingerprint(), rb.fingerprint());

    let config = TrainingConfig {
        steps: 3,
        ..TrainingConfig::default()
    };
    let (ta, tb) = (a.execute(&config).unwrap(), b.execute(&config).unwrap());
    assert_eq!(ta, tb, "telemetry perturbed training");
}
