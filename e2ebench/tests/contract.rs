//! The benchmark's own tests: `BENCHMARK.json` matches the metric
//! catalog, every smoke run emits every metric with its unit, and the
//! deterministic metrics repeat exactly across runs and seeds.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use e2ebench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use e2ebench::WORKLOADS;
use graphpipe::serve::json::Json;
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> &'a str {
    field(doc, key).as_str().expect("a string")
}

/// One smoke run's result line, memoized per (workload, seed, trace).
fn smoke(workload: &str, seed: u64, trace: bool) -> Json {
    static RUNS: Mutex<BTreeMap<(String, u64, bool), Json>> = Mutex::new(BTreeMap::new());
    let key = (workload.to_string(), seed, trace);
    if let Some(hit) = RUNS.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.2",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("the last line is JSON");
    RUNS.lock().unwrap().insert(key, result.clone());
    result
}

fn value(result: &Json, metric: &str) -> f64 {
    field(field(field(result, "metrics"), metric), "value")
        .as_f64()
        .expect("a number")
}

fn check_catalog(entries: &Json, catalog: &[MetricDef], bounded: bool) {
    let entries = entries.as_arr().expect("a list");
    assert_eq!(entries.len(), catalog.len());
    for (entry, def) in entries.iter().zip(catalog) {
        assert_eq!(str_field(entry, "name"), def.name);
        assert_eq!(str_field(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(
            str_field(entry, "better"),
            def.better.name(),
            "{}",
            def.name
        );
        if bounded {
            let bound = field(entry, "bound").as_f64().expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let doc = benchmark_json();
    check_catalog(field(&doc, "end_to_end"), END_TO_END, true);
    check_catalog(field(&doc, "per_layer"), PER_LAYER, false);
    let workloads: Vec<&str> = field(&doc, "workloads")
        .as_arr()
        .expect("a list")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    let command: Vec<&str> = field(&doc, "command")
        .as_arr()
        .expect("a list")
        .iter()
        .map(|a| a.as_str().expect("a string"))
        .collect();
    assert!(command.contains(&"e2ebench/Cargo.toml"), "{command:?}");
}

#[test]
fn smoke_runs_emit_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
            let result = smoke(workload.name, 1, trace);
            let what = format!("{} trace={trace}", workload.name);
            assert_eq!(field(&result, "correct"), &Json::Bool(true), "{what}");
            assert_eq!(field(&result, "failed").as_u64(), Some(0), "{what}");
            assert!(field(&result, "attempted").as_u64() >= Some(1), "{what}");
            let Json::Obj(metrics) = field(&result, "metrics") else {
                panic!("{what}: metrics is not an object");
            };
            let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let expected: Vec<&str> = catalog.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{what}");
            for ((name, metric), def) in metrics.iter().zip(catalog) {
                assert_eq!(str_field(metric, "unit"), def.unit, "{what} {name}");
                let v = value(&result, name);
                assert!(v.is_finite(), "{what} {name} = {v}");
                // End-to-end metrics are never 0.
                assert!(trace || v > 0.0, "{what} {name} = {v}");
            }
        }
    }
}

#[test]
fn deterministic_metrics_repeat_exactly_across_runs() {
    for workload in WORKLOADS {
        let (a, b) = (
            smoke(workload.name, 1, false),
            smoke(workload.name, 2, false),
        );
        for metric in [
            "plan_sim_samples_per_s",
            "plan_peak_mem_gib",
            "train_loss_final",
        ] {
            assert_eq!(
                value(&a, metric).to_bits(),
                value(&b, metric).to_bits(),
                "{} {metric}",
                workload.name
            );
        }
        let (a, b) = (smoke(workload.name, 1, true), smoke(workload.name, 2, true));
        for def in PER_LAYER.iter().filter(|d| {
            d.name.starts_with("partition.") && (d.unit == "count" || d.name.ends_with("rate"))
        }) {
            assert_eq!(
                value(&a, def.name).to_bits(),
                value(&b, def.name).to_bits(),
                "{} {}",
                workload.name,
                def.name
            );
        }
    }
}
