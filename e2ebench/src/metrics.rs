//! The metric catalog, the per-run outcome, and its two renderings: the
//! human report and the final JSON line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; `tests/contract.rs` keeps the two in sync.

use crate::stats::{geomean, mean, percentile};
use graphpipe::prelude::{SearchStats, SimReport};
use graphpipe::serve::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric: its name, unit, direction, and what it is about —
/// for end-to-end metrics how it is computed, for per-layer metrics the
/// end-to-end metric a change in it should move.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run (`--trace 0`). Latencies are per op
/// position (a cell, a model, or a stream slot), each at its best repeat.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "median of the run's repeated set-ups"),
    m("ops_per_s", "ops/s", Higher, "op positions / sum of their best latencies"),
    m("latency_ms_p50", "ms", Lower, "percentile across op positions of the best latency"),
    m("latency_ms_p90", "ms", Lower, "percentile across op positions of the best latency"),
    m("latency_ms_p99", "ms", Lower, "percentile across op positions of the best latency"),
    m("plan_sim_samples_per_s", "samples/s", Higher, "geomean over distinct plans of simulated throughput"),
    m("plan_peak_mem_gib", "GiB", Lower, "geomean over distinct plans of max per-device peak memory"),
    m("train_loss_final", "loss", Lower, "geomean final loss of train-tiny; 1 where nothing trains"),
];

/// Reported by every traced run (`--trace 1`). Times are per op unless
/// the name says per call; a layer the workload does not exercise
/// reports 0.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("ir.build_ms", "ms", Lower, "moves plan-cold latency"),
    m("partition.plan_ms", "ms", Lower, "moves plan-cold ops_per_s, latency_ms_p50/p90"),
    m("partition.share", "frac", Lower, "planner share of the plan-cold op"),
    m("partition.bracket_ms", "ms", Lower, "moves plan-cold ops_per_s, latency_ms_p50/p90"),
    m("partition.bisect_ms", "ms", Lower, "moves plan-cold ops_per_s, latency_ms_p50/p90"),
    m("partition.finalize_ms", "ms", Lower, "moves plan-cold ops_per_s, latency_ms_p50/p90"),
    m("partition.search_self_ms", "ms", Lower, "moves plan-cold latency (search outside its phases)"),
    m("partition.dp_evals", "count", Lower, "moves plan-cold latency"),
    m("partition.dp_states", "count", Lower, "moves plan-cold latency"),
    m("partition.memo_hit_rate", "frac", Higher, "moves plan-cold latency"),
    m("partition.work_bound_prunes", "count", Higher, "moves plan-cold latency"),
    m("partition.memory_prunes", "count", Higher, "moves plan-cold latency"),
    m("partition.beam_prunes", "count", Higher, "moves plan-cold latency; plan_sim_samples_per_s if plans change"),
    m("partition.configs_tried", "count", Lower, "moves plan-cold latency"),
    m("verify.ms", "ms", Lower, "moves plan-cold latency; serve-hot latency_ms_p90/p99"),
    m("sim.ms", "ms", Lower, "moves plan-cold latency (well under 1%)"),
    m("sim.prep_ms", "ms", Lower, "moves plan-cold latency (well under 1%)"),
    m("sim.relax_ms", "ms", Lower, "moves plan-cold latency (well under 1%)"),
    m("sim.finalize_ms", "ms", Lower, "moves plan-cold latency (well under 1%)"),
    m("sim.bubble_frac", "frac", Lower, "explains plan_sim_samples_per_s"),
    m("serve.fingerprint_us", "us", Lower, "per call; moves serve-hot latency_ms_p50, ops_per_s"),
    m("serve.encode_us", "us", Lower, "per call; moves serve-hot latency_ms_p90/p99"),
    m("serve.decode_us", "us", Lower, "per call; moves serve-hot latency_ms_p90/p99"),
    m("serve.artifact_bytes", "bytes", Lower, "moves serve-hot latency_ms_p90/p99"),
    m("fleet.shard_hit_rate", "frac", Higher, "moves serve-hot ops_per_s, latency_ms_p90"),
    m("fleet.store_hit_rate", "frac", Lower, "moves serve-hot latency_ms_p90/p99"),
    m("fleet.misses", "count", Lower, "moves serve-hot latency_ms_p99"),
    m("fleet.joins", "count", Lower, "moves serve-hot latency_ms_p99"),
    m("fleet.store_rejects", "count", Lower, "moves serve-hot latency_ms_p99"),
    m("fleet.shed", "count", Lower, "moves serve-hot ops_per_s"),
    m("fleet.shard_hit_us_p50", "us", Lower, "moves serve-hot latency_ms_p50"),
    m("fleet.store_hit_us_p50", "us", Lower, "moves serve-hot latency_ms_p90/p99"),
    m("fleet.fill_queue_wait_ms_p50", "ms", Lower, "moves serve-hot setup_s (log2-bucket upper bound)"),
    m("exec.init_ms", "ms", Lower, "moves train-tiny ops_per_s, latency"),
    m("exec.step_ms", "ms", Lower, "moves train-tiny ops_per_s, latency"),
    m("exec.stage_wall_ms", "ms", Lower, "moves train-tiny ops_per_s, latency"),
    m("exec.reference_step_ms", "ms", Lower, "moves train-tiny ops_per_s, latency"),
    m("exec.pipeline_speedup", "x", Higher, "moves train-tiny ops_per_s"),
    m("obs.overhead_frac", "frac", Lower, "moves nothing: what enabling telemetry costs"),
    m("unattributed_frac", "frac", Lower, "moves nothing: op wall outside every timed layer"),
];

fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the report.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Extra report lines (span self-time table, counters, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome whose per-layer metrics start at 0, so a layer the
    /// workload does not exercise reports 0.
    pub fn new(trace: bool) -> Outcome {
        let mut out = Outcome::default();
        if trace {
            for def in PER_LAYER {
                out.metrics.insert(def.name, 0.0);
            }
        }
        out
    }

    /// Records a metric value; the name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            lookup(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.metrics.insert(name, value);
    }

    /// `ops_per_s` and the latency percentiles from each op position's
    /// best latency, in milliseconds.
    pub fn set_latencies(&mut self, best_ms: &[f64]) {
        let total_s = best_ms.iter().sum::<f64>() / 1e3;
        self.set("ops_per_s", best_ms.len() as f64 / total_s);
        self.set("latency_ms_p50", percentile(best_ms, 50.0));
        self.set("latency_ms_p90", percentile(best_ms, 90.0));
        self.set("latency_ms_p99", percentile(best_ms, 99.0));
    }

    /// The plan-derived metrics over the workload's distinct plans:
    /// geometric means of simulated throughput and of max per-device peak
    /// memory, and the mean bubble fraction.
    pub fn set_plans(&mut self, reports: &[&SimReport]) {
        let gib = |r: &&SimReport| r.max_peak_memory() as f64 / (1u64 << 30) as f64;
        self.set(
            "plan_sim_samples_per_s",
            geomean(&reports.iter().map(|r| r.throughput).collect::<Vec<_>>()),
        );
        self.set(
            "plan_peak_mem_gib",
            geomean(&reports.iter().map(gib).collect::<Vec<_>>()),
        );
        self.set(
            "sim.bubble_frac",
            mean(
                &reports
                    .iter()
                    .map(|r| r.bubble_fraction)
                    .collect::<Vec<_>>(),
            ),
        );
    }

    /// The `partition.*` search counters, summed over the workload's
    /// distinct plans (one search each).
    pub fn set_search_counts(&mut self, stats: &[SearchStats]) {
        let sum = |f: fn(&SearchStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let hits = sum(|s| s.memo_hits);
        let lookups = hits + sum(|s| s.memo_misses);
        self.set("partition.dp_evals", sum(|s| s.dp_evals));
        self.set("partition.dp_states", sum(|s| s.dp_states));
        self.set(
            "partition.memo_hit_rate",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        self.set("partition.work_bound_prunes", sum(|s| s.work_bound_prunes));
        self.set("partition.memory_prunes", sum(|s| s.memory_prunes));
        self.set("partition.beam_prunes", sum(|s| s.beam_prunes));
        self.set(
            "partition.configs_tried",
            sum(|s| u64::from(s.configs_tried)),
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts one failed op, keeping its description for the report.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn catalog(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable report: every metric with its unit and, for
    /// per-layer metrics, the end-to-end metric it should move.
    pub fn report(&self, trace: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# attempted {}  failed {}  failed_frac {:.6}  correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct()
        );
        for p in &self.problems {
            let _ = writeln!(out, "# FAILED: {p}");
        }
        let _ = writeln!(
            out,
            "# {:<30} {:>16} {:<10} about",
            "metric", "value", "unit"
        );
        for def in Self::catalog(trace) {
            let value = self.get(def.name).unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "# {:<30} {:>16.6} {:<10} {}",
                def.name, value, def.unit, def.about
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out
    }

    /// The final result line.
    ///
    /// # Panics
    ///
    /// When a catalog metric was never set — every workload must report
    /// every metric.
    pub fn json(&self, trace: bool) -> String {
        let metrics = Self::catalog(trace)
            .iter()
            .map(|def| {
                let value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    def.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(value)),
                        ("unit".into(), Json::Str(def.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i128)),
            ("failed".into(), Json::Int(self.failed as i128)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}
