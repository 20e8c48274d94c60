//! `plan-cold`: one client, closed loop, each op a full cold request for
//! one cell — build → plan (with verify) → simulate → artifact →
//! load_artifact.
//!
//! The untraced run drives the `Session` front door. The traced run makes
//! the same calls layer by layer (zoo builder / `plan_dag`,
//! `PlanRequest::fingerprint`, `GraphPipePlanner::plan`,
//! `verify_strategy`, `gp_sim::simulate_traced`, `encode_plan`,
//! `decode_plan` + `verify_strategy`), timing each, with telemetry off and
//! on in interleaved passes.

use crate::cells::{Built, Model};
use crate::metrics::Outcome;
use crate::spans::SpanTable;
use crate::stats::{mean, median, min};
use crate::{run_passes, RunConfig, SetupClock};
use graphpipe::obs::Telemetry;
use graphpipe::prelude::*;
use graphpipe::serve::fingerprint::plan_fingerprint;
use graphpipe::serve::{artifact, Fingerprint, PlanRequest, ServePlanner};
use graphpipe::sim::simulate_traced;
use std::sync::Arc;
use std::time::Instant;

struct Cell {
    model: Model,
    gpus: usize,
    beam: Option<u32>,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}@{}", self.model.name(), self.gpus)
    }

    fn cluster(&self) -> Cluster {
        Cluster::summit_like(self.gpus)
    }

    fn mini_batch(&self) -> u64 {
        self.model.mini_batch(self.gpus)
    }

    /// The harness options (A.2 caps micro-batches per mini-batch at 128),
    /// plus the cell's beam.
    fn options(&self) -> PlanOptions {
        let mut options = PlanOptions::default().with_max_micro_batches(128);
        options.beam_width = self.beam;
        options
    }

    fn request(&self, model: SpModel) -> PlanRequest {
        PlanRequest::new(Arc::new(model), self.cluster(), self.mini_batch())
            .with_options(self.options())
            .with_planner(ServePlanner::GraphPipe)
    }
}

/// Every zoo model at 32 GPUs, plus moe at 128 GPUs with beam 8. Smoke
/// runs use 8 GPUs (16 for the beam cell).
fn cells(smoke: bool) -> Vec<Cell> {
    let (gpus, big) = if smoke { (8, 16) } else { (32, 128) };
    let mut cells: Vec<Cell> = Model::ALL
        .iter()
        .map(|&model| Cell {
            model,
            gpus,
            beam: None,
        })
        .collect();
    cells.push(Cell {
        model: Model::Moe,
        gpus: big,
        beam: Some(8),
    });
    cells
}

/// What one op produced, for the correctness checks.
struct OpOutput {
    plan: Arc<Plan>,
    restored: Arc<Plan>,
    fingerprint: Fingerprint,
    restored_fingerprint: Option<Fingerprint>,
    report: SimReport,
    artifact_bytes: usize,
}

/// Per-layer wall times of one traced op, in milliseconds.
#[derive(Default, Clone, Copy)]
struct Layers {
    build: f64,
    fingerprint: f64,
    plan: f64,
    verify: f64,
    sim: f64,
    encode: f64,
    decode: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.build
            + self.fingerprint
            + self.plan
            + self.verify
            + self.sim
            + self.encode
            + self.decode
    }

    fn add(&mut self, o: &Layers) {
        self.build += o.build;
        self.fingerprint += o.fingerprint;
        self.plan += o.plan;
        self.verify += o.verify;
        self.sim += o.sim;
        self.encode += o.encode;
        self.decode += o.decode;
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The untraced op: one cold request through the `Session` front door.
fn session_op(cell: &Cell) -> Result<OpOutput, Error> {
    let builder = match cell.model.build() {
        Built::Sp(model) => Session::builder().model(model),
        Built::Dag(graph) => Session::builder().model_dag(graph),
    };
    let session = builder
        .cluster(cell.cluster())
        .mini_batch(cell.mini_batch())
        .options(cell.options())
        .build()?;
    let strategy = session.plan(PlannerKind::GraphPipe)?;
    let report = strategy.simulate()?;
    let text = strategy.artifact();
    let restored = session.load_artifact(&text, PlannerKind::GraphPipe)?;
    Ok(OpOutput {
        plan: Arc::clone(strategy.plan()),
        restored: Arc::clone(restored.plan()),
        fingerprint: strategy.fingerprint(),
        restored_fingerprint: Some(restored.fingerprint()),
        report,
        artifact_bytes: text.len(),
    })
}

/// The traced op: the same request, one public layer call at a time.
fn layered_op(cell: &Cell, telemetry: &Telemetry) -> Result<(OpOutput, Layers), Error> {
    let mut l = Layers::default();
    let t = Instant::now();
    let model = cell.model.build().into_model();
    l.build = ms_since(t);
    let cluster = cell.cluster();
    let request = cell.request(model);
    let t = Instant::now();
    let fingerprint = request.fingerprint();
    l.fingerprint = ms_since(t);
    let model = &request.model;
    let t = Instant::now();
    let plan = GraphPipePlanner::with_options(cell.options())
        .with_telemetry(telemetry.clone())
        .plan(model, &cluster, cell.mini_batch())?;
    l.plan = ms_since(t);
    let t = Instant::now();
    verify_strategy(model, &cluster, &plan).into_result()?;
    l.verify = ms_since(t);
    let t = Instant::now();
    let report = simulate_traced(
        model.graph(),
        &cluster,
        &plan.stage_graph,
        &plan.schedule,
        &SimOptions::default(),
        telemetry,
    )?;
    l.sim = ms_since(t);
    let t = Instant::now();
    let text = artifact::encode_plan(&plan, Some(fingerprint));
    l.encode = ms_since(t);
    let t = Instant::now();
    let (restored, restored_fingerprint) = artifact::decode_plan(&text, model.graph(), &cluster)?;
    l.decode = ms_since(t);
    let t = Instant::now();
    verify_strategy(model, &cluster, &restored).into_result()?;
    l.verify += ms_since(t);
    Ok((
        OpOutput {
            plan: Arc::new(plan),
            restored: Arc::new(restored),
            fingerprint,
            restored_fingerprint,
            report,
            artifact_bytes: text.len(),
        },
        l,
    ))
}

fn without_walls(plan: &Plan) -> Plan {
    let mut plan = plan.clone();
    plan.stats.zero_walls();
    plan
}

/// The first op of a cell, which every later op must reproduce.
struct FirstOp {
    plan_fingerprint: Fingerprint,
    sim_fingerprint: u64,
    report: SimReport,
    stats: SearchStats,
    artifact_bytes: usize,
}

/// What the run learned about one cell.
#[derive(Default)]
struct CellLog {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    first: Option<FirstOp>,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let cells = cells(cfg.smoke);
    // Set-up: build every cell's model and the request fingerprint its
    // strategy must carry. It is repeated after every pass, so `setup_s`
    // is a median over the whole run.
    let setup = || -> Vec<Fingerprint> {
        cells
            .iter()
            .map(|c| c.request(c.model.build().into_model()).fingerprint())
            .collect()
    };
    let mut setups = SetupClock::default();
    let expected = setups.time(setup);

    let mut out = Outcome::new(cfg.trace);
    let mut logs: Vec<CellLog> = cells.iter().map(|_| CellLog::default()).collect();
    let telemetry = Telemetry::enabled();
    let off = Telemetry::disabled();
    let mut layers = Layers::default();
    let mut traced_wall = 0.0;
    let mut traced_ops = 0u64;
    run_passes(
        cfg,
        cells.len(),
        |i, traced| {
            let cell = &cells[i];
            out.attempted += 1;
            let t = Instant::now();
            let result = if cfg.trace {
                layered_op(cell, if traced { &telemetry } else { &off }).map(|(o, l)| (o, Some(l)))
            } else {
                session_op(cell).map(|o| (o, None))
            };
            let wall = ms_since(t);
            let (op, op_layers) = match result {
                Ok(r) => r,
                Err(e) => return out.fail(format!("{}: {e}", cell.label())),
            };
            if let Some(problem) = check(&op, expected[i], &logs[i]) {
                return out.fail(format!("{}: {problem}", cell.label()));
            }
            let log = &mut logs[i];
            if log.first.is_none() {
                log.first = Some(FirstOp {
                    plan_fingerprint: plan_fingerprint(&op.plan),
                    sim_fingerprint: op.report.fingerprint(),
                    report: op.report.clone(),
                    stats: op.plan.stats,
                    artifact_bytes: op.artifact_bytes,
                });
            }
            if traced {
                log.traced_ms.push(wall);
                layers.add(&op_layers.expect("traced ops are layered"));
                traced_wall += wall;
                traced_ops += 1;
            } else {
                log.untraced_ms.push(wall);
            }
        },
        || {
            if !cfg.trace {
                setups.time(setup);
            }
        },
    );

    let firsts: Vec<&FirstOp> = logs.iter().filter_map(|l| l.first.as_ref()).collect();
    out.set_plans(&firsts.iter().map(|f| &f.report).collect::<Vec<_>>());
    out.set_search_counts(&firsts.iter().map(|f| f.stats).collect::<Vec<_>>());
    // Each cell's best op: the host's interference only ever slows an op
    // down, so the fastest repeat is the steadiest estimate of its cost.
    let best: Vec<f64> = logs
        .iter()
        .filter(|l| !l.untraced_ms.is_empty())
        .map(|l| min(&l.untraced_ms))
        .collect();
    if cfg.trace {
        let n = traced_ops.max(1) as f64;
        let spans = SpanTable::collect(&telemetry);
        out.set("ir.build_ms", layers.build / n);
        out.set("partition.plan_ms", layers.plan / n);
        out.set("partition.share", layers.plan / traced_wall);
        out.set("partition.bracket_ms", spans.total_ms("search.bracket") / n);
        out.set("partition.bisect_ms", spans.total_ms("search.bisect") / n);
        out.set(
            "partition.finalize_ms",
            spans.total_ms("planner.finalize") / n,
        );
        out.set(
            "partition.search_self_ms",
            spans.self_ms("planner.search") / n,
        );
        out.set("verify.ms", layers.verify / n);
        out.set("sim.ms", layers.sim / n);
        out.set("sim.prep_ms", spans.total_ms("sim.prep") / n);
        out.set("sim.relax_ms", spans.total_ms("sim.relax") / n);
        out.set("sim.finalize_ms", spans.total_ms("sim.finalize") / n);
        out.set("serve.fingerprint_us", layers.fingerprint * 1e3 / n);
        out.set("serve.encode_us", layers.encode * 1e3 / n);
        out.set("serve.decode_us", layers.decode * 1e3 / n);
        out.set(
            "serve.artifact_bytes",
            mean(
                &firsts
                    .iter()
                    .map(|f| f.artifact_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        let traced: f64 = logs.iter().map(|l| min(&l.traced_ms)).sum();
        out.set("obs.overhead_frac", traced / best.iter().sum::<f64>() - 1.0);
        out.set("unattributed_frac", 1.0 - layers.sum() / traced_wall);
        out.notes.extend(spans.lines(traced_ops));
    } else {
        out.set("setup_s", setups.median_s());
        out.set_latencies(&best);
        // This workload trains nothing; 1 marks the metric as not applicable.
        out.set("train_loss_final", 1.0);
        for (cell, log) in cells.iter().zip(&logs) {
            out.notes.push(format!(
                "cell {:<20} ops {:>3}  best {:>9.3} ms  median {:>9.3} ms",
                cell.label(),
                log.untraced_ms.len(),
                min(&log.untraced_ms),
                median(&log.untraced_ms)
            ));
        }
    }
    out
}

/// Checks one op against the cell's expected request fingerprint and the
/// cell's first op; `Some(problem)` on a mismatch.
fn check(op: &OpOutput, expected: Fingerprint, log: &CellLog) -> Option<String> {
    if op.fingerprint != expected {
        return Some(format!(
            "strategy fingerprint {} != request fingerprint {expected}",
            op.fingerprint
        ));
    }
    if op.restored_fingerprint != Some(expected) {
        return Some("load_artifact changed the fingerprint".into());
    }
    if without_walls(&op.restored) != without_walls(&op.plan) {
        return Some("load_artifact returned a different plan".into());
    }
    if let Some(first) = &log.first {
        if plan_fingerprint(&op.plan) != first.plan_fingerprint {
            return Some("plan fingerprint differs from the cell's first op".into());
        }
        if op.report.fingerprint() != first.sim_fingerprint {
            return Some("simulation report differs from the cell's first op".into());
        }
    }
    None
}
