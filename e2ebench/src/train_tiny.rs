//! `train-tiny`: real training of the six tiny zoo models at 2 devices,
//! mini-batch 8, with fixed seeds and a fixed number of steps per
//! episode. One op is one training step.
//!
//! Planning happens in set-up. The untraced run calls
//! `PlannedStrategy::execute`; the traced run makes the same calls layer
//! by layer (`synth_batch` + `ModelParams::init`, `reference_step`, then
//! one `gp_exec::train_traced` call per step), with telemetry off and on
//! in interleaved passes.

use crate::cells::Model;
use crate::metrics::Outcome;
use crate::spans::SpanTable;
use crate::stats::{geomean, median, min};
use crate::{run_passes, RunConfig, SetupClock};
use graphpipe::exec::{reference_step, synth_batch, train_traced, ModelParams};
use graphpipe::obs::Telemetry;
use graphpipe::prelude::*;
use std::time::Instant;

const DEVICES: usize = 2;
const MINI_BATCH: u64 = 8;
/// Training steps per episode (one `execute` call).
const STEPS: usize = 8;
const DATA_SEED: u64 = 7;
const PARAM_SEED: u64 = 42;

/// The trained models and the learning rate each converges at. gpt2-tiny
/// diverges to NaN by step 6 at `TrainingConfig::default()`'s 0.05.
const MODELS: [(Model, f32); 6] = [
    (Model::Mmt, 0.05),
    (Model::Gpt2, 0.001),
    (Model::CandleUno, 0.05),
    (Model::Dlrm, 0.05),
    (Model::Moe, 0.05),
    (Model::GnnPipe, 0.05),
];

fn config(lr: f32) -> TrainingConfig {
    TrainingConfig {
        steps: STEPS,
        lr,
        data_seed: DATA_SEED,
        param_seed: PARAM_SEED,
    }
}

/// Set-up: build and plan every model.
fn plan_all() -> Vec<PlannedStrategy> {
    MODELS
        .iter()
        .map(|&(model, _)| {
            Session::builder()
                .model(model.tiny())
                .cluster(Cluster::summit_like(DEVICES))
                .mini_batch(MINI_BATCH)
                .build()
                .and_then(|s| s.plan(PlannerKind::GraphPipe))
                .unwrap_or_else(|e| panic!("planning {}-tiny: {e}", model.name()))
        })
        .collect()
}

/// Per-layer wall times of one traced episode, in milliseconds.
#[derive(Default, Clone, Copy)]
struct Layers {
    init: f64,
    reference: f64,
    steps: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The traced episode: `execute`'s calls, one public layer call at a time.
fn layered_episode(
    strategy: &PlannedStrategy,
    lr: f32,
    telemetry: &Telemetry,
) -> Result<(TrainingRun, Layers), Error> {
    let mut l = Layers::default();
    let graph = strategy.model().graph();
    let plan = strategy.plan();
    let mini_batch = plan.stage_graph.mini_batch();
    let t = Instant::now();
    let batch = synth_batch(graph, mini_batch, DATA_SEED);
    let mut params = ModelParams::init(graph, PARAM_SEED);
    l.init = ms_since(t);
    let t = Instant::now();
    let (reference_loss, _) = reference_step(graph, &params, &batch, mini_batch);
    l.reference = ms_since(t);
    let mut losses = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let t = Instant::now();
        losses.extend(train_traced(
            graph,
            &plan.stage_graph,
            &plan.schedule,
            &mut params,
            &batch,
            lr,
            1,
            telemetry,
        )?);
        l.steps += ms_since(t);
    }
    Ok((
        TrainingRun {
            losses,
            reference_loss,
        },
        l,
    ))
}

/// Checks one episode; `Some(problem)` on failure.
fn check(run: &TrainingRun, first: Option<&TrainingRun>) -> Option<String> {
    if run.losses.len() != STEPS || !run.losses.iter().all(|l| l.is_finite()) {
        return Some(format!("non-finite or missing losses {:?}", run.losses));
    }
    let gap = run.reference_gap() / run.reference_loss.abs();
    if gap.is_nan() || gap > 1e-3 {
        return Some(format!(
            "first loss {} is {gap:e} relative from the single-device reference {}",
            run.first_loss(),
            run.reference_loss
        ));
    }
    if first.is_some_and(|f| f.losses != run.losses) {
        return Some("losses differ from the model's first episode".into());
    }
    None
}

#[derive(Default)]
struct ModelLog {
    /// Per-op (per-step) latency of each episode, in milliseconds.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    layers: Layers,
    traced_episodes: u64,
    first: Option<TrainingRun>,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    // Set-up is repeated after every pass, so `setup_s` is a median over
    // the whole run.
    let mut setups = SetupClock::default();
    let strategies = setups.time(plan_all);
    let mut out = Outcome::new(cfg.trace);
    let mut logs: Vec<ModelLog> = MODELS.iter().map(|_| ModelLog::default()).collect();
    let telemetry = Telemetry::enabled();
    let off = Telemetry::disabled();
    run_passes(
        cfg,
        MODELS.len(),
        |i, traced| {
            let (model, lr) = MODELS[i];
            let strategy = &strategies[i];
            out.attempted += STEPS as u64;
            let t = Instant::now();
            let result = if cfg.trace {
                layered_episode(strategy, lr, if traced { &telemetry } else { &off })
                    .map(|(r, l)| (r, Some(l)))
            } else {
                strategy.execute(&config(lr)).map(|r| (r, None))
            };
            let per_op = ms_since(t) / STEPS as f64;
            let log = &mut logs[i];
            let run = match result {
                Ok((run, layers)) => {
                    if let Some(problem) = check(&run, log.first.as_ref()) {
                        out.failed += STEPS as u64 - 1;
                        return out.fail(format!("{}-tiny: {problem}", model.name()));
                    }
                    if let Some(l) = layers.filter(|_| traced) {
                        log.layers.init += l.init;
                        log.layers.reference += l.reference;
                        log.layers.steps += l.steps;
                        log.traced_episodes += 1;
                    }
                    run
                }
                Err(e) => {
                    out.failed += STEPS as u64 - 1;
                    return out.fail(format!("{}-tiny: {e}", model.name()));
                }
            };
            if traced {
                log.traced_ms.push(per_op);
            } else {
                log.untraced_ms.push(per_op);
            }
            log.first.get_or_insert(run);
        },
        || {
            if !cfg.trace {
                setups.time(plan_all);
            }
        },
    );

    // Each model's best episode (see plan-cold): the steadiest estimate of
    // a step's cost on a host whose interference only slows steps down.
    let best: Vec<f64> = logs
        .iter()
        .filter(|l| !l.untraced_ms.is_empty())
        .map(|l| min(&l.untraced_ms))
        .collect();
    let reports: Vec<SimReport> = strategies
        .iter()
        .map(|s| s.simulate().expect("planned strategies simulate"))
        .collect();
    out.set_plans(&reports.iter().collect::<Vec<_>>());
    out.set_search_counts(&strategies.iter().map(|s| s.stats).collect::<Vec<_>>());
    if cfg.trace {
        let episodes: u64 = logs.iter().map(|l| l.traced_episodes).sum();
        let n = episodes.max(1) as f64;
        let sum = |f: fn(&Layers) -> f64| logs.iter().map(|l| f(&l.layers)).sum::<f64>();
        out.set("exec.init_ms", sum(|l| l.init) / n);
        out.set("exec.reference_step_ms", sum(|l| l.reference) / n);
        out.set("exec.step_ms", sum(|l| l.steps) / (n * STEPS as f64));
        let (stage_ns, stage_samples) = telemetry
            .registry()
            .map(|r| r.histograms())
            .unwrap_or_default()
            .iter()
            .filter(|(name, _)| name.starts_with("exec.stage"))
            .fold((0u64, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
        out.set(
            "exec.stage_wall_ms",
            stage_ns as f64 / 1e6 / stage_samples.max(1) as f64,
        );
        let speedups: Vec<f64> = logs
            .iter()
            .filter(|l| l.traced_episodes > 0)
            .map(|l| l.layers.reference * STEPS as f64 / l.layers.steps)
            .collect();
        out.set("exec.pipeline_speedup", geomean(&speedups));
        let traced: f64 = logs.iter().map(|l| min(&l.traced_ms)).sum();
        out.set("obs.overhead_frac", traced / best.iter().sum::<f64>() - 1.0);
        let timed = sum(|l| l.init + l.reference + l.steps);
        let wall: f64 = logs
            .iter()
            .map(|l| l.traced_ms.iter().sum::<f64>())
            .sum::<f64>()
            * STEPS as f64;
        out.set("unattributed_frac", 1.0 - timed / wall);
        out.notes
            .extend(SpanTable::collect(&telemetry).lines(episodes * STEPS as u64));
    } else {
        out.set("setup_s", setups.median_s());
        out.set_latencies(&best);
        let finals: Vec<f64> = logs
            .iter()
            .filter_map(|l| l.first.as_ref())
            .map(|r| f64::from(r.final_loss()))
            .collect();
        out.set("train_loss_final", geomean(&finals));
        for ((model, _), log) in MODELS.iter().zip(&logs) {
            let losses = log
                .first
                .as_ref()
                .map(|r| r.losses.clone())
                .unwrap_or_default();
            out.notes.push(format!(
                "model {:<16} episodes {:>4}  best {:>8.4} ms/step  median {:>8.4} ms/step  \
                 losses {:?}",
                model.name(),
                log.untraced_ms.len(),
                min(&log.untraced_ms),
                median(&log.untraced_ms),
                losses
            ));
        }
    }
    out
}
