//! `e2ebench` — the repository benchmark: three workloads driven through
//! the public API, each reporting end-to-end metrics from an untraced run
//! (`--trace 0`) or per-layer attribution from a traced run
//! (`--trace 1`). See `e2ebench/README.md` for how to run and read it.
//!
//! ```text
//! e2ebench --workload <plan-cold|serve-hot|train-tiny> --seed N --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod cells;
pub mod metrics;
mod plan_cold;
mod serve_hot;
mod spans;
mod stats;
mod train_tiny;

use metrics::Outcome;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: e2ebench --workload <plan-cold|serve-hot|train-tiny> --seed N \
                     --seconds S --trace <0|1> [--smoke]";

/// The build profile this binary was compiled with (see Cargo.toml).
const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release (thin LTO)"
};

/// One run's parameters.
pub(crate) struct RunConfig {
    /// Seeds every input ordering; the same seed gives the same inputs.
    pub(crate) seed: u64,
    /// How long the measured phase lasts.
    pub(crate) seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub(crate) trace: bool,
    /// Small catalogs for the benchmark's own tests.
    pub(crate) smoke: bool,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    run: fn(&RunConfig) -> Outcome,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "plan-cold",
        why: "full cold Session requests (build, plan, verify, simulate, artifact round-trip) \
              over the zoo at 32 GPUs plus moe at 128; the planner is over 99% of each request, \
              so a planner change shows here and nowhere else",
        run: plan_cold::run,
    },
    Workload {
        name: "serve-hot",
        why: "one client replays a seeded Zipf request stream against a store-backed \
              FleetService whose shard cache holds about half the distinct requests; the planner \
              never runs, fingerprinting and store-hit decode+verify do the work",
        run: serve_hot::run,
    },
    Workload {
        name: "train-tiny",
        why: "PlannedStrategy::execute on the six tiny zoo models at 2 devices, mini-batch 8; \
              gp-exec and gp-tensor do the work, the only workload running real training",
        run: train_tiny::run,
    },
];

fn parse_args() -> Result<(&'static Workload, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        },
    ))
}

/// Times repeated set-ups; `setup_s` is their median.
#[derive(Default)]
pub(crate) struct SetupClock(Vec<f64>);

impl SetupClock {
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = setup();
        self.0.push(t0.elapsed().as_secs_f64());
        value
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// Drives closed-loop passes over `cells` cells for `cfg.seconds`: each
/// pass visits every cell once, in an order shuffled from the seed. The
/// first pass always completes; later ones stop at the deadline. In a
/// traced run every pass runs twice — once with telemetry off, once on,
/// alternating which goes first — so `obs.overhead_frac` compares
/// interleaved samples. `op(cell, traced)` runs and records one op;
/// `between()` runs after every pass, outside any op.
pub(crate) fn run_passes(
    cfg: &RunConfig,
    cells: usize,
    mut op: impl FnMut(usize, bool),
    mut between: impl FnMut(),
) {
    let mut rng = stats::Rng::new(cfg.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let modes: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let mut pass = 0usize;
    loop {
        let mut order: Vec<usize> = (0..cells).collect();
        rng.shuffle(&mut order);
        for k in 0..modes.len() {
            let traced = modes[(k + pass) % modes.len()];
            for &cell in &order {
                if pass > 0 && Instant::now() >= deadline {
                    return;
                }
                op(cell, traced);
            }
        }
        pass += 1;
        between();
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// The command-line entry point: parses the arguments, runs the workload,
/// prints the report and the JSON result line.
pub fn cli() {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} smoke={}",
        workload.name, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.smoke
    );
    println!("# host: nproc={cores} build={BUILD_PROFILE}");
    println!("# why: {}", workload.why);
    let outcome = (workload.run)(&cfg);
    print!("{}", outcome.report(cfg.trace));
    println!("{}", outcome.json(cfg.trace));
}
