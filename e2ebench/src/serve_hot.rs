//! `serve-hot`: a store-backed `FleetService` answering a skewed request
//! stream from one closed-loop client, with the planner idle.
//!
//! Set-up fills a fresh artifact store by planning every distinct
//! (request, tenant tier) pair once through the fleet. The measured phase
//! then replays a seeded Zipf stream over those pairs, round after round.
//! The shard cache holds about half of them, so popular pairs are shard
//! hits and the tail are store hits (artifact decode + re-verify). Each
//! stream position keeps its best latency over the rounds. Any miss, join
//! or planner run during the measured phase fails the run.

use crate::cells::Model;
use crate::metrics::Outcome;
use crate::stats::{mean, median, Rng};
use crate::{RunConfig, SetupClock};
use graphpipe::fleet::{
    AdmissionConfig, FleetConfig, FleetService, FleetStats, Served, TenantClass, TenantSpec,
};
use graphpipe::obs::Telemetry;
use graphpipe::prelude::*;
use graphpipe::serve::{artifact, Fingerprint, PlanRequest};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Planner workers that fill the store during set-up.
const WORKERS: usize = 2;
/// Zipf exponent of the request stream.
const ZIPF_S: f64 = 1.0;
/// Requests in the seeded stream the measured phase replays.
const STREAM_OPS: usize = 2048;
/// Seeds the fixed popularity order; the run seed only drives sampling.
const RANK_SEED: u64 = 0x5e7e_40a7;

const TIERS: [(&str, TenantClass); 3] = [
    ("batch", TenantClass::Batch),
    ("standard", TenantClass::Standard),
    ("premium", TenantClass::Premium),
];

/// One distinct (request, tenant) pair.
struct Entry {
    tenant: &'static str,
    request: PlanRequest,
    /// The request as admitted: options capped to the tenant's tier.
    admitted: PlanRequest,
    /// The fingerprint every reply must carry.
    expected: Fingerprint,
}

fn catalog(smoke: bool) -> Vec<Entry> {
    let gpus: &[usize] = if smoke { &[8] } else { &[8, 16] };
    let mut entries = Vec::new();
    for &g in gpus {
        for model in Model::ALL {
            let request = PlanRequest::new(
                Arc::new(model.build().into_model()),
                Cluster::summit_like(g),
                model.mini_batch(g),
            )
            .with_options(PlanOptions::default().with_max_micro_batches(128));
            for (tenant, class) in TIERS {
                let mut admitted = request.clone();
                class.apply(&mut admitted.options);
                entries.push(Entry {
                    tenant,
                    expected: admitted.fingerprint(),
                    request: request.clone(),
                    admitted,
                });
            }
        }
    }
    entries
}

fn fleet_config(entries: usize, store: PathBuf, telemetry: Telemetry) -> FleetConfig {
    FleetConfig {
        shards: 3,
        cache_capacity: entries / 2,
        local_workers: WORKERS,
        remote_workers: Vec::new(),
        store: Some(store),
        admission: AdmissionConfig {
            tenants: TIERS
                .iter()
                .map(|&(name, class)| {
                    (
                        name.to_string(),
                        TenantSpec {
                            class,
                            tokens: None,
                        },
                    )
                })
                .collect(),
            ..AdmissionConfig::default()
        },
        telemetry,
    }
}

/// An artifact-store directory inside the working directory, removed on
/// drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn fresh() -> StoreDir {
        let dir = PathBuf::from(".bench_build")
            .join(format!("e2ebench-serve-hot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A filled store and the fleet that filled it, plus every plan.
struct Filled {
    fleet: FleetService,
    plans: Vec<Arc<Plan>>,
    // Declared last: dropped after the fleet has stopped.
    dir: StoreDir,
}

/// Set-up: plans every entry once through a fresh store-backed fleet.
fn fill(entries: &[Entry]) -> Filled {
    let dir = StoreDir::fresh();
    let fleet = FleetService::start(fleet_config(
        entries.len(),
        dir.0.clone(),
        Telemetry::disabled(),
    ))
    .expect("open the artifact store");
    let tickets: Vec<_> = entries
        .iter()
        .map(|e| {
            fleet
                .submit(e.tenant, e.request.clone())
                .expect("admission is unbounded")
        })
        .collect();
    let plans = entries
        .iter()
        .zip(tickets)
        .map(|(e, ticket)| {
            assert_eq!(ticket.fingerprint(), e.expected, "fill: wrong fingerprint");
            ticket.wait().expect("zoo requests are plannable")
        })
        .collect();
    Filled { fleet, plans, dir }
}

/// What the traced phase measures beside each op (outside its timer).
#[derive(Default)]
struct Side {
    fingerprint_ns: u64,
    fingerprints: u64,
    decode_ns: u64,
    encode_ns: u64,
    verify_ns: u64,
    store_hits: u64,
}

/// Best-of-rounds measurements, one slot per stream position.
struct Phase {
    /// Whole op — submit, wait, and the reply check — min over rounds.
    best_wall_ns: Vec<u64>,
    /// `FleetService::submit` → `FleetTicket::wait`, min over rounds.
    best_serve_ns: Vec<u64>,
    /// How each position was served in the last round.
    served: Vec<Served>,
    rounds: u64,
    side: Side,
    attempted: u64,
    problems: Vec<String>,
}

impl Phase {
    fn new(positions: usize) -> Phase {
        Phase {
            best_wall_ns: vec![u64::MAX; positions],
            best_serve_ns: vec![u64::MAX; positions],
            served: vec![Served::Cache; positions],
            rounds: 0,
            side: Side::default(),
            attempted: 0,
            problems: Vec::new(),
        }
    }

    /// Replays the stream once on `fleet`, keeping each position's best
    /// times; with `side`, also times the layer calls beside each op.
    fn round(&mut self, fleet: &FleetService, entries: &[Entry], stream: &[usize], side: bool) {
        for (pos, &i) in stream.iter().enumerate() {
            let e = &entries[i];
            let request = e.request.clone();
            self.attempted += 1;
            let t0 = Instant::now();
            let reply = fleet
                .submit(e.tenant, request)
                .map(|ticket| (ticket.served(), ticket.fingerprint(), ticket.wait()));
            let serve_ns = t0.elapsed().as_nanos() as u64;
            let problem = match &reply {
                Err(err) => Some(format!("submit refused: {err}")),
                Ok((_, _, Err(err))) => Some(format!("reply failed: {err}")),
                Ok((_, fp, _)) if *fp != e.expected => {
                    Some(format!("reply fingerprint {fp} != {}", e.expected))
                }
                Ok((Served::Joined | Served::Planned, ..)) => {
                    Some("a hot request reached the planner".into())
                }
                Ok(_) => None,
            };
            let wall_ns = t0.elapsed().as_nanos() as u64;
            if let Some(p) = problem {
                self.problems.push(format!("request {pos}: {p}"));
                continue;
            }
            let (served, fp, plan) = reply.expect("checked above");
            self.best_wall_ns[pos] = self.best_wall_ns[pos].min(wall_ns);
            self.best_serve_ns[pos] = self.best_serve_ns[pos].min(serve_ns);
            self.served[pos] = served;
            if side {
                let plan = plan.expect("checked above");
                measure_side(fleet, e, fp, &plan, served, &mut self.side);
            }
        }
        self.rounds += 1;
    }

    /// Best wall times, in milliseconds, of the positions that never
    /// failed.
    fn latencies_ms(&self) -> Vec<f64> {
        self.best_wall_ns
            .iter()
            .filter(|&&ns| ns != u64::MAX)
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    }

    fn count(&self, served: Served) -> usize {
        self.served.iter().filter(|&&s| s == served).count()
    }
}

/// The seeded request stream: Zipf draws over a fixed popularity order.
fn stream(entries: &[Entry], seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=entries.len())
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut by_rank: Vec<usize> = (0..entries.len()).collect();
    Rng::new(RANK_SEED).shuffle(&mut by_rank);
    let mut rng = Rng::new(seed);
    (0..STREAM_OPS)
        .map(|_| {
            let u = rng.next_f64();
            by_rank[cdf.partition_point(|&p| p < u).min(cdf.len() - 1)]
        })
        .collect()
}

/// Replays `stream` in whole rounds for `seconds` on each of `fleets`
/// (`(fleet, side)` pairs), after one unrecorded warm-up round per fleet
/// that brings its shard cache to the stream's steady state. With several
/// fleets the rounds interleave, alternating which goes first, so host
/// drift hits each alike. One client, so a fleet's cache evolves the same
/// way every round and each position is served the same way each time.
fn measure(
    fleets: &[(&FleetService, bool)],
    entries: &[Entry],
    stream: &[usize],
    seconds: f64,
) -> Vec<Phase> {
    for (fleet, _) in fleets {
        for &i in stream {
            let e = &entries[i];
            let _ = fleet.submit(e.tenant, e.request.clone()).map(|t| t.wait());
        }
    }
    let mut phases: Vec<Phase> = fleets.iter().map(|_| Phase::new(stream.len())).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0;
    while k == 0 || Instant::now() < deadline {
        for j in 0..fleets.len() {
            let i = (j + k) % fleets.len();
            phases[i].round(fleets[i].0, entries, stream, fleets[i].1);
        }
        k += 1;
    }
    phases
}

/// Times, beside an op, the layer calls its serving path made inside the
/// fleet: the request fingerprint, and for store hits the artifact
/// decode, the verification decode runs, and the encode that wrote it.
fn measure_side(
    fleet: &FleetService,
    e: &Entry,
    fp: Fingerprint,
    plan: &Plan,
    served: Served,
    side: &mut Side,
) {
    let t = Instant::now();
    std::hint::black_box(e.admitted.fingerprint());
    side.fingerprint_ns += t.elapsed().as_nanos() as u64;
    side.fingerprints += 1;
    if served != Served::Store {
        return;
    }
    let Some((text, _)) = fleet.store().and_then(|s| s.get(&fp)) else {
        return;
    };
    let (graph, cluster) = (e.request.model.graph(), &e.request.cluster);
    let t = Instant::now();
    let decoded = artifact::decode_plan(&text, graph, cluster);
    side.decode_ns += t.elapsed().as_nanos() as u64;
    std::hint::black_box(decoded.is_ok());
    let t = Instant::now();
    std::hint::black_box(verify_plan(graph, cluster, plan).is_clean());
    side.verify_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    std::hint::black_box(artifact::encode_plan(plan, Some(fp)).len());
    side.encode_ns += t.elapsed().as_nanos() as u64;
    side.store_hits += 1;
}

/// Folds a phase's attempts and failures into the outcome.
fn account(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.attempted;
    for p in &phase.problems {
        out.fail(p.clone());
    }
}

/// Requests that should never reach the planner during a measured phase.
fn check_idle_planner(out: &mut Outcome, before: &FleetStats, after: &FleetStats) {
    if after.planner_runs != before.planner_runs || after.misses != before.misses {
        out.fail(format!(
            "planner ran during the measured phase: {} runs, {} misses",
            after.planner_runs - before.planner_runs,
            after.misses - before.misses
        ));
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let entries = catalog(cfg.smoke);
    let stream = stream(&entries, cfg.seed);
    // Set-up is repeated (each fill into a fresh store); only the last
    // fleet is measured. Traced runs report no `setup_s` and fill once.
    let fills = if cfg.trace || cfg.smoke { 1 } else { 5 };
    let mut setups = SetupClock::default();
    let mut filled = setups.time(|| fill(&entries));
    for _ in 1..fills {
        drop(filled);
        filled = setups.time(|| fill(&entries));
    }
    let mut out = Outcome::new(cfg.trace);
    let reports: Vec<SimReport> = entries
        .iter()
        .zip(&filled.plans)
        .map(|(e, plan)| {
            simulate_plan(&e.request.model, &e.request.cluster, plan)
                .expect("served plans simulate")
        })
        .collect();
    out.set_plans(&reports.iter().collect::<Vec<_>>());

    let before = filled.fleet.stats();
    if !cfg.trace {
        let phase = measure(&[(&filled.fleet, false)], &entries, &stream, cfg.seconds)
            .pop()
            .expect("one phase per fleet");
        check_idle_planner(&mut out, &before, &filled.fleet.stats());
        account(&mut out, &phase);
        out.set("setup_s", setups.median_s());
        out.set_latencies(&phase.latencies_ms());
        // This workload trains nothing; 1 marks the metric as not applicable.
        out.set("train_loss_final", 1.0);
        out.notes.push(served_mix(&phase));
        return out;
    }

    // Traced run: the filled fleet and a second fleet with telemetry on,
    // opened on the same store, replay the stream in alternating rounds.
    let traced_fleet = FleetService::start(fleet_config(
        entries.len(),
        filled.dir.0.clone(),
        Telemetry::enabled(),
    ))
    .expect("reopen the artifact store");
    let mut phases = measure(
        &[(&filled.fleet, false), (&traced_fleet, true)],
        &entries,
        &stream,
        cfg.seconds,
    );
    let (traced, untraced) = (
        phases.pop().expect("traced"),
        phases.pop().expect("untraced"),
    );
    let stats = traced_fleet.stats();
    check_idle_planner(&mut out, &before, &filled.fleet.stats());
    check_idle_planner(&mut out, &FleetStats::default(), &stats);
    account(&mut out, &untraced);
    account(&mut out, &traced);

    let positions = stream.len() as f64;
    out.set(
        "fleet.shard_hit_rate",
        traced.count(Served::Cache) as f64 / positions,
    );
    out.set(
        "fleet.store_hit_rate",
        traced.count(Served::Store) as f64 / positions,
    );
    out.set("fleet.misses", stats.misses as f64);
    out.set("fleet.joins", stats.joins as f64);
    out.set("fleet.store_rejects", stats.store_rejects as f64);
    out.set("fleet.shed", (stats.shed + stats.quota_refusals) as f64);
    let serve_us = |s: Served| {
        let us: Vec<f64> = (0..stream.len())
            .filter(|&p| traced.served[p] == s && traced.best_serve_ns[p] != u64::MAX)
            .map(|p| traced.best_serve_ns[p] as f64 / 1e3)
            .collect();
        median(&us)
    };
    out.set("fleet.shard_hit_us_p50", serve_us(Served::Cache));
    out.set("fleet.store_hit_us_p50", serve_us(Served::Store));
    out.set(
        "fleet.fill_queue_wait_ms_p50",
        before.queue_wait.p50 as f64 / 1e6,
    );
    let side = &traced.side;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    out.set(
        "serve.fingerprint_us",
        per(side.fingerprint_ns, side.fingerprints) / 1e3,
    );
    out.set(
        "serve.decode_us",
        per(side.decode_ns, side.store_hits) / 1e3,
    );
    out.set(
        "serve.encode_us",
        per(side.encode_ns, side.store_hits) / 1e3,
    );
    out.set("verify.ms", per(side.verify_ns, side.fingerprints) / 1e6);
    let bytes: Vec<f64> = entries
        .iter()
        .filter_map(|e| traced_fleet.store()?.get(&e.expected))
        .map(|(text, _)| text.len() as f64)
        .collect();
    out.set("serve.artifact_bytes", mean(&bytes));
    let total = |v: &[f64]| v.iter().sum::<f64>();
    out.set(
        "obs.overhead_frac",
        total(&traced.latencies_ms()) / total(&untraced.latencies_ms()) - 1.0,
    );
    let sum_valid = |v: &[u64]| v.iter().filter(|&&ns| ns != u64::MAX).sum::<u64>() as f64;
    out.set(
        "unattributed_frac",
        1.0 - sum_valid(&traced.best_serve_ns) / sum_valid(&traced.best_wall_ns),
    );
    out.notes.push(served_mix(&traced));
    out.notes.push(format!(
        "fleet (traced): {}",
        stats.render().replace('\n', " | ")
    ));
    drop(traced_fleet);
    out
}

fn served_mix(phase: &Phase) -> String {
    format!(
        "stream of {} requests x {} rounds: {} shard hits, {} store hits per round",
        phase.served.len(),
        phase.rounds,
        phase.count(Served::Cache),
        phase.count(Served::Store),
    )
}
