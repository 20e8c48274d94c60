//! The fleet front-end: [`FleetService`] ties the sharded cache, the
//! persistent store, the in-process planner pool, and admission control
//! into one plan-serving surface.
//!
//! # Request path
//!
//! A submitted request walks four levels, cheapest first:
//!
//! 1. **Sharded cache** — an [`Arc<Plan>`] under a per-shard lock, keyed
//!    by fingerprint and graph numbering; no I/O.
//! 2. **Persistent store** — the canonical artifact bytes on disk;
//!    decoding re-validates the plan against this request's model and
//!    cluster, so a corrupt or mismatched artifact degrades to a miss,
//!    never to a wrong answer.
//! 3. **Single-flight join** — a request with the same key already being
//!    planned; the new request subscribes to its result instead of
//!    planning again.
//! 4. **Planner pool** — the miss is queued; a dispatcher plans it on its
//!    in-process worker, which verifies the plan and zeroes its search
//!    stats. The plan is encoded once for the store, cached, and fanned
//!    out.
//!
//! Admission happens before any of this: the tenant's tier rewrites the
//! search options (changing the fingerprint — tier-scoped caching), a
//! quota token is taken, and when the backlog of claimed-but-unfinished
//! misses exceeds the configured depth the request is shed with
//! [`ServeError::Overloaded`] instead of queued into a latency cliff.

use crate::admission::{
    AdmissionConfig, AdmissionControl, AdmissionToken, TenantClass, TenantSpec,
};
use crate::cache::PlanKey;
use crate::lock;
use crate::shard::{ShardStats, ShardedPlanCache};
use crate::store::ArtifactStore;
use crate::worker::{LocalWorker, PlanWorker};
use gp_obs::{ClockHandle, Histogram, HistogramSnapshot, Telemetry};
use gp_partition::{Plan, PlanError};
use gp_serve::{artifact, Fingerprint, PlanRequest, ServeError};
use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

/// How a [`FleetService`] is assembled.
#[derive(Clone)]
pub struct FleetConfig {
    /// Independent cache shards (each with its own lock and LRU budget).
    pub shards: usize,
    /// Total cached plans across all shards.
    pub cache_capacity: usize,
    /// In-process planner workers.
    pub local_workers: usize,
    /// Must stay empty: the fleet plans in-process only, and
    /// [`FleetService::start`] refuses a non-empty list with
    /// [`io::ErrorKind::Unsupported`].
    pub remote_workers: Vec<String>,
    /// Directory for the persistent artifact store; `None` disables it.
    pub store: Option<PathBuf>,
    /// Multi-tenant admission policy.
    pub admission: AdmissionConfig,
    /// Telemetry sink for fleet counters, histograms, and spans.
    pub telemetry: Telemetry,
}

impl FleetConfig {
    /// The minimal preset: one shard of `cache_capacity` plans,
    /// `workers` in-process planner workers, no store, and a
    /// [`Premium`](TenantClass::Premium) default tenant with no quota or
    /// shedding. Admission therefore leaves every request unchanged, and
    /// served plans carry the same fingerprints as planning the request
    /// directly.
    ///
    /// # Panics
    ///
    /// [`FleetService::start`] panics on a zero `cache_capacity`.
    pub fn local(workers: usize, cache_capacity: usize) -> Self {
        FleetConfig {
            shards: 1,
            cache_capacity,
            local_workers: workers,
            remote_workers: Vec::new(),
            store: None,
            admission: AdmissionConfig {
                default_spec: TenantSpec {
                    class: TenantClass::Premium,
                    tokens: None,
                },
                ..AdmissionConfig::default()
            },
            telemetry: Telemetry::disabled(),
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 8,
            cache_capacity: 64,
            local_workers: 2,
            remote_workers: Vec::new(),
            store: None,
            admission: AdmissionConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A fleet-wide counter snapshot plus per-shard detail.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Requests submitted (admitted or not).
    pub requests: u64,
    /// Served straight from a cache shard at submit time.
    pub shard_hits: u64,
    /// Served from the persistent store (decoded + re-validated).
    pub store_hits: u64,
    /// Store artifacts refused (numbering mismatch, corrupt bytes, or a
    /// fingerprint that does not match the request).
    pub store_rejects: u64,
    /// Joined an identical in-flight request.
    pub joins: u64,
    /// Claimed a planner run (queued to the worker pool).
    pub misses: u64,
    /// Refused by admission: tenant quota exhausted.
    pub quota_refusals: u64,
    /// Refused by admission: miss backlog past the configured depth.
    pub shed: u64,
    /// Successful planner runs across all workers.
    pub planner_runs: u64,
    /// Plans currently cached across all shards.
    pub cached_plans: u64,
    /// LRU evictions across all shards.
    pub cache_evictions: u64,
    /// Submit-to-dispatch latency of queued misses (nanoseconds).
    pub queue_wait: HistogramSnapshot,
    /// Planning time of each successful miss on its dispatcher: search
    /// and verification (nanoseconds).
    pub worker_rtt: HistogramSnapshot,
    /// Per-shard counters, in shard order.
    pub shards: Vec<ShardStats>,
}

impl FleetStats {
    /// Fraction of requests served from a cache shard.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shard_hits as f64 / self.requests as f64
        }
    }

    /// Fraction of requests refused by admission (quota or shedding).
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.shed + self.quota_refusals) as f64 / self.requests as f64
        }
    }

    /// A compact multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests {}  shard-hits {}  store-hits {}  joins {}  misses {}\n",
            self.requests, self.shard_hits, self.store_hits, self.joins, self.misses
        ));
        out.push_str(&format!(
            "shed {}  quota-refusals {}  planner-runs {}\n",
            self.shed, self.quota_refusals, self.planner_runs
        ));
        out.push_str(&format!(
            "cached {}  evictions {}  store-rejects {}  hit-rate {:.3}  shed-rate {:.3}\n",
            self.cached_plans,
            self.cache_evictions,
            self.store_rejects,
            self.hit_rate(),
            self.shed_rate()
        ));
        out.push_str(&format!(
            "queue-wait p50/p99/max {}ns/{}ns/{}ns  worker-rtt p50/p99/max {}ns/{}ns/{}ns\n",
            self.queue_wait.p50,
            self.queue_wait.p99,
            self.queue_wait.max,
            self.worker_rtt.p50,
            self.worker_rtt.p99,
            self.worker_rtt.max
        ));
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "shard {i}: hits {}  misses {}  evictions {}  len {}/{}\n",
                s.hits, s.misses, s.evictions, s.len, s.capacity
            ));
        }
        out
    }
}

type Reply = Result<Arc<Plan>, ServeError>;

/// How a ticket was satisfied at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Straight from a cache shard.
    Cache,
    /// Decoded from the persistent store.
    Store,
    /// Subscribed to an identical in-flight request.
    Joined,
    /// Queued to the worker pool.
    Planned,
}

enum TicketBody {
    Ready(Reply),
    Waiting(Receiver<Reply>),
}

/// A pending fleet response. Holds the tenant's admission token for its
/// whole lifetime, so quota counts cover queue and planning time.
#[must_use = "a ticket resolves to the plan; drop it and the answer is lost"]
pub struct FleetTicket {
    fingerprint: Fingerprint,
    served: Served,
    body: TicketBody,
    _token: AdmissionToken,
}

impl FleetTicket {
    /// The request's fingerprint: the wire key, and with the model's
    /// numbering signature the cache and store key.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// How the request was satisfied at submit time.
    pub fn served(&self) -> Served {
        self.served
    }

    /// Whether the response needed no planner work at submit time.
    pub fn served_from_cache(&self) -> bool {
        matches!(self.served, Served::Cache | Served::Store)
    }

    /// Blocks until the plan (or failure) is available.
    ///
    /// # Errors
    ///
    /// The planner's error, or [`ServeError::ServiceStopped`] when the
    /// fleet shut down with the request still queued.
    pub fn wait(self) -> Reply {
        match self.body {
            TicketBody::Ready(reply) => reply,
            TicketBody::Waiting(rx) => match rx.recv() {
                Ok(reply) => reply,
                Err(_) => Err(ServeError::ServiceStopped),
            },
        }
    }
}

struct Job {
    key: PlanKey,
    request: PlanRequest,
    enqueued_ns: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    shard_hits: AtomicU64,
    store_hits: AtomicU64,
    store_rejects: AtomicU64,
    joins: AtomicU64,
    misses: AtomicU64,
    quota_refusals: AtomicU64,
    shed: AtomicU64,
    planner_runs: AtomicU64,
}

struct Shared {
    /// The miss queue. A std channel has one consumer, so the dispatchers
    /// share its receiving end behind a lock (see [`next_job`]).
    jobs: Mutex<Receiver<Job>>,
    cache: ShardedPlanCache,
    store: Option<ArtifactStore>,
    workers: Vec<Box<dyn PlanWorker>>,
    admission: AdmissionControl,
    /// Each planning run's waiters, by cache key.
    inflight: Mutex<BTreeMap<PlanKey, Vec<Sender<Reply>>>>,
    /// Misses claimed but not yet published — the backlog that shedding
    /// bounds (queued plus in-service, so a slow worker counts too).
    backlog: AtomicUsize,
    counters: Counters,
    queue_wait: Histogram,
    worker_rtt: Histogram,
    telemetry: Telemetry,
    clock: ClockHandle,
    stopped: AtomicBool,
}

/// Distributed plan serving over a worker pool.
pub struct FleetService {
    shared: Arc<Shared>,
    job_tx: Option<Sender<Job>>,
    dispatchers: Vec<thread::JoinHandle<()>>,
}

impl FleetService {
    /// Builds the `config.local_workers` in-process workers and starts one
    /// dispatcher thread per worker.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] when `config.remote_workers` is not
    /// empty; the store-open failure, naming the directory, when
    /// `config.store` is set.
    pub fn start(config: FleetConfig) -> io::Result<FleetService> {
        let workers = (0..config.local_workers)
            .map(|i| Box::new(LocalWorker::new(i, config.telemetry.clone())) as Box<dyn PlanWorker>)
            .collect();
        Self::with_workers(config, workers)
    }

    /// Like [`start`](Self::start), with an explicit worker pool (tests
    /// inject gated or failing workers this way). An empty pool gets one
    /// local worker.
    ///
    /// # Errors
    ///
    /// Same as [`start`](Self::start).
    pub fn with_workers(
        config: FleetConfig,
        mut workers: Vec<Box<dyn PlanWorker>>,
    ) -> io::Result<FleetService> {
        if !config.remote_workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "remote planner workers are not supported; plan with local_workers",
            ));
        }
        if workers.is_empty() {
            workers.push(Box::new(LocalWorker::new(0, config.telemetry.clone())));
        }
        let store = match &config.store {
            Some(dir) => Some(ArtifactStore::open(dir).map_err(|e| {
                io::Error::new(e.kind(), format!("artifact store {}: {e}", dir.display()))
            })?),
            None => None,
        };
        let (job_tx, jobs) = mpsc::channel::<Job>();
        let shared = Arc::new(Shared {
            jobs: Mutex::new(jobs),
            cache: ShardedPlanCache::new(config.shards, config.cache_capacity),
            store,
            workers,
            admission: AdmissionControl::new(config.admission.clone()),
            inflight: Mutex::new(BTreeMap::new()),
            backlog: AtomicUsize::new(0),
            counters: Counters::default(),
            queue_wait: Histogram::default(),
            worker_rtt: Histogram::default(),
            telemetry: config.telemetry.clone(),
            clock: ClockHandle::default(),
            stopped: AtomicBool::new(false),
        });
        let dispatchers = (0..shared.workers.len())
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gp-fleet-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&shared, i))
                    .expect("spawn fleet dispatcher")
            })
            .collect();
        Ok(FleetService {
            shared,
            job_tx: Some(job_tx),
            dispatchers,
        })
    }

    /// Submits a request on behalf of `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when admission refuses the request
    /// (quota or backlog), [`ServeError::ServiceStopped`] after
    /// [`shutdown`](Self::shutdown).
    pub fn submit(&self, tenant: &str, request: PlanRequest) -> Result<FleetTicket, ServeError> {
        let shared = &self.shared;
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if shared.stopped.load(Ordering::Acquire) {
            return Err(ServeError::ServiceStopped);
        }
        let mut request = request;
        let token = match shared.admission.admit(tenant, &mut request.options) {
            Ok(token) => token,
            Err(refused) => {
                shared
                    .counters
                    .quota_refusals
                    .fetch_add(1, Ordering::Relaxed);
                shared.telemetry.counter_add("fleet.shed", 1);
                return Err(ServeError::Overloaded {
                    tenant: refused.tenant,
                    depth: refused.in_flight,
                });
            }
        };
        let fingerprint = request.fingerprint();
        let numbering = request.model.numbering_signature();

        // Level 1: the sharded cache.
        if let Some(plan) = shared.cache.get(&fingerprint, numbering) {
            shared.counters.shard_hits.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("fleet.shard_hits", 1);
            return Ok(FleetTicket {
                fingerprint,
                served: Served::Cache,
                body: TicketBody::Ready(Ok(plan)),
                _token: token,
            });
        }
        shared.telemetry.counter_add("fleet.shard_misses", 1);

        // Level 2: the persistent store. Decoding validates against this
        // request's model and cluster, so anything stale or corrupt is a
        // reject, not a wrong answer. Two racing submits may both decode
        // the same artifact; the duplicate insert is byte-identical.
        if let Some(plan) = self.consult_store(&request, fingerprint) {
            return Ok(FleetTicket {
                fingerprint,
                served: Served::Store,
                body: TicketBody::Ready(Ok(plan)),
                _token: token,
            });
        }

        // Levels 3 and 4 under the in-flight lock.
        let (tx, rx) = mpsc::channel::<Reply>();
        let mut inflight = lock(&shared.inflight);
        // Double-check: a dispatcher may have published between the cache
        // miss above and taking this lock (publish holds the same lock).
        if let Some(plan) = shared.cache.peek(&fingerprint, numbering) {
            shared.counters.shard_hits.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("fleet.shard_hits", 1);
            return Ok(FleetTicket {
                fingerprint,
                served: Served::Cache,
                body: TicketBody::Ready(Ok(plan)),
                _token: token,
            });
        }
        let key = (fingerprint, numbering);
        if let Some(waiters) = inflight.get_mut(&key) {
            waiters.push(tx);
            shared.counters.joins.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("fleet.joins", 1);
            return Ok(FleetTicket {
                fingerprint,
                served: Served::Joined,
                body: TicketBody::Waiting(rx),
                _token: token,
            });
        }
        // Claimant: shed before claiming, so joiners of existing work are
        // never refused (they cost no extra planner time).
        let backlog = shared.backlog.load(Ordering::Acquire);
        if let Some(max) = shared.admission.config().max_queue_depth {
            if backlog > max {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                shared.telemetry.counter_add("fleet.shed", 1);
                return Err(ServeError::Overloaded {
                    tenant: tenant.to_string(),
                    depth: backlog,
                });
            }
        }
        shared.backlog.fetch_add(1, Ordering::AcqRel);
        shared.counters.misses.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("fleet.misses", 1);
        let job = Job {
            key,
            request,
            enqueued_ns: shared.clock.now_nanos(),
        };
        inflight.insert(key, vec![tx]);
        drop(inflight);
        if let Some(job_tx) = &self.job_tx {
            if job_tx.send(job).is_err() {
                // Dispatchers are gone; unpublish the claim.
                lock(&self.shared.inflight).remove(&key);
                shared.backlog.fetch_sub(1, Ordering::AcqRel);
                return Err(ServeError::ServiceStopped);
            }
        }
        Ok(FleetTicket {
            fingerprint,
            served: Served::Planned,
            body: TicketBody::Waiting(rx),
            _token: token,
        })
    }

    fn consult_store(&self, request: &PlanRequest, fingerprint: Fingerprint) -> Option<Arc<Plan>> {
        let shared = &self.shared;
        let numbering = request.model.numbering_signature();
        let (text, stored_numbering) = shared.store.as_ref()?.get(&fingerprint)?;
        let decoded = (stored_numbering == numbering)
            .then(|| artifact::decode_plan(&text, request.model.graph(), &request.cluster))
            .and_then(Result::ok);
        let Some((plan, _)) = decoded.filter(|(_, fp)| *fp == Some(fingerprint)) else {
            shared
                .counters
                .store_rejects
                .fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("fleet.store_rejects", 1);
            return None;
        };
        let plan = Arc::new(plan);
        shared
            .cache
            .insert(fingerprint, Arc::clone(&plan), numbering);
        shared.counters.store_hits.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("fleet.store_hits", 1);
        Some(plan)
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> FleetStats {
        let c = &self.shared.counters;
        FleetStats {
            requests: c.requests.load(Ordering::Relaxed),
            shard_hits: c.shard_hits.load(Ordering::Relaxed),
            store_hits: c.store_hits.load(Ordering::Relaxed),
            store_rejects: c.store_rejects.load(Ordering::Relaxed),
            joins: c.joins.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            quota_refusals: c.quota_refusals.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            planner_runs: c.planner_runs.load(Ordering::Relaxed),
            cached_plans: self.shared.cache.len() as u64,
            cache_evictions: self.shared.cache.evictions(),
            queue_wait: self.shared.queue_wait.snapshot(),
            worker_rtt: self.shared.worker_rtt.snapshot(),
            shards: self.shared.cache.stats(),
        }
    }

    /// The persistent store, when configured.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.shared.store.as_ref()
    }

    /// Stops accepting requests, drains queued work, and joins the
    /// dispatchers. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stopped.store(true, Ordering::Release);
        // Dropping the sender ends the dispatchers' recv loop once the
        // queue drains; queued jobs still publish normally.
        self.job_tx = None;
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Takes the next job off the shared queue, blocking while it is empty;
/// fails once the queue is drained and its sender is gone. The guard lives
/// only inside this call: held through a dispatcher's loop body, it would
/// let one dispatcher plan at a time.
fn next_job<T>(queue: &Mutex<Receiver<T>>) -> Result<T, RecvError> {
    lock(queue).recv()
}

fn dispatcher_loop(shared: &Shared, worker_index: usize) {
    while let Ok(job) = next_job(&shared.jobs) {
        let wait_ns = shared.clock.now_nanos().saturating_sub(job.enqueued_ns);
        shared.queue_wait.record(wait_ns);
        shared.telemetry.record("fleet.queue_wait_ns", wait_ns);
        let span = shared.telemetry.span("fleet.dispatch");
        let outcome = plan_on(shared, &*shared.workers[worker_index], &job.request);
        drop(span);
        publish(shared, &job, outcome);
        shared.backlog.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Plans a request on `worker`. A panicking planner fails this request
/// like any planner error: every waiter gets the error and the dispatcher
/// keeps serving.
fn plan_on(
    shared: &Shared,
    worker: &dyn PlanWorker,
    request: &PlanRequest,
) -> Result<Arc<Plan>, ServeError> {
    let start_ns = shared.clock.now_nanos();
    let plan = panic::catch_unwind(AssertUnwindSafe(|| worker.plan(request))).unwrap_or_else(
        |payload| {
            Err(ServeError::Plan(PlanError::Internal(format!(
                "worker {} panicked: {}",
                worker.describe(),
                panic_message(payload.as_ref())
            ))))
        },
    )?;
    let elapsed = shared.clock.now_nanos().saturating_sub(start_ns);
    shared.worker_rtt.record(elapsed);
    shared.telemetry.record("fleet.worker_rtt_ns", elapsed);
    shared.counters.planner_runs.fetch_add(1, Ordering::Relaxed);
    Ok(Arc::new(plan))
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Persists and caches a planning run's plan, then answers every waiter.
/// The in-flight lock is held until the plan is cached, so puts stay
/// serialized and a submit that missed the cache still finds the flight.
fn publish(shared: &Shared, job: &Job, outcome: Reply) {
    let (fingerprint, numbering) = job.key;
    // The worker zeroed the search stats, so this is the canonical
    // artifact; it is encoded before the lock is taken.
    let stored = shared
        .store
        .as_ref()
        .zip(outcome.as_ref().ok())
        .map(|(store, plan)| (store, artifact::encode_plan(plan, Some(fingerprint))));
    let mut inflight = lock(&shared.inflight);
    let waiters = inflight.remove(&job.key).unwrap_or_default();
    if let Some((store, text)) = &stored {
        // Persisting is best-effort: a full disk must not fail the
        // request, only the warm restart.
        let _ = store.put(fingerprint, text, numbering);
    }
    if let Ok(plan) = &outcome {
        shared
            .cache
            .insert(fingerprint, Arc::clone(plan), numbering);
    }
    drop(inflight);
    for tx in waiters {
        let _ = tx.send(outcome.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig};
    use gp_partition::PlanOptions;
    use gp_serve::ServePlanner;
    use std::sync::{Condvar, PoisonError};
    use std::time::Duration;

    fn candle(mini_batch: u64) -> PlanRequest {
        PlanRequest::new(
            Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())),
            Cluster::summit_like(4),
            mini_batch,
        )
    }

    fn request() -> PlanRequest {
        candle(32)
    }

    fn other_request() -> PlanRequest {
        PlanRequest::new(
            Arc::new(zoo::dlrm(&DlrmConfig::tiny())),
            Cluster::summit_like(4),
            64,
        )
    }

    fn local(workers: usize, cache_capacity: usize) -> FleetService {
        FleetService::start(FleetConfig::local(workers, cache_capacity)).unwrap()
    }

    fn plan(service: &FleetService, request: PlanRequest) -> Reply {
        service.submit("t", request)?.wait()
    }

    /// A worker that plans only after a release message, so a test can
    /// hold a planning run open while it submits more requests.
    struct Gate<W>(Mutex<Receiver<()>>, W);

    impl<W: PlanWorker> PlanWorker for Gate<W> {
        fn describe(&self) -> String {
            "gate".into()
        }
        fn plan(&self, request: &PlanRequest) -> Result<Plan, ServeError> {
            let _ = lock(&self.0).recv();
            self.1.plan(request)
        }
    }

    fn gated(config: FleetConfig) -> (FleetService, Sender<()>) {
        gated_over(config, LocalWorker::new(0, Telemetry::disabled()))
    }

    fn gated_over(
        config: FleetConfig,
        worker: impl PlanWorker + 'static,
    ) -> (FleetService, Sender<()>) {
        let (release, gate) = mpsc::channel::<()>();
        let worker = Gate(Mutex::new(gate), worker);
        let service = FleetService::with_workers(config, vec![Box::new(worker)]).unwrap();
        (service, release)
    }

    /// Waits for `ticket` on another thread, so a ticket that never
    /// resolves fails the test instead of hanging it.
    fn wait_or_fail(ticket: FleetTicket) -> Reply {
        let (done, reply) = mpsc::channel();
        thread::spawn(move || done.send(ticket.wait()));
        reply
            .recv_timeout(Duration::from_secs(30))
            .expect("the ticket never resolved")
    }

    #[test]
    fn plans_then_serves_from_the_shard_cache() {
        let service = FleetService::with_workers(FleetConfig::default(), Vec::new()).unwrap();
        let first = service.submit("t", request()).unwrap();
        assert_eq!(first.served(), Served::Planned);
        let plan = first.wait().expect("plans");
        let second = service.submit("t", request()).unwrap();
        assert_eq!(second.served(), Served::Cache);
        assert!(Arc::ptr_eq(&second.wait().unwrap(), &plan));
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.shard_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.planner_runs, 1);
        assert!(stats.queue_wait.count >= 1);
        assert!(stats.worker_rtt.count >= 1);
    }

    #[test]
    fn quota_exhaustion_is_overloaded() {
        let config = FleetConfig {
            admission: AdmissionConfig {
                tenants: vec![(
                    "acme".into(),
                    TenantSpec {
                        class: TenantClass::Premium,
                        tokens: Some(1),
                    },
                )],
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        };
        let (service, release) = gated(config);
        let held = service.submit("acme", request()).unwrap();
        match service.submit("acme", other_request()) {
            Err(ServeError::Overloaded { tenant, depth }) => {
                assert_eq!(tenant, "acme");
                assert_eq!(depth, 1);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|t| t.served())),
        }
        release.send(()).unwrap();
        held.wait().expect("gated plan completes");
        assert_eq!(service.stats().quota_refusals, 1);
        // Token released: the tenant can submit again.
        release.send(()).unwrap();
        service
            .submit("acme", other_request())
            .unwrap()
            .wait()
            .expect("second request after release");
    }

    #[test]
    fn deep_backlog_sheds_new_misses_but_not_joins() {
        let config = FleetConfig {
            admission: AdmissionConfig {
                max_queue_depth: Some(0),
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        };
        let (service, release) = gated(config);
        let first = service.submit("t", request()).unwrap();
        // Backlog is now 1 (> 0): a *different* request is shed...
        match service.submit("t", other_request()) {
            Err(ServeError::Overloaded { depth, .. }) => assert_eq!(depth, 1),
            other => panic!("expected shed, got {:?}", other.map(|t| t.served())),
        }
        // ...but an identical one joins the in-flight planning run.
        let joined = service.submit("t", request()).unwrap();
        assert_eq!(joined.served(), Served::Joined);
        release.send(()).unwrap();
        let plan = first.wait().unwrap();
        assert!(Arc::ptr_eq(&joined.wait().unwrap(), &plan));
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.joins, 1);
    }

    #[test]
    fn remote_workers_are_unsupported() {
        let config = FleetConfig {
            remote_workers: vec!["127.0.0.1:7070".into()],
            ..FleetConfig::local(1, 8)
        };
        let err = FleetService::start(config).err().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
    }

    #[test]
    fn stopped_service_refuses_new_requests() {
        let mut service = FleetService::with_workers(FleetConfig::default(), Vec::new()).unwrap();
        service.shutdown();
        assert_eq!(
            service.submit("t", request()).err(),
            Some(ServeError::ServiceStopped)
        );
    }

    #[test]
    fn tenant_tiers_produce_distinct_cache_entries() {
        let config = FleetConfig {
            admission: AdmissionConfig {
                tenants: vec![
                    (
                        "cheap".into(),
                        TenantSpec {
                            class: TenantClass::Batch,
                            tokens: None,
                        },
                    ),
                    (
                        "rich".into(),
                        TenantSpec {
                            class: TenantClass::Premium,
                            tokens: None,
                        },
                    ),
                ],
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        };
        let service = FleetService::with_workers(config, Vec::new()).unwrap();
        let cheap = service.submit("cheap", request()).unwrap();
        let rich = service.submit("rich", request()).unwrap();
        assert_ne!(
            cheap.fingerprint(),
            rich.fingerprint(),
            "tier rewrite must scope the cache key"
        );
        cheap.wait().expect("batch-tier plan");
        rich.wait().expect("premium-tier plan");
        assert_eq!(service.stats().misses, 2);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service = local(2, 8);
        let a = plan(&service, request()).unwrap();
        let b = plan(&service, request()).unwrap();
        assert_eq!(a, b);
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.planner_runs, 1);
        assert_eq!(stats.shard_hits, 1);
        assert_eq!(stats.misses, 1);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn distinct_requests_plan_separately() {
        let service = local(2, 8);
        let a = plan(&service, candle(32)).unwrap();
        let b = plan(&service, candle(16)).unwrap();
        assert_ne!(a.stage_graph.mini_batch(), b.stage_graph.mini_batch());
        let stats = service.stats();
        assert_eq!(stats.planner_runs, 2);
        assert_eq!(stats.shard_hits, 0);
    }

    #[test]
    fn concurrent_identical_requests_run_the_planner_once() {
        // More submitters than workers, all identical: single-flight must
        // collapse them into exactly one planner execution.
        let service = local(4, 8);
        let tickets: Vec<FleetTicket> = (0..64)
            .map(|_| service.submit("t", request()).unwrap())
            .collect();
        let plans: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        for w in plans.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 64);
        assert_eq!(stats.planner_runs, 1, "single-flight failed: {stats:?}");
        assert_eq!(stats.shard_hits + stats.joins, 63);
    }

    #[test]
    fn planner_failures_propagate_to_all_waiters() {
        // A mini-batch no micro-batch candidate divides -> planner error.
        let bad = || {
            request().with_options(PlanOptions {
                micro_batch_candidates: Some(vec![7]),
                ..PlanOptions::default()
            })
        };
        let (service, release) = gated(FleetConfig::local(1, 8));
        let t1 = service.submit("t", bad()).unwrap();
        let t2 = service.submit("t", bad()).unwrap();
        assert_eq!(t2.served(), Served::Joined);
        release.send(()).unwrap();
        assert!(matches!(t1.wait(), Err(ServeError::Plan(_))));
        assert!(matches!(t2.wait(), Err(ServeError::Plan(_))));
        // Errors are not cached: a retry plans (and fails) again.
        let t3 = service.submit("t", bad()).unwrap();
        assert_eq!(t3.served(), Served::Planned);
        release.send(()).unwrap();
        assert!(matches!(t3.wait(), Err(ServeError::Plan(_))));
        let stats = service.stats();
        assert_eq!(stats.cached_plans, 0);
        assert_eq!((stats.misses, stats.joins, stats.planner_runs), (2, 1, 0));
    }

    #[test]
    fn tickets_expose_fingerprint_and_cache_flag() {
        let service = local(1, 8);
        let t1 = service.submit("t", request()).unwrap();
        let fp = t1.fingerprint();
        // The local preset's admission leaves the request unchanged.
        assert_eq!(fp, request().fingerprint());
        assert!(!t1.served_from_cache());
        t1.wait().unwrap();
        let t2 = service.submit("t", request()).unwrap();
        assert_eq!(t2.fingerprint(), fp);
        assert!(t2.served_from_cache());
        t2.wait().unwrap();
    }

    #[test]
    fn baseline_planners_are_servable() {
        let service = local(2, 8);
        let gp = plan(&service, request()).unwrap();
        let pd = plan(&service, request().with_planner(ServePlanner::PipeDream)).unwrap();
        // Different planner => different fingerprint => both planned.
        assert!(pd.pipeline_depth() >= gp.pipeline_depth());
        assert_eq!(service.stats().planner_runs, 2);
    }

    #[test]
    fn eviction_forces_a_replan() {
        let service = local(1, 1);
        plan(&service, candle(32)).unwrap();
        plan(&service, candle(16)).unwrap(); // evicts the first plan
        plan(&service, candle(32)).unwrap(); // must re-plan
        let stats = service.stats();
        assert_eq!(stats.planner_runs, 3);
        assert_eq!(stats.cache_evictions, 2);
    }

    #[test]
    fn renumbered_isomorphic_model_gets_its_own_plan() {
        use gp_ir::{GraphBuilder, OpKind, Shape, SpBlock, SpModel};
        // The same asymmetric diamond built in two insertion orders: equal
        // fingerprints, permuted OpIds. Serving A's cached plan to B would
        // assign B's operators to the wrong stages; the numbering is part
        // of the cache key, so B is a miss that plans for real and both
        // plans stay cached side by side.
        let diamond = |swap: bool| {
            let mut b = GraphBuilder::new();
            let x = b.input("x", Shape::vector(64));
            let (p, q) = if swap {
                let q = b.linear("q", x, 64, false).unwrap();
                let p = b.linear("p", x, 64, true).unwrap();
                (p, q)
            } else {
                let p = b.linear("p", x, 64, true).unwrap();
                let q = b.linear("q", x, 64, false).unwrap();
                (p, q)
            };
            let cat = b.op("cat", OpKind::Concat, &[p, q]).unwrap();
            let loss = b.loss("loss", &[cat]);
            let root = SpBlock::Chain(vec![
                SpBlock::Leaf(x),
                SpBlock::Branches(vec![SpBlock::Leaf(p), SpBlock::Leaf(q)]),
                SpBlock::Leaf(cat),
                SpBlock::Leaf(loss),
            ]);
            Arc::new(SpModel::new("diamond", b.finish().unwrap(), root).unwrap())
        };
        let (a, b) = (diamond(false), diamond(true));
        let cluster = Cluster::summit_like(2);
        let req = |m: &Arc<SpModel>| PlanRequest::new(Arc::clone(m), cluster.clone(), 16);
        assert_eq!(req(&a).fingerprint(), req(&b).fingerprint());

        let service = local(1, 8);
        let plan_a = plan(&service, req(&a)).unwrap();
        let plan_b = plan(&service, req(&b)).unwrap();
        // Both plans must be valid for their own graph's numbering.
        for (plan, model) in [(&plan_a, &a), (&plan_b, &b)] {
            gp_verify::verify_strategy(model, &cluster, plan)
                .into_result()
                .unwrap();
        }
        for (model, planned) in [(&a, &plan_a), (&b, &plan_b)] {
            let repeat = service.submit("t", req(model)).unwrap();
            assert_eq!(repeat.served(), Served::Cache);
            assert!(Arc::ptr_eq(&repeat.wait().unwrap(), planned));
        }
        let stats = service.stats();
        assert_eq!(stats.planner_runs, 2, "{stats:?}");
    }

    #[test]
    fn stats_display_mentions_hit_rate() {
        let service = local(1, 4);
        plan(&service, request()).unwrap();
        plan(&service, request()).unwrap();
        let text = service.stats().render();
        assert!(text.contains("hit-rate 0.500"), "{text}");
        assert!(text.contains("planner-runs 1"), "{text}");
    }

    #[test]
    fn planner_panics_fail_every_waiter_and_spare_the_dispatcher() {
        /// A local worker with a planner bug: it panics on mini-batch 16.
        struct Panicky(LocalWorker);

        impl PlanWorker for Panicky {
            fn describe(&self) -> String {
                "panicky".into()
            }
            fn plan(&self, request: &PlanRequest) -> Result<Plan, ServeError> {
                assert_ne!(request.mini_batch, 16, "planner bug");
                self.0.plan(request)
            }
        }

        let worker = Panicky(LocalWorker::new(0, Telemetry::disabled()));
        let (service, release) = gated_over(FleetConfig::local(1, 8), worker);
        let first = service.submit("t", candle(16)).unwrap();
        let joined = service.submit("t", candle(16)).unwrap();
        assert_eq!(joined.served(), Served::Joined);
        release.send(()).unwrap();
        for ticket in [first, joined] {
            match wait_or_fail(ticket) {
                Err(ServeError::Plan(PlanError::Internal(why))) => {
                    assert!(why.contains("panicked: "), "{why}");
                    assert!(why.contains("planner bug"), "{why}");
                }
                other => panic!("expected the panic as an internal error, got {other:?}"),
            }
        }
        // The one dispatcher survived the panic and serves the next miss.
        release.send(()).unwrap();
        let next = service.submit("t", candle(32)).unwrap();
        wait_or_fail(next).expect("the dispatcher keeps serving");
        assert_eq!(service.stats().planner_runs, 1);
    }

    #[test]
    fn dispatchers_plan_concurrently() {
        /// Enters `plan`, then waits until both workers of the pool are
        /// inside `plan`. If the dispatchers took turns, the first would
        /// time out alone and fail its request.
        struct Rendezvous {
            inside: Arc<(Mutex<usize>, Condvar)>,
            worker: LocalWorker,
        }

        impl PlanWorker for Rendezvous {
            fn describe(&self) -> String {
                "rendezvous".into()
            }
            fn plan(&self, request: &PlanRequest) -> Result<Plan, ServeError> {
                let (count, changed) = &*self.inside;
                let mut inside = lock(count);
                *inside += 1;
                changed.notify_all();
                let (inside, wait) = changed
                    .wait_timeout_while(inside, Duration::from_secs(20), |n| *n < 2)
                    .unwrap_or_else(PoisonError::into_inner);
                drop(inside);
                if wait.timed_out() {
                    return Err(ServeError::Plan(PlanError::Internal(
                        "planned alone".into(),
                    )));
                }
                self.worker.plan(request)
            }
        }

        let inside = Arc::new((Mutex::new(0), Condvar::new()));
        let workers: Vec<Box<dyn PlanWorker>> = (0..2)
            .map(|i| {
                Box::new(Rendezvous {
                    inside: Arc::clone(&inside),
                    worker: LocalWorker::new(i, Telemetry::disabled()),
                }) as Box<dyn PlanWorker>
            })
            .collect();
        let service = FleetService::with_workers(FleetConfig::local(2, 8), workers).unwrap();
        let a = service.submit("t", request()).unwrap();
        let b = service.submit("t", other_request()).unwrap();
        a.wait().expect("both dispatchers were planning at once");
        b.wait().expect("both dispatchers were planning at once");
        assert_eq!(service.stats().planner_runs, 2);
    }

    #[test]
    fn last_sender_drop_always_wakes_a_blocked_receiver() {
        // The dispatchers' queue: a receiver behind a `Mutex`, parked in
        // `recv` by `next_job`. Race the last sender's drop against a
        // receiver entering `recv` on an empty queue, many times. A lost
        // wakeup parks the receiver forever; the `recv_timeout` guard
        // turns that into a failure instead of a hung test.
        let (handoff, queues) = mpsc::channel::<Mutex<Receiver<()>>>();
        let (ack, acks) = mpsc::channel();
        let receiver = thread::spawn(move || {
            for queue in queues {
                ack.send(next_job(&queue)).unwrap();
            }
        });
        for i in 0..50_000u32 {
            let (tx, rx) = mpsc::channel::<()>();
            handoff.send(Mutex::new(rx)).unwrap();
            for _ in 0..i % 64 {
                std::hint::spin_loop();
            }
            drop(tx);
            let woke = acks.recv_timeout(Duration::from_secs(2));
            assert_eq!(
                woke,
                Ok(Err(RecvError)),
                "receiver missed the wakeup at race {i}"
            );
        }
        drop(handoff);
        receiver.join().unwrap();
    }
}
