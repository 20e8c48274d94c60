//! The typed `Session` entry point: one handle from model to plan,
//! simulation, execution, artifact, and serving.
//!
//! GraphPipe's pipeline is end-to-end — partition a graph, schedule
//! micro-batches, run the strategy — and this module is the single seam
//! that exposes it that way. A [`Session`] pins the planning problem
//! (`model × cluster × mini-batch × options`); its methods return typed
//! artifacts instead of loose tuples:
//!
//! * [`Session::plan`] → a [`PlannedStrategy`] (an [`Arc<Plan>`] plus the
//!   canonical `gp-serve` request [`Fingerprint`]), which knows how to
//!   [`simulate`](PlannedStrategy::simulate) itself on the timing
//!   substitute, [`execute`](PlannedStrategy::execute) itself on the
//!   threaded `gp-exec` runtime, and persist itself as a lossless
//!   [`artifact`](PlannedStrategy::artifact);
//! * [`Session::evaluate`] → the Appendix A.2 micro-batch sweep (the one
//!   copy of the plan→simulate selection loop);
//! * [`Session::compare`] → a [`Comparison`] that renders the
//!   Figure-6-style planner table the bench harness builds on;
//! * [`Session::serve_fleet`] → a [`SessionFleet`] that hands the *same*
//!   [`PlanRequest`] to `gp-fleet`'s cached, single-flight
//!   [`FleetService`], so local and served plans share one fingerprint and
//!   one validation story ([`FleetConfig::local`] is the minimal preset).
//!
//! # Examples
//!
//! ```
//! use graphpipe::prelude::*;
//!
//! let session = Session::builder()
//!     .model(zoo::mmt(&zoo::MmtConfig::two_branch()))
//!     .cluster(Cluster::summit_like(4))
//!     .mini_batch(64)
//!     .build()?;
//! let strategy = session.plan(PlannerKind::GraphPipe)?;
//! assert!(strategy.simulate()?.throughput > 0.0);
//! # Ok::<(), graphpipe::Error>(())
//! ```

use crate::error::Error;
use crate::PlannerKind;
use gp_baselines::PiperPlanner;
use gp_cluster::Cluster;
use gp_exec::{reference_step, synth_batch, ModelParams};
use gp_fleet::{FleetConfig, FleetService, FleetStats};
use gp_ir::{plan_dag, DagOptions, Graph, PlanPath, SpModel};
use gp_obs::Telemetry;
use gp_partition::{Plan, PlanError, PlanOptions, Planner};
use gp_serve::{artifact, Fingerprint, PlanRequest};
use gp_sim::{SimOptions, SimReport};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Operator-cluster granularity [`Session::compare`] charges Piper's
/// end-to-end column at (Figure 6 / the bench harness). Piper's downset DP
/// is exponential in unit count, so the throughput comparison coarsens
/// operators into ~8-op units; Table 1 times Piper at unit granularity
/// separately. [`Session::plan`] and [`Session::evaluate`] always run the
/// raw planner.
pub const PIPER_COMPARE_UNIT_OPS: usize = 8;

/// Simulates one training iteration of a plan on its cluster — the one
/// copy of the plan→simulate wiring behind [`PlannedStrategy::simulate`]
/// and the free [`crate::simulate_plan`].
pub(crate) fn simulate_on(
    model: &SpModel,
    cluster: &Cluster,
    plan: &Plan,
    telemetry: &Telemetry,
) -> Result<SimReport, Error> {
    // Debug builds statically verify every plan handed to the simulator,
    // so a strategy that violates a §3 invariant is caught by name here
    // rather than surfacing as a simulator panic or bogus timings.
    #[cfg(debug_assertions)]
    {
        let report = gp_verify::verify_plan(model.graph(), cluster, plan);
        debug_assert!(report.is_clean(), "simulating an invalid plan: {report}");
    }
    gp_sim::simulate_traced(
        model.graph(),
        cluster,
        &plan.stage_graph,
        &plan.schedule,
        &SimOptions::default(),
        telemetry,
    )
    .map_err(Error::from)
}

/// Builder for a [`Session`]; obtained from [`Session::builder`].
///
/// `model`, `cluster`, and `mini_batch` are required; `options` defaults
/// to [`PlanOptions::default`]. [`SessionBuilder::build`] validates the
/// combination and returns [`Error::Invalid`] on misuse instead of
/// panicking later.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    model: Option<Arc<SpModel>>,
    dag: Option<(String, Graph)>,
    cluster: Option<Cluster>,
    mini_batch: Option<u64>,
    options: PlanOptions,
    telemetry: Telemetry,
}

impl SessionBuilder {
    /// Sets the model to plan for (an owned [`SpModel`] or an existing
    /// [`Arc<SpModel>`] — sessions share the model, never copy it).
    pub fn model(mut self, model: impl Into<Arc<SpModel>>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Sets the model from a raw computation [`Graph`] — no hand-authored
    /// SP tree required. [`SessionBuilder::build`] runs the `gp-ir` DAG
    /// ladder (`plan_dag`): exact SP recognition, then SP-ization within
    /// the distortion budget, then the Piper-style clustering fallback.
    /// Which rung was taken is reported by
    /// [`PlannedStrategy::plan_path`] and rides every fingerprint and
    /// artifact. Mutually exclusive with [`SessionBuilder::model`].
    ///
    /// The model is named after the DAG ladder (`"dag"`); to control the
    /// name, call [`gp_ir::plan_dag`] directly and pass the result to
    /// [`SessionBuilder::model`].
    pub fn model_dag(mut self, graph: Graph) -> Self {
        self.dag = Some(("dag".to_string(), graph));
        self
    }

    /// Sets the target cluster.
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Sets the global mini-batch size (samples per training iteration).
    pub fn mini_batch(mut self, mini_batch: u64) -> Self {
        self.mini_batch = Some(mini_batch);
        self
    }

    /// Replaces the planner search options.
    pub fn options(mut self, options: PlanOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a [`Telemetry`] handle: every plan, sweep, simulation, and
    /// execution run through the session records spans and metrics into
    /// it (defaults to [`Telemetry::disabled`], which costs nothing).
    ///
    /// Telemetry is strictly write-only — plans, reports, fingerprints,
    /// and artifacts are byte-identical with it enabled or disabled
    /// (`tests/observability.rs` holds this line).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Validates the configuration and produces the [`Session`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when `model`, `cluster`, or `mini_batch`
    /// is missing, when `mini_batch` is zero, when both
    /// [`SessionBuilder::model`] and [`SessionBuilder::model_dag`] were
    /// set, or when a `model_dag` graph fails validation.
    pub fn build(self) -> Result<Session, Error> {
        let model = match (self.model, self.dag) {
            (Some(_), Some(_)) => {
                return Err(Error::Invalid(
                    "set either model() or model_dag(), not both".into(),
                ))
            }
            (Some(model), None) => model,
            (None, Some((name, graph))) => Arc::new(
                plan_dag(name, graph, &DagOptions::default())
                    .map_err(|e| Error::Invalid(format!("model DAG is invalid: {e}")))?,
            ),
            (None, None) => return Err(Error::Invalid("session has no model".into())),
        };
        let cluster = self
            .cluster
            .ok_or_else(|| Error::Invalid("session has no cluster".into()))?;
        let mini_batch = self
            .mini_batch
            .ok_or_else(|| Error::Invalid("session has no mini-batch size".into()))?;
        if mini_batch == 0 {
            return Err(Error::Invalid("mini-batch size must be positive".into()));
        }
        Ok(Session {
            model,
            cluster,
            mini_batch,
            options: self.options,
            telemetry: self.telemetry,
        })
    }
}

/// A pinned planning problem: `model × cluster × mini-batch × options`.
///
/// The session is cheap to clone (the model is shared behind an [`Arc`])
/// and immutable once built, so every method is `&self` and concurrent use
/// is free. See the [module docs](self) for the method tour.
///
/// # Examples
///
/// ```
/// use graphpipe::prelude::*;
///
/// let session = Session::builder()
///     .model(zoo::mmt(&zoo::MmtConfig::two_branch()))
///     .cluster(Cluster::summit_like(4))
///     .mini_batch(64)
///     .options(PlanOptions::default().with_max_micro_batches(16))
///     .build()?;
/// let strategy = session.plan(PlannerKind::GraphPipe)?;
/// assert_eq!(strategy.fingerprint(), session.request(PlannerKind::GraphPipe).fingerprint());
/// # Ok::<(), graphpipe::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    model: Arc<SpModel>,
    cluster: Cluster,
    mini_batch: u64,
    options: PlanOptions,
    telemetry: Telemetry,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The model this session plans for.
    pub fn model(&self) -> &Arc<SpModel> {
        &self.model
    }

    /// The target cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The global mini-batch size.
    pub fn mini_batch(&self) -> u64 {
        self.mini_batch
    }

    /// The planner search options in effect.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// The telemetry handle session operations record into
    /// ([`Telemetry::disabled`] unless [`SessionBuilder::telemetry`] set
    /// one) — export its spans and metrics with [`Telemetry::export`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The canonical `gp-serve` [`PlanRequest`] for this session and
    /// planner choice. [`Session::plan`] and [`SessionFleet::plan`] both
    /// derive their fingerprints from this exact request, which is what
    /// keeps local and served plans cache-compatible.
    pub fn request(&self, kind: PlannerKind) -> PlanRequest {
        self.request_with(kind, self.options.clone())
    }

    /// [`Session::request`] with the search options replaced — the request
    /// form [`Session::evaluate`] keys its winning strategy by (the
    /// session options with the winning micro-batch size forced).
    pub fn request_with(&self, kind: PlannerKind, options: PlanOptions) -> PlanRequest {
        PlanRequest::new(
            Arc::clone(&self.model),
            self.cluster.clone(),
            self.mini_batch,
        )
        .with_options(options)
        .with_planner(kind)
    }

    fn wrap(&self, kind: PlannerKind, plan: Arc<Plan>) -> PlannedStrategy {
        self.wrap_with(kind, self.options.clone(), plan)
    }

    /// Binds a plan to this session under the fingerprint of the request
    /// that actually produced it — `options` must be the exact options the
    /// planner ran with, so that fingerprint equality keeps implying plan
    /// identity across the local, served, and artifact paths.
    fn wrap_with(
        &self,
        kind: PlannerKind,
        options: PlanOptions,
        plan: Arc<Plan>,
    ) -> PlannedStrategy {
        PlannedStrategy {
            fingerprint: self.request_with(kind, options).fingerprint(),
            model: Arc::clone(&self.model),
            cluster: self.cluster.clone(),
            kind,
            plan,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Runs the chosen planner once, at the session's options, and
    /// statically verifies the result ([`gp_verify::verify_strategy`])
    /// before handing it out — a planner bug surfaces as a named invariant
    /// violation instead of propagating an invalid strategy.
    ///
    /// # Errors
    ///
    /// Propagates the planner's failure as [`Error::Plan`]; a plan the
    /// verifier rejects is [`Error::Verify`].
    pub fn plan(&self, kind: PlannerKind) -> Result<PlannedStrategy, Error> {
        let _span = self.telemetry.span("session.plan");
        let planner = kind.build(self.options.clone(), &self.telemetry);
        let plan = planner.plan(&self.model, &self.cluster, self.mini_batch)?;
        {
            let _verify = self.telemetry.span("session.verify");
            gp_verify::verify_strategy(&self.model, &self.cluster, &plan).into_result()?;
        }
        Ok(self.wrap(kind, Arc::new(plan)))
    }

    /// Plans with every candidate micro-batch size, simulates each
    /// strategy, and returns the best by measured throughput — exactly how
    /// the paper selects configurations for Figures 6, 7 and 9 (Appendix
    /// A.2). This is the single copy of the plan→simulate sweep.
    ///
    /// The returned strategy is fingerprinted by the *winning* request —
    /// the session options with the winning micro-batch size forced
    /// ([`Session::request_with`]) — since that is the request that
    /// reproduces the plan exactly; the unforced [`Session::request`]
    /// fingerprint keys [`Session::plan`]'s single-shot search instead.
    ///
    /// # Errors
    ///
    /// Returns the planner's error if *no* candidate yields a feasible
    /// plan; search explosions propagate immediately (retrying other
    /// micro-batch sizes would explode identically — Table 1's "✗"). A
    /// mini-batch that [`PlanOptions::micro_batch_sizes`] rejects fails
    /// before any plan.
    pub fn evaluate(&self, kind: PlannerKind) -> Result<EvalResult, Error> {
        let _span = self.telemetry.span("session.evaluate");
        let candidates = self.options.micro_batch_sizes(self.mini_batch)?;
        let mut best: Option<(u64, Arc<Plan>, SimReport)> = None;
        let mut per_micro_batch = Vec::new();
        let mut last_err = PlanError::Infeasible("no micro-batch candidates".to_string());
        for &b in &candidates {
            let _candidate = self.telemetry.span_with("evaluate.candidate", b);
            let opts = self.options.clone().with_forced_micro_batch(b);
            let planner = kind.build(opts, &self.telemetry);
            match planner.plan(&self.model, &self.cluster, self.mini_batch) {
                Ok(plan) => {
                    let report =
                        match simulate_on(&self.model, &self.cluster, &plan, &self.telemetry) {
                            Ok(r) => r,
                            Err(e) => {
                                last_err = PlanError::Internal(e.to_string());
                                continue;
                            }
                        };
                    per_micro_batch.push((b, report.throughput));
                    let better = match &best {
                        None => true,
                        Some((_, _, cur)) => report.throughput > cur.throughput,
                    };
                    if better {
                        best = Some((b, Arc::new(plan), report));
                    }
                }
                Err(e) => {
                    if matches!(e, PlanError::SearchExplosion { .. }) {
                        return Err(e.into());
                    }
                    last_err = e;
                }
            }
        }
        match best {
            Some((b, plan, report)) => Ok(EvalResult {
                plan: self.wrap_with(kind, self.options.clone().with_forced_micro_batch(b), plan),
                report,
                per_micro_batch,
            }),
            None => Err(last_err.into()),
        }
    }

    /// Evaluates several planners on this session's problem and returns a
    /// [`Comparison`] — the Figure-6-style table of throughput, pipeline
    /// depth, and chosen micro-batch per planner, with planner failures
    /// recorded as the paper's "✗" instead of aborting the table.
    ///
    /// GraphPipe and PipeDream run the full [`Session::evaluate`]
    /// micro-batch sweep; Piper runs once at [`PIPER_COMPARE_UNIT_OPS`]
    /// operator-cluster granularity (its internal DP already sweeps, and
    /// finer units explode on many-branch models — the harness convention
    /// behind Figure 6).
    pub fn compare(&self, kinds: &[PlannerKind]) -> Comparison {
        let _span = self.telemetry.span("session.compare");
        let rows = kinds
            .iter()
            .map(|&kind| {
                // Rows carry plain plans, not `PlannedStrategy`: the Piper
                // arm's `with_unit_ops` coarsening is not representable in
                // `PlanOptions`, so no request fingerprint reproduces that
                // plan and stamping one here would lie.
                let outcome: Result<(Arc<Plan>, SimReport), Error> = match kind {
                    PlannerKind::Piper => PiperPlanner::with_options(self.options.clone())
                        .with_unit_ops(PIPER_COMPARE_UNIT_OPS)
                        .plan(&self.model, &self.cluster, self.mini_batch)
                        .map_err(Error::from)
                        .and_then(|plan| {
                            let report =
                                simulate_on(&self.model, &self.cluster, &plan, &self.telemetry)?;
                            Ok((Arc::new(plan), report))
                        }),
                    _ => self
                        .evaluate(kind)
                        .map(|r| (Arc::clone(r.plan.plan()), r.report)),
                };
                match outcome {
                    Ok((plan, report)) => ComparisonRow {
                        kind,
                        throughput: Some(report.throughput),
                        depth: Some(plan.pipeline_depth()),
                        micro_batch: Some(plan.max_micro_batch()),
                        error: None,
                    },
                    Err(e) => ComparisonRow {
                        kind,
                        throughput: None,
                        depth: None,
                        micro_batch: None,
                        error: Some(e),
                    },
                }
            })
            .collect();
        Comparison {
            mini_batch: self.mini_batch,
            devices: self.cluster.device_count(),
            rows,
        }
    }

    /// Decodes a plan [`artifact`](PlannedStrategy::artifact) against this
    /// session, re-validating the strategy (§3 C1–C4) and — when the
    /// artifact records a fingerprint — checking it against the session's
    /// requests for `kind`: the plain [`Session::request`] (how
    /// [`Session::plan`] keys strategies) *or* the request with the plan's
    /// micro-batch size forced (how [`Session::evaluate`] keys its sweep
    /// winner). The restored strategy keeps the recorded fingerprint.
    ///
    /// # Errors
    ///
    /// [`Error::Artifact`] when the document is malformed or does not
    /// describe a valid strategy for this model and cluster (the error
    /// names the violated invariant); [`Error::Verify`] when the decoded
    /// plan fails the session-level [`gp_verify::verify_model`] pass;
    /// [`Error::Invalid`] when the artifact's mini-batch or recorded
    /// fingerprint disagrees with the session.
    pub fn load_artifact(&self, text: &str, kind: PlannerKind) -> Result<PlannedStrategy, Error> {
        let _span = self.telemetry.span("session.load_artifact");
        let (plan, recorded) = artifact::decode_plan(text, self.model.graph(), &self.cluster)?;
        // The codec verified the plan against the graph and cluster; the
        // session also holds the SP tree and path, so add the model side.
        gp_verify::verify_model(&self.model, &plan).into_result()?;
        if plan.stage_graph.mini_batch() != self.mini_batch {
            return Err(Error::Invalid(format!(
                "artifact plans mini-batch {}, session uses {}",
                plan.stage_graph.mini_batch(),
                self.mini_batch
            )));
        }
        let plan = Arc::new(plan);
        let Some(fp) = recorded else {
            return Ok(self.wrap(kind, plan));
        };
        let unforced = self.request(kind).fingerprint();
        let forced = self
            .request_with(
                kind,
                self.options
                    .clone()
                    .with_forced_micro_batch(plan.max_micro_batch()),
            )
            .fingerprint();
        if fp != unforced && fp != forced {
            return Err(Error::Invalid(format!(
                "artifact fingerprint {fp} matches neither this session's request \
                 fingerprint {unforced} nor its micro-batch-{} sweep-winner \
                 fingerprint {forced}",
                plan.max_micro_batch()
            )));
        }
        Ok(PlannedStrategy {
            fingerprint: fp,
            model: Arc::clone(&self.model),
            cluster: self.cluster.clone(),
            kind,
            plan,
            telemetry: self.telemetry.clone(),
        })
    }

    /// Attaches this session to a fresh `gp-fleet` [`FleetService`] —
    /// the plan-serving front-end: a sharded plan cache, an optional
    /// persistent artifact store, a pool of in-process planner workers,
    /// and multi-tenant admission control ([`FleetConfig::local`] is the
    /// minimal preset). The handle submits this session's canonical
    /// [`Session::request`]s, so fleet plans carry the same fingerprints
    /// as [`Session::plan`] (unless a tenant tier rewrites the search
    /// options — then the ticket carries the tier-scoped fingerprint).
    ///
    /// The session's telemetry handle replaces whatever `config.telemetry`
    /// held, so fleet counters land next to the session's own spans.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when [`FleetService::start`] refuses `config`:
    /// `config.remote_workers` is not empty, or `config.store` is set and
    /// the store directory cannot be opened or created.
    pub fn serve_fleet(&self, config: FleetConfig) -> Result<SessionFleet, Error> {
        let config = FleetConfig {
            telemetry: self.telemetry.clone(),
            ..config
        };
        let fleet = FleetService::start(config)
            .map_err(|e| Error::Invalid(format!("cannot start the plan fleet: {e}")))?;
        Ok(SessionFleet {
            fleet,
            session: self.clone(),
        })
    }
}

/// A planned training strategy bound to its session context: the shared
/// [`Plan`], the planner that produced it, and the canonical request
/// [`Fingerprint`] (`gp-serve`'s cache key for the same problem).
///
/// Dereferences to [`Plan`], so every plan accessor
/// (`pipeline_depth()`, `max_micro_batch()`, `stats`, ...) is available
/// directly on the strategy.
#[derive(Debug, Clone)]
pub struct PlannedStrategy {
    model: Arc<SpModel>,
    cluster: Cluster,
    kind: PlannerKind,
    plan: Arc<Plan>,
    fingerprint: Fingerprint,
    telemetry: Telemetry,
}

impl Deref for PlannedStrategy {
    type Target = Plan;

    fn deref(&self) -> &Plan {
        &self.plan
    }
}

impl PlannedStrategy {
    /// The planner that produced this strategy.
    pub fn kind(&self) -> PlannerKind {
        self.kind
    }

    /// The canonical request fingerprint — identical to what
    /// [`Session::request`] and the serve layer compute for this problem.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The underlying shared plan.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// The model the strategy was planned for.
    pub fn model(&self) -> &Arc<SpModel> {
        &self.model
    }

    /// Which rung of the DAG fallback ladder produced the strategy's
    /// model: exact SP, SP-ized (with its distortion in bytes), or
    /// clustered (with its unit count). Hand-authored SP models always
    /// report [`PlanPath::ExactSp`].
    pub fn plan_path(&self) -> PlanPath {
        self.plan.path
    }

    /// The cluster the strategy targets.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// A human-readable multi-line summary (stages, placement, schedule
    /// parameters) — [`Plan::describe`] against the bound model.
    pub fn describe(&self) -> String {
        self.plan.describe(self.model.graph())
    }

    /// Simulates one training iteration on the discrete-event timing
    /// substitute (`gp-sim`).
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] when the schedule deadlocks or is incomplete — both
    /// indicate an invalid strategy.
    pub fn simulate(&self) -> Result<SimReport, Error> {
        let _span = self.telemetry.span("session.simulate");
        simulate_on(&self.model, &self.cluster, &self.plan, &self.telemetry)
    }

    /// Trains the strategy for real on the threaded `gp-exec` runtime
    /// (one worker thread per simulated GPU, real f32 tensor math,
    /// synchronous-SGD semantics) with synthetic data, returning the
    /// per-step losses plus a single-device reference loss for the
    /// gradient-equivalence check.
    ///
    /// Intended for CPU-sized models; the cost is real tensor math over
    /// `steps + 1` full mini-batches.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when `config.steps` is zero; [`Error::Exec`]
    /// when a runtime worker fails.
    pub fn execute(&self, config: &TrainingConfig) -> Result<TrainingRun, Error> {
        if config.steps == 0 {
            return Err(Error::Invalid("execute needs at least one step".into()));
        }
        let _span = self.telemetry.span("session.execute");
        let graph = self.model.graph();
        let mini_batch = self.plan.stage_graph.mini_batch();
        let batch = synth_batch(graph, mini_batch, config.data_seed);
        let params0 = ModelParams::init(graph, config.param_seed);
        // Ground truth at the initial parameters: the first distributed
        // step reports its loss *before* applying the update, so
        // `losses[0]` must match this single-device full-batch loss.
        let (reference_loss, _) = reference_step(graph, &params0, &batch, mini_batch);
        let mut params = params0;
        let losses = gp_exec::train_traced(
            graph,
            &self.plan.stage_graph,
            &self.plan.schedule,
            &mut params,
            &batch,
            config.lr,
            config.steps,
            &self.telemetry,
        )?;
        Ok(TrainingRun {
            losses,
            reference_loss,
        })
    }

    /// Encodes the strategy as a versioned, lossless `gp-serve` plan
    /// artifact (JSON), with this strategy's fingerprint recorded in the
    /// header. Decode with [`Session::load_artifact`] (or
    /// `graphpipe::serve::artifact::decode_plan` directly).
    pub fn artifact(&self) -> String {
        artifact::encode_plan(&self.plan, Some(self.fingerprint))
    }
}

/// Outcome of a [`Session::evaluate`] micro-batch sweep (Appendix A.2).
#[derive(Debug)]
pub struct EvalResult {
    /// The best strategy found, fingerprinted by the winning
    /// forced-micro-batch request (the request that reproduces this exact
    /// plan — see [`Session::evaluate`]).
    pub plan: PlannedStrategy,
    /// Its simulated iteration report.
    pub report: SimReport,
    /// Simulated throughput per candidate micro-batch size.
    pub per_micro_batch: Vec<(u64, f64)>,
}

/// Configuration for [`PlannedStrategy::execute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Training iterations to run (must be at least 1).
    pub steps: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Seed for the synthetic mini-batch.
    pub data_seed: u64,
    /// Seed for the parameter initialization.
    pub param_seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            steps: 4,
            lr: 0.05,
            data_seed: 7,
            param_seed: 42,
        }
    }
}

/// Losses from a [`PlannedStrategy::execute`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRun {
    /// Per-step training loss (summed over micro-batches), in step order.
    pub losses: Vec<f32>,
    /// Single-device full-batch loss at the initial parameters — the
    /// gradient-equivalence ground truth for `losses[0]`.
    pub reference_loss: f32,
}

impl TrainingRun {
    /// Loss of the first step (computed before any update).
    pub fn first_loss(&self) -> f32 {
        self.losses[0]
    }

    /// Loss of the last step.
    pub fn final_loss(&self) -> f32 {
        *self.losses.last().expect("execute runs at least one step")
    }

    /// Absolute gap between the first distributed loss and the
    /// single-device reference — the "training semantics preserved" check
    /// (§8); expect ~1e-3 relative or better.
    pub fn reference_gap(&self) -> f32 {
        (self.first_loss() - self.reference_loss).abs()
    }

    /// Whether training reduced the loss from the first step to the last.
    pub fn improved(&self) -> bool {
        self.final_loss() < self.first_loss()
    }
}

/// One planner's outcome inside a [`Comparison`].
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// The planner evaluated.
    pub kind: PlannerKind,
    /// Best simulated throughput (samples/s); `None` is the paper's "✗".
    pub throughput: Option<f64>,
    /// Pipeline depth of the chosen strategy.
    pub depth: Option<usize>,
    /// Chosen (maximum) micro-batch size.
    pub micro_batch: Option<u64>,
    /// Why the planner produced no strategy, when it didn't.
    pub error: Option<Error>,
}

/// Outcome of [`Session::compare`]: one [`ComparisonRow`] per requested
/// planner, in request order, plus a Figure-6-style renderer
/// ([`Comparison::render`], also its [`fmt::Display`]).
#[derive(Debug)]
pub struct Comparison {
    mini_batch: u64,
    devices: usize,
    rows: Vec<ComparisonRow>,
}

impl Comparison {
    /// The mini-batch size every planner was evaluated at.
    pub fn mini_batch(&self) -> u64 {
        self.mini_batch
    }

    /// The device count of the session's cluster.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// All rows, in the order the planners were requested.
    pub fn rows(&self) -> &[ComparisonRow] {
        &self.rows
    }

    /// The row for a planner, if it was part of the comparison.
    pub fn row(&self, kind: PlannerKind) -> Option<&ComparisonRow> {
        self.rows.iter().find(|r| r.kind == kind)
    }

    /// A planner's best throughput, if it produced a strategy.
    pub fn throughput(&self, kind: PlannerKind) -> Option<f64> {
        self.row(kind).and_then(|r| r.throughput)
    }

    /// The first planner failure in the table, if any — for callers that
    /// treat any "✗" as fatal rather than as a rendered outcome (e.g. the
    /// repository examples under CI's examples-smoke step).
    pub fn first_error(&self) -> Option<&Error> {
        self.rows.iter().find_map(|r| r.error.as_ref())
    }

    /// Throughput ratio `numerator / denominator` (e.g. the paper's GP/PD
    /// speedup); `None` unless both planners produced strategies.
    pub fn speedup(&self, numerator: PlannerKind, denominator: PlannerKind) -> Option<f64> {
        match (self.throughput(numerator), self.throughput(denominator)) {
            (Some(n), Some(d)) if d > 0.0 => Some(n / d),
            _ => None,
        }
    }

    /// Renders the Figure-6-style markdown table: one row per planner with
    /// throughput (or "✗"), depth, micro-batch, and the speedup over the
    /// first requested planner; failed planners get a footnote with the
    /// error.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let baseline = self.rows.first().map(|r| r.kind);
        let vs = baseline.map_or("speedup".to_string(), |k| format!("vs {}", k.label()));
        let _ = writeln!(out, "| planner | samples/s | depth | micro-batch | {vs} |");
        let _ = writeln!(out, "| --- | --- | --- | --- | --- |");
        for r in &self.rows {
            let fmt_u64 = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
            let speedup = baseline
                .and_then(|b| self.speedup(r.kind, b))
                .map_or("-".to_string(), |s| format!("{s:.2}x"));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {speedup} |",
                r.kind.label(),
                r.throughput.map_or("✗".to_string(), |t| format!("{t:.0}")),
                r.depth.map_or("-".to_string(), |d| d.to_string()),
                fmt_u64(r.micro_batch),
            );
        }
        for r in &self.rows {
            if let Some(e) = &r.error {
                let _ = writeln!(out, "\n✗ {}: {e}", r.kind.label());
            }
        }
        out
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// A session bound to a `gp-fleet` [`FleetService`]: the cached,
/// single-flight path to the same strategies [`Session::plan`] computes,
/// under the session's own request fingerprints. Obtained from
/// [`Session::serve_fleet`].
///
/// ```
/// use graphpipe::fleet::FleetConfig;
/// use graphpipe::prelude::*;
///
/// let session = Session::builder()
///     .model(zoo::mmt(&zoo::MmtConfig::tiny()))
///     .cluster(Cluster::summit_like(4))
///     .mini_batch(32)
///     .build()?;
/// let fleet = session.serve_fleet(FleetConfig::local(2, 16))?;
/// let first = fleet.plan(PlannerKind::GraphPipe)?;   // a worker plans
/// let again = fleet.plan(PlannerKind::GraphPipe)?;   // shard cache hit
/// assert_eq!(first.fingerprint(), again.fingerprint());
/// assert_eq!(first.fingerprint(), session.plan(PlannerKind::GraphPipe)?.fingerprint());
/// assert_eq!(fleet.stats().planner_runs, 1);
/// # Ok::<(), graphpipe::Error>(())
/// ```
pub struct SessionFleet {
    fleet: FleetService,
    session: Session,
}

impl SessionFleet {
    /// [`SessionFleet::plan_as`] under the default tenant contract.
    ///
    /// # Errors
    ///
    /// Same as [`SessionFleet::plan_as`].
    pub fn plan(&self, kind: PlannerKind) -> Result<PlannedStrategy, Error> {
        self.plan_as("default", kind)
    }

    /// Plans via the fleet on behalf of `tenant` — the admitted request
    /// may be rewritten to the tenant's tier, in which case the returned
    /// strategy carries the tier-scoped fingerprint from the ticket.
    ///
    /// # Errors
    ///
    /// Planner failures surface as [`Error::Plan`] (the same variant
    /// [`Session::plan`] reports); admission refusals as [`Error::Serve`]
    /// wrapping [`ServeError::Overloaded`](gp_serve::ServeError), and a
    /// fleet that shut down with the request queued as
    /// [`ServeError::ServiceStopped`](gp_serve::ServeError).
    pub fn plan_as(&self, tenant: &str, kind: PlannerKind) -> Result<PlannedStrategy, Error> {
        let ticket = self.fleet.submit(tenant, self.session.request(kind))?;
        let fingerprint = ticket.fingerprint();
        let plan = ticket.wait()?;
        // The fleet's worker verified the plan before caching it; debug
        // builds re-verify against *this* session's model to catch
        // cache-keying bugs that hand back a foreign plan.
        #[cfg(debug_assertions)]
        {
            let report =
                gp_verify::verify_strategy(&self.session.model, &self.session.cluster, &plan);
            debug_assert!(report.is_clean(), "fleet served an invalid plan: {report}");
        }
        Ok(PlannedStrategy {
            model: Arc::clone(&self.session.model),
            cluster: self.session.cluster.clone(),
            kind,
            plan,
            fingerprint,
            telemetry: self.session.telemetry.clone(),
        })
    }

    /// The session this handle submits requests for.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying fleet service, for hand-built [`PlanRequest`]s or
    /// store introspection.
    pub fn fleet(&self) -> &FleetService {
        &self.fleet
    }

    /// A snapshot of the fleet's per-shard and admission counters.
    pub fn stats(&self) -> FleetStats {
        self.fleet.stats()
    }

    /// Stops admission, drains queued work, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> FleetStats {
        self.fleet.shutdown();
        self.fleet.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, MmtConfig};

    fn session() -> Session {
        Session::builder()
            .model(zoo::mmt(&MmtConfig::tiny()))
            .cluster(Cluster::summit_like(4))
            .mini_batch(32)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_incomplete_sessions() {
        let missing_model = Session::builder()
            .cluster(Cluster::summit_like(4))
            .mini_batch(32)
            .build();
        assert!(matches!(missing_model, Err(Error::Invalid(_))));
        let missing_cluster = Session::builder()
            .model(zoo::mmt(&MmtConfig::tiny()))
            .mini_batch(32)
            .build();
        assert!(matches!(missing_cluster, Err(Error::Invalid(_))));
        let zero_batch = Session::builder()
            .model(zoo::mmt(&MmtConfig::tiny()))
            .cluster(Cluster::summit_like(4))
            .mini_batch(0)
            .build();
        assert!(matches!(zero_batch, Err(Error::Invalid(_))));
    }

    #[test]
    fn plan_fingerprint_matches_request_fingerprint() {
        let s = session();
        for kind in [
            PlannerKind::GraphPipe,
            PlannerKind::PipeDream,
            PlannerKind::Piper,
        ] {
            let strategy = s.plan(kind).unwrap();
            assert_eq!(strategy.fingerprint(), s.request(kind).fingerprint());
            assert_eq!(strategy.kind(), kind);
        }
        // Different planners key different cache entries.
        assert_ne!(
            s.request(PlannerKind::GraphPipe).fingerprint(),
            s.request(PlannerKind::PipeDream).fingerprint()
        );
    }

    #[test]
    fn strategy_derefs_to_plan_and_simulates() {
        let s = session();
        let strategy = s.plan(PlannerKind::GraphPipe).unwrap();
        assert!(strategy.pipeline_depth() >= 1); // via Deref
        assert!(strategy.bottleneck_tps > 0.0);
        assert!(!strategy.describe().is_empty());
        let report = strategy.simulate().unwrap();
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn execute_trains_and_matches_reference() {
        let s = Session::builder()
            .model(zoo::mmt(&MmtConfig::tiny()))
            .cluster(Cluster::summit_like(3).with_memory_capacity(1 << 30))
            .mini_batch(8)
            .build()
            .unwrap();
        let strategy = s.plan(PlannerKind::GraphPipe).unwrap();
        let run = strategy
            .execute(&TrainingConfig {
                steps: 5,
                ..TrainingConfig::default()
            })
            .unwrap();
        assert_eq!(run.losses.len(), 5);
        assert!(run.reference_gap() / run.reference_loss < 1e-3);
        assert!(run.improved(), "{:?}", run.losses);
        let zero_steps = strategy.execute(&TrainingConfig {
            steps: 0,
            ..TrainingConfig::default()
        });
        assert!(matches!(zero_steps, Err(Error::Invalid(_))));
    }

    #[test]
    fn comparison_renders_rows_and_crosses_out_failures() {
        let s = session();
        let c = s.compare(&[PlannerKind::GraphPipe, PlannerKind::PipeDream]);
        assert_eq!(c.rows().len(), 2);
        assert_eq!(c.mini_batch(), 32);
        assert_eq!(c.devices(), 4);
        assert!(c.throughput(PlannerKind::GraphPipe).unwrap() > 0.0);
        assert!(
            c.speedup(PlannerKind::GraphPipe, PlannerKind::PipeDream)
                .unwrap()
                > 0.0
        );
        let text = c.to_string();
        assert!(text.contains("GraphPipe"), "{text}");
        assert!(text.contains("vs GraphPipe"), "{text}");
        // A planner that cannot plan renders as the paper's ✗.
        let doomed = Session::builder()
            .model(zoo::mmt(&MmtConfig::tiny()))
            .cluster(Cluster::summit_like(4))
            .mini_batch(32)
            .options(PlanOptions::default().with_micro_batch_candidates(vec![7]))
            .build()
            .unwrap();
        let c = doomed.compare(&[PlannerKind::GraphPipe]);
        let row = c.row(PlannerKind::GraphPipe).unwrap();
        assert!(row.throughput.is_none());
        assert!(row.error.is_some());
        assert!(c.render().contains('✗'));
    }

    #[test]
    fn artifact_round_trips_through_the_session() {
        let s = session();
        let strategy = s.plan(PlannerKind::GraphPipe).unwrap();
        let text = strategy.artifact();
        let restored = s.load_artifact(&text, PlannerKind::GraphPipe).unwrap();
        // Phase walls are measurement, not plan data: the codec never
        // encodes them, so compare with walls zeroed on both sides.
        let mut fresh = (**strategy.plan()).clone();
        let mut decoded = (**restored.plan()).clone();
        fresh.stats.zero_walls();
        decoded.stats.zero_walls();
        assert_eq!(decoded, fresh);
        assert_eq!(restored.fingerprint(), strategy.fingerprint());
        // The recorded fingerprint is planner-tagged: loading it as a
        // different planner's strategy is a mismatch, not a silent rebind.
        let err = s.load_artifact(&text, PlannerKind::PipeDream).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
    }

    /// The codec checks the plan against the graph and cluster, not the
    /// model: an SP-ized plan stripped of its `plan_path` member decodes as
    /// an exact-SP plan, and only the model-side checks reject it.
    #[test]
    fn a_plan_path_the_model_did_not_take_is_a_verify_error() {
        let s = Session::builder()
            .model_dag(zoo::gnn_pipe_graph(&zoo::GnnPipeConfig::tiny()))
            .cluster(Cluster::summit_like(4))
            .mini_batch(32)
            .build()
            .unwrap();
        let PlanPath::SpIzed { distortion } = s.model().path() else {
            panic!("gnn-pipe takes the SP-ization rung");
        };
        let text = s.plan(PlannerKind::GraphPipe).unwrap().artifact();
        let member = format!("\"plan_path\":{{\"kind\":\"sp-ized\",\"distortion\":{distortion}}},");
        let stripped = text.replacen(&member, "", 1);
        assert_ne!(stripped, text, "plan_path member not found");
        let err = s
            .load_artifact(&stripped, PlannerKind::GraphPipe)
            .unwrap_err();
        assert!(
            matches!(&err, Error::Verify(e) if e.report().violates(gp_verify::Check::PlanPathConsistent)),
            "{err}"
        );
    }
}
