//! Public planning types shared by GraphPipe and the SPP baselines.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use gp_cluster::Cluster;
use gp_cost::CostModel;
use gp_ir::SpModel;
use gp_sched::{assign_in_flight, schedule_tasks, InFlightTable, PipelineSchedule, StageGraph};
use std::fmt;
use std::time::Duration;

/// Options controlling a planner's search.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOptions {
    /// Relative tolerance of the binary search over the bottleneck TPS
    /// (`epsilon` of Algorithm 1, as a fraction of the initial upper bound).
    /// GraphPipe rejects a value that is not finite or is below
    /// `f64::EPSILON`.
    pub epsilon: f64,
    /// Explicit micro-batch-size candidates. When `None`, all powers of two
    /// dividing the mini-batch size with at most [`PlanOptions::max_micro_batches`]
    /// micro-batches are tried.
    pub micro_batch_candidates: Option<Vec<u64>>,
    /// Upper bound on micro-batches per mini-batch when deriving default
    /// candidates (bounds `|B|`, see the §5 complexity analysis).
    pub max_micro_batches: u64,
    /// kFkB parameters to consider. The paper's default schedule is the
    /// synchronous 1F1B, i.e. `[1]`. GraphPipe rejects an empty list or
    /// a `k` of 0.
    pub kfkb_candidates: Vec<u64>,
    /// Allow different micro-batch sizes per stage (§6's generalized
    /// scheduler). Off by default, matching the paper's default
    /// configuration.
    pub per_stage_micro_batch: bool,
    /// Abort the search after this many DP evaluations (guards against
    /// exponential blow-ups; primarily exercised by the Piper baseline).
    pub eval_budget: u64,
    /// Beam width for device-split enumeration. `None` (the default)
    /// keeps every split the work-conservation bound admits and is
    /// byte-identical to the exhaustive search; `Some(w)` truncates each
    /// split window to the `w` candidates nearest the work-proportional
    /// pivot (a deterministic total order — see DESIGN.md §"Planner
    /// search"). Bounded beams trade plan quality for search time, so
    /// this knob is part of the `gp-serve` request fingerprint.
    pub beam_width: Option<u32>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            epsilon: 0.01,
            micro_batch_candidates: None,
            max_micro_batches: 256,
            kfkb_candidates: vec![1],
            per_stage_micro_batch: false,
            eval_budget: 200_000_000,
            beam_width: None,
        }
    }
}

impl PlanOptions {
    /// Restricts the search to one fixed micro-batch size (used by the
    /// Figure 7-right sweep and the "Parallel" ablation of Figure 9).
    pub fn with_forced_micro_batch(mut self, b: u64) -> Self {
        self.micro_batch_candidates = Some(vec![b]);
        self
    }

    /// Sets the binary search's relative tolerance
    /// ([`PlanOptions::epsilon`], the `epsilon` of Algorithm 1).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets an explicit micro-batch-size candidate list
    /// ([`PlanOptions::micro_batch_candidates`]), replacing the default
    /// powers-of-two sweep. See [`PlanOptions::with_forced_micro_batch`]
    /// for the single-candidate shorthand.
    pub fn with_micro_batch_candidates(mut self, candidates: Vec<u64>) -> Self {
        self.micro_batch_candidates = Some(candidates);
        self
    }

    /// Sets the cap on micro-batches per mini-batch used when deriving
    /// default candidates ([`PlanOptions::max_micro_batches`]).
    pub fn with_max_micro_batches(mut self, max: u64) -> Self {
        self.max_micro_batches = max;
        self
    }

    /// Sets the kFkB parameters to consider
    /// ([`PlanOptions::kfkb_candidates`]; `[1]` is the paper's synchronous
    /// 1F1B default).
    pub fn with_kfkb_candidates(mut self, candidates: Vec<u64>) -> Self {
        self.kfkb_candidates = candidates;
        self
    }

    /// Enables or disables per-stage micro-batch sizes
    /// ([`PlanOptions::per_stage_micro_batch`], §6's generalized
    /// scheduler).
    pub fn with_per_stage_micro_batch(mut self, enabled: bool) -> Self {
        self.per_stage_micro_batch = enabled;
        self
    }

    /// Sets the DP evaluation budget ([`PlanOptions::eval_budget`]) after
    /// which a search aborts with [`PlanError::SearchExplosion`].
    pub fn with_eval_budget(mut self, budget: u64) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Sets the device-split beam width ([`PlanOptions::beam_width`]).
    /// Widths are clamped to at least 1; pass `0`/`1` for the greedy
    /// single-candidate beam. Use [`PlanOptions::default`]'s `None` for
    /// the exhaustive (bit-compatible) search.
    pub fn with_beam_width(mut self, width: u32) -> Self {
        self.beam_width = Some(width.max(1));
        self
    }

    /// The micro-batch sizes to try for a given mini-batch size: the
    /// entry check every planner shares.
    ///
    /// # Errors
    ///
    /// [`PlanError::Infeasible`] when the mini-batch exceeds `u32::MAX`
    /// (with every `k` and micro-batch size at most the mini-batch, the
    /// bound keeps `k * b` in the in-flight formula inside a u64) or when
    /// no candidate divides it.
    pub fn micro_batch_sizes(&self, mini_batch: u64) -> Result<Vec<u64>, PlanError> {
        if mini_batch > u64::from(u32::MAX) {
            return Err(PlanError::Infeasible(format!(
                "mini_batch must be at most {}, got {mini_batch}",
                u32::MAX
            )));
        }
        let sizes: Vec<u64> = match &self.micro_batch_candidates {
            Some(list) => list
                .iter()
                .copied()
                .filter(|&b| b > 0 && mini_batch.is_multiple_of(b))
                .collect(),
            None => (0..u32::BITS)
                .map(|shift| 1u64 << shift)
                .take_while(|&b| b <= mini_batch)
                .filter(|&b| {
                    mini_batch.is_multiple_of(b) && mini_batch / b <= self.max_micro_batches
                })
                .collect(),
        };
        if sizes.is_empty() {
            return Err(PlanError::Infeasible(
                "no micro-batch size candidates divide the mini-batch".to_string(),
            ));
        }
        Ok(sizes)
    }
}

/// Why a planner failed to produce a strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No strategy satisfies the device-memory constraint (Equation 2) even
    /// at the loosest target TPS.
    Infeasible(String),
    /// The search exceeded its work budget — the paper's "✗" for Piper on
    /// many-branch models ("search cannot be completed within reasonable
    /// timeframes", Table 1).
    SearchExplosion {
        /// DP evaluations performed before giving up; 0 when the search
        /// space was too large to enumerate, before any evaluation.
        evals: u64,
    },
    /// The model shape is not supported by this planner.
    UnsupportedModel(String),
    /// Planner produced an internally inconsistent strategy (a bug guard).
    Internal(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Infeasible(why) => write!(f, "no feasible strategy: {why}"),
            PlanError::SearchExplosion { evals: 0 } => {
                write!(f, "search exploded before any DP evaluation")
            }
            PlanError::SearchExplosion { evals } => {
                write!(f, "search exploded after {evals} DP evaluations")
            }
            PlanError::UnsupportedModel(why) => write!(f, "unsupported model: {why}"),
            PlanError::Internal(why) => write!(f, "internal planner error: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Wall-clock breakdown of one search, by phase (Algorithm 1 structure).
///
/// Like [`SearchStats::wall`], every field here is *nondeterministic
/// measurement*, not plan data: all walls are excluded from plan
/// fingerprints and artifact bytes, and [`SearchStats::zero_walls`]
/// clears them wherever plans are compared for equality. Times come from
/// the injected `gp_obs::Clock` seam, never from a direct wall-clock
/// read (DESIGN.md §"Observability").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchPhases {
    /// Geometric bracket-ladder phase: the doubling probes that find a
    /// feasible throughput target (Algorithm 1 lines 2–6).
    pub bracket_wall: Duration,
    /// Bisection phase: refinement probes inside the bracket (lines 7–11),
    /// then GraphPipe's completion pass at the final target.
    pub bisect_wall: Duration,
    /// Strategy reconstruction: solution → stage graph → schedule.
    pub finalize_wall: Duration,
}

/// Search-cost accounting, reported alongside every plan (Table 1).
///
/// GraphPipe's counters cover the DP runs its search *consumed*: each
/// probe's runs up to its first feasible micro-batch configuration, and
/// the completion pass at the final target. A run that the probe fan-out
/// started past that point, finished or cancelled, counts nowhere, so
/// the counters do not depend on the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Wall-clock search time.
    pub wall: Duration,
    /// Wall-clock phase breakdown (zero for single-shot planners).
    pub phases: SearchPhases,
    /// Dynamic-programming evaluations charged by the consumed runs.
    pub dp_evals: u64,
    /// Distinct memoized DP states, at the peak across consumed runs.
    /// Every binary-search probe (and every micro-batch configuration)
    /// builds its own memo table, so summing table sizes across probes —
    /// what this field used to report — counts the same logical states
    /// once per probe; the maximum is the honest "how big does the state
    /// space get" number.
    pub dp_states: u64,
    /// Memo lookups answered from the table (across all consumed runs).
    pub memo_hits: u64,
    /// Memo lookups that found an empty cell and fell through to a fresh
    /// DP computation. `memo_hits + memo_misses` is the total lookup
    /// count, which is what [`SearchStats::memo_hit_rate`] divides by.
    pub memo_misses: u64,
    /// Subproblems discarded by the work-conservation bound before any
    /// candidate evaluation (whole-suffix infeasibility plus empty
    /// device-split windows).
    pub work_bound_prunes: u64,
    /// Stage candidates discarded for exceeding the device memory budget.
    pub memory_prunes: u64,
    /// Device-split candidates dropped by the beam truncation
    /// ([`PlanOptions::beam_width`]; 0 for unbounded searches).
    pub beam_prunes: u64,
    /// Batched candidate-evaluation passes: one per slice-at-a-time sweep
    /// over a stage's micro-batch candidates or a memo column's device
    /// window. `dp_evals / eval_batches` is the mean batch width, which
    /// is what makes the vectorized evaluator's speedup attributable.
    pub eval_batches: u64,
    /// Binary-search iterations (0 for single-shot planners).
    pub binary_iters: u32,
    /// Schedule configurations (micro-batch sizes etc.) tried: one per
    /// consumed run.
    pub configs_tried: u32,
}

impl SearchStats {
    /// Fraction of memo lookups answered from the table:
    /// `memo_hits / (memo_hits + memo_misses)`. Hits and misses count
    /// the same event stream — one lookup each — so the rate is
    /// per-run-consistent and always in `[0, 1]`. (The denominator used
    /// to be `dp_evals`, which charges per *candidate*, not per lookup;
    /// memo-heavy cells reported hit counts exceeding evals and rates
    /// above 1.) Returns 0 when nothing was looked up.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            return 0.0;
        }
        self.memo_hits as f64 / total as f64
    }

    /// Zero every wall-clock field — total and phase breakdown — leaving
    /// only the deterministic counters. Plan-equality tests, the fan-out
    /// parity tests, and the golden-artifact check all use this: wall
    /// times are the *only* nondeterministic fields in a plan.
    pub fn zero_walls(&mut self) {
        self.wall = Duration::ZERO;
        self.phases = SearchPhases::default();
    }
}

/// A complete training strategy: the validated stage graph, its in-flight
/// table, the per-stage task orders, and planner-side estimates.
///
/// Plans compare by value (`PartialEq`), which is what lets the `gp-serve`
/// artifact codec assert lossless round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The stage DAG (`G_S` of §3), validated against C1–C3.
    pub stage_graph: StageGraph,
    /// Minimal in-flight samples per stage (§6).
    pub in_flight: InFlightTable,
    /// Per-stage task orders (`Pi_i`), satisfying C4.
    pub schedule: PipelineSchedule,
    /// Planner's estimate of the bottleneck stage's Time-Per-Sample.
    pub bottleneck_tps: f64,
    /// Peak per-device memory across stages, in bytes.
    pub peak_memory_bytes: u64,
    /// Which rung of the DAG fallback ladder produced the model this plan
    /// was computed for (`ExactSp` for hand-authored SP trees).
    pub path: gp_ir::PlanPath,
    /// Search-cost accounting.
    pub stats: SearchStats,
}

impl Plan {
    /// Assembles the plan for a validated stage graph: the §6 in-flight
    /// table, the C4 task orders, then the bottleneck-TPS and peak-memory
    /// estimates measured against `cost` ([`Plan::measure`]).
    pub fn from_stage_graph(
        stage_graph: StageGraph,
        model: &SpModel,
        cost: &CostModel,
        stats: SearchStats,
    ) -> Plan {
        let in_flight = assign_in_flight(&stage_graph);
        let schedule = schedule_tasks(&stage_graph, &in_flight);
        let mut plan = Plan {
            stage_graph,
            in_flight,
            schedule,
            bottleneck_tps: 0.0,
            peak_memory_bytes: 0,
            path: model.path(),
            stats,
        };
        (plan.bottleneck_tps, plan.peak_memory_bytes) = plan.measure(model.graph(), cost);
        plan
    }

    /// Pipeline depth (stage-DAG diameter) of the strategy.
    pub fn pipeline_depth(&self) -> usize {
        self.stage_graph.pipeline_depth()
    }

    /// The (uniform or maximal) micro-batch size used by the strategy.
    pub fn max_micro_batch(&self) -> u64 {
        self.stage_graph
            .stages()
            .map(|s| s.micro_batch)
            .max()
            .unwrap_or(0)
    }

    /// Recomputes the bottleneck TPS and peak memory against a cost model
    /// (using actual device placements), returning `(tps, bytes)`.
    pub fn measure(&self, graph: &gp_ir::Graph, cost: &CostModel) -> (f64, u64) {
        let mut tps: f64 = 0.0;
        let mut mem = 0u64;
        for s in self.stage_graph.stages() {
            tps = tps.max(cost.stage_tps(
                graph,
                &s.ops,
                s.micro_batch,
                &s.devices,
                self.stage_graph.mini_batch(),
            ));
            mem = mem.max(cost.stage_memory_bytes(
                graph,
                &s.ops,
                self.in_flight.samples(s.id),
                s.micro_batch,
                s.dp_degree(),
            ));
        }
        (tps, mem)
    }

    /// A human-readable multi-line summary of the strategy.
    pub fn describe(&self, graph: &gp_ir::Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "strategy: {} stages, pipeline depth {}, mini-batch {}",
            self.stage_graph.len(),
            self.pipeline_depth(),
            self.stage_graph.mini_batch(),
        );
        if self.path != gp_ir::PlanPath::ExactSp {
            let _ = writeln!(out, "  plan path: {}", self.path);
        }
        for s in self.stage_graph.stages() {
            let names: Vec<&str> = s
                .ops
                .iter()
                .take(3)
                .map(|&o| graph.node(o).name.as_str())
                .collect();
            let succs: Vec<String> = self
                .stage_graph
                .succs(s.id)
                .iter()
                .map(|x| x.to_string())
                .collect();
            let _ = writeln!(
                out,
                "  {}: {:>3} ops [{}{}] on {} b={} k={} in-flight={} -> [{}]",
                s.id,
                s.ops.len(),
                names.join(", "),
                if s.ops.len() > 3 { ", ..." } else { "" },
                s.devices,
                s.micro_batch,
                s.kfkb,
                self.in_flight.samples(s.id),
                succs.join(", "),
            );
        }
        out
    }
}

/// A pipeline-parallel strategy planner (GraphPipe or an SPP baseline).
pub trait Planner {
    /// Short name for reports (e.g. `"graphpipe"`, `"pipedream"`).
    fn name(&self) -> &str;

    /// Searches for a training strategy for `model` on `cluster` with the
    /// given mini-batch size.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when no strategy satisfies the memory
    /// constraint or the search exceeds its budget.
    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_micro_batch_candidates_are_pow2_divisors() {
        let opts = PlanOptions::default();
        assert_eq!(opts.micro_batch_sizes(64), Ok(vec![1, 2, 4, 8, 16, 32, 64]));
        // Cap on micro-batch count kicks in for large mini-batches.
        let opts = PlanOptions {
            max_micro_batches: 4,
            ..PlanOptions::default()
        };
        assert_eq!(opts.micro_batch_sizes(64), Ok(vec![16, 32, 64]));
        // The largest mini-batch accepted keeps the nine sizes
        // 2^23..=2^31 under the default cap of 256 micro-batches.
        let opts = PlanOptions::default();
        let top: Vec<u64> = (23..32).map(|s| 1u64 << s).collect();
        assert_eq!(opts.micro_batch_sizes(1 << 31), Ok(top));
        // Odd mini-batches above 256 have no candidate.
        let none = opts.micro_batch_sizes(u64::from(u32::MAX));
        assert!(matches!(none, Err(PlanError::Infeasible(m)) if m.starts_with("no micro-batch")));
    }

    #[test]
    fn mini_batches_past_u32_have_no_micro_batch_sizes() {
        let opts = PlanOptions::default();
        for mini_batch in [1 << 32, 1 << 62, 1 << 63, u64::MAX] {
            let err = opts.micro_batch_sizes(mini_batch).unwrap_err();
            assert!(
                matches!(&err, PlanError::Infeasible(m) if m.starts_with("mini_batch")),
                "{mini_batch}: {err:?}"
            );
        }
    }

    #[test]
    fn forced_micro_batch_filters_non_divisors() {
        let opts = PlanOptions::default().with_forced_micro_batch(6);
        assert!(matches!(
            opts.micro_batch_sizes(64),
            Err(PlanError::Infeasible(_))
        ));
        let opts = PlanOptions::default().with_forced_micro_batch(8);
        assert_eq!(opts.micro_batch_sizes(64), Ok(vec![8]));
    }

    #[test]
    fn builder_methods_cover_every_field() {
        // One `with_*` per public field, composing fluently.
        let opts = PlanOptions::default()
            .with_epsilon(0.05)
            .with_micro_batch_candidates(vec![4, 8])
            .with_max_micro_batches(32)
            .with_kfkb_candidates(vec![1, 2])
            .with_per_stage_micro_batch(true)
            .with_eval_budget(1_000)
            .with_beam_width(8);
        assert_eq!(
            opts,
            PlanOptions {
                epsilon: 0.05,
                micro_batch_candidates: Some(vec![4, 8]),
                max_micro_batches: 32,
                kfkb_candidates: vec![1, 2],
                per_stage_micro_batch: true,
                eval_budget: 1_000,
                beam_width: Some(8),
            }
        );
        // Degenerate widths clamp to the greedy single-candidate beam.
        assert_eq!(
            PlanOptions::default().with_beam_width(0).beam_width,
            Some(1)
        );
    }

    #[test]
    fn memo_hit_rate_is_per_run_consistent() {
        // The rate divides hits by total lookups (hits + misses), so it
        // stays in [0, 1] even on memo-heavy cells where hits exceed
        // charged evals (dividing by evals alone reported rates above 1).
        let stats = SearchStats {
            memo_hits: 114_933_552,
            memo_misses: 35_699,
            dp_evals: 96_236_767,
            ..SearchStats::default()
        };
        let rate = stats.memo_hit_rate();
        assert!(rate > 0.99 && rate < 1.0, "rate = {rate}");
        assert_eq!(SearchStats::default().memo_hit_rate(), 0.0);
        let balanced = SearchStats {
            memo_hits: 3,
            memo_misses: 1,
            ..SearchStats::default()
        };
        assert_eq!(balanced.memo_hit_rate(), 0.75);
    }

    #[test]
    fn error_display() {
        assert!(PlanError::SearchExplosion { evals: 42 }
            .to_string()
            .contains("42"));
        assert_eq!(
            PlanError::SearchExplosion { evals: 0 }.to_string(),
            "search exploded before any DP evaluation"
        );
        assert!(PlanError::Infeasible("memory".into())
            .to_string()
            .contains("memory"));
    }
}
