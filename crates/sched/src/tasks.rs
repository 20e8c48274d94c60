//! Per-stage task orders (the micro-batch schedules `Pi_i` of §3/§6).
//!
//! `ScheduleTask` in Algorithm 2 "adopts greedy scheduling that schedules
//! backward passes as early as possible". Concretely each stage runs a
//! kFkB order: `l` warm-up forwards, then alternating groups of `k`
//! backwards and `k` forwards, then the remaining backwards — with `l`
//! chosen as the minimal in-flight count from
//! [`crate::inflight::assign_in_flight`].
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::inflight::InFlightTable;
use crate::stage::{StageGraph, StageId};
use gp_cost::Pass;
use std::fmt;
use std::ops::Range;

/// One forward or backward pass of one micro-batch on one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// Forward or backward.
    pub pass: Pass,
    /// Micro-batch index within the mini-batch (stage-local numbering).
    pub mb: u32,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pass {
            Pass::Forward => write!(f, "F{}", self.mb + 1),
            Pass::Backward => write!(f, "B{}", self.mb + 1),
        }
    }
}

/// The ordered task list of one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    /// The stage this order belongs to.
    pub stage: StageId,
    /// Warm-up length `l` in micro-batches.
    pub warmup: u64,
    /// The complete ordered pass list for one training iteration.
    pub tasks: Vec<Task>,
}

impl StageSchedule {
    /// Builds the kFkB order for a stage with `num_micro_batches` tasks per
    /// direction, warm-up `warmup` (clamped to feasible values) and group
    /// size `k` (clamped to the micro-batch count: every larger `k` runs
    /// all forwards, then all backwards).
    ///
    /// # Panics
    ///
    /// Panics if `num_micro_batches == 0` or `k == 0`.
    pub fn kfkb(stage: StageId, num_micro_batches: u64, warmup: u64, k: u64) -> Self {
        assert!(num_micro_batches > 0, "need at least one micro-batch");
        assert!(k > 0, "kFkB requires k >= 1");
        let m = num_micro_batches;
        let k = k.min(m);
        let l = warmup.max(k).min(m);
        let mut tasks = Vec::with_capacity(2 * m as usize);
        for mb in 0..l {
            tasks.push(Task {
                pass: Pass::Forward,
                mb: mb as u32,
            });
        }
        let (mut next_f, mut next_b) = (l, 0u64);
        while next_b < m {
            for _ in 0..k {
                if next_b < next_f && next_b < m {
                    tasks.push(Task {
                        pass: Pass::Backward,
                        mb: next_b as u32,
                    });
                    next_b += 1;
                }
            }
            for _ in 0..k {
                if next_f < m {
                    tasks.push(Task {
                        pass: Pass::Forward,
                        mb: next_f as u32,
                    });
                    next_f += 1;
                }
            }
        }
        StageSchedule {
            stage,
            warmup: l,
            tasks,
        }
    }

    /// Peak number of in-flight micro-batches over the whole order
    /// (forwards executed minus backwards executed, maximized over
    /// prefixes).
    pub fn peak_in_flight_micro_batches(&self) -> u64 {
        let mut cur: i64 = 0;
        let mut peak: i64 = 0;
        for t in &self.tasks {
            match t.pass {
                Pass::Forward => cur += 1,
                Pass::Backward => cur -= 1,
            }
            peak = peak.max(cur);
        }
        peak as u64
    }
}

/// The complete static schedule of a strategy: one task order per stage.
///
/// # Examples
///
/// ```
/// use gp_sched::{PipelineSchedule, StageId, StageSchedule};
///
/// // Two 1F1B stages over 4 micro-batches; the upstream stage warms up
/// // one extra micro-batch.
/// let schedule = PipelineSchedule {
///     per_stage: vec![
///         StageSchedule::kfkb(StageId(0), 4, 2, 1),
///         StageSchedule::kfkb(StageId(1), 4, 1, 1),
///     ],
/// };
/// assert_eq!(schedule.stage(StageId(0)).warmup, 2);
/// assert_eq!(schedule.stage(StageId(0)).tasks.len(), 8); // 4 F + 4 B
/// assert_eq!(schedule.stage(StageId(1)).peak_in_flight_micro_batches(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSchedule {
    /// Task orders indexed by stage id.
    pub per_stage: Vec<StageSchedule>,
}

impl PipelineSchedule {
    /// The schedule of a stage.
    pub fn stage(&self, id: StageId) -> &StageSchedule {
        &self.per_stage[id.index()]
    }
}

/// Generates the full pipeline schedule from a stage graph and its
/// in-flight table (the output of Algorithm 2 applied to every stage).
pub fn schedule_tasks(sg: &StageGraph, inflight: &InFlightTable) -> PipelineSchedule {
    let per_stage = sg
        .stages()
        .map(|s| {
            let m = s.num_micro_batches(sg.mini_batch());
            let warmup = inflight.micro_batches(sg, s.id);
            StageSchedule::kfkb(s.id, m, warmup, s.kfkb)
        })
        .collect();
    PipelineSchedule { per_stage }
}

/// Dense index over every task instance `(stage, micro-batch, pass)` of
/// one training iteration.
///
/// Stages own contiguous index blocks in id order; within a stage, tasks
/// are laid out `[F(0), B(0), F(1), B(1), ...]`. The index is what lets
/// per-task state live in flat, preallocated columns instead of hash maps
/// — `gp-sim`'s relaxation engine keys its completion-time, span, and
/// watcher arenas by it.
///
/// # Examples
///
/// ```
/// use gp_cluster::{Cluster, DeviceRange};
/// use gp_cost::Pass;
/// use gp_ir::zoo;
/// use gp_sched::{Stage, StageGraph, StageId, TaskIndex};
///
/// let model = zoo::mlp_chain(2, 8);
/// let ops = model.linearize();
/// let cluster = Cluster::tiny_test(2);
/// let stages = vec![
///     Stage { id: StageId(0), ops: ops[..3].to_vec(),
///             devices: DeviceRange::new(0, 1), micro_batch: 2, kfkb: 1 },
///     Stage { id: StageId(1), ops: ops[3..].to_vec(),
///             devices: DeviceRange::new(1, 1), micro_batch: 2, kfkb: 1 },
/// ];
/// let sg = StageGraph::new(model.graph(), &cluster, stages, 8)?;
/// let idx = TaskIndex::new(&sg);
/// assert_eq!(idx.len(), 16); // 2 stages x 4 micro-batches x 2 passes
/// let i = idx.index(StageId(1), 3, Pass::Backward);
/// assert_eq!(idx.task_at(i), (StageId(1), 3, Pass::Backward));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskIndex {
    /// `offsets[s]..offsets[s + 1]` is stage `s`'s index block.
    offsets: Vec<usize>,
    total: usize,
}

impl TaskIndex {
    /// Builds the index for a stage graph (each stage contributes
    /// `2 * B / b_i` task instances).
    pub fn new(sg: &StageGraph) -> TaskIndex {
        let mut offsets = Vec::with_capacity(sg.len() + 1);
        let mut total = 0usize;
        for s in sg.stages() {
            offsets.push(total);
            total += 2 * s.num_micro_batches(sg.mini_batch()) as usize;
        }
        offsets.push(total);
        TaskIndex { offsets, total }
    }

    /// The dense index of one task instance.
    ///
    /// `mb` must be below the stage's micro-batch count: the mapping is
    /// only a bijection in range, and an out-of-range `mb` would alias
    /// into the next stage's block (checked by a `debug_assert`; release
    /// builds do not pay for the bounds check on this hot path).
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not belong to the indexed graph, and — in
    /// debug builds — if `mb` is out of range for the stage.
    pub fn index(&self, stage: StageId, mb: u32, pass: Pass) -> usize {
        let p = match pass {
            Pass::Forward => 0,
            Pass::Backward => 1,
        };
        let i = self.offsets[stage.index()] + 2 * mb as usize + p;
        debug_assert!(
            i < self.offsets[stage.index() + 1],
            "micro-batch {mb} out of range for {stage}"
        );
        i
    }

    /// Total number of task instances across all stages.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the iteration has no tasks (never true for a validated
    /// stage graph with a positive mini-batch).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The contiguous index range owned by a stage.
    pub fn stage_tasks(&self, stage: StageId) -> Range<usize> {
        self.offsets[stage.index()]..self.offsets[stage.index() + 1]
    }

    /// Inverts a dense index back to `(stage, micro-batch, pass)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn task_at(&self, i: usize) -> (StageId, u32, Pass) {
        assert!(i < self.total, "task index {i} out of range");
        // The last offset <= i locates the owning stage.
        let s = self.offsets.partition_point(|&o| o <= i) - 1;
        let local = i - self.offsets[s];
        let pass = if local.is_multiple_of(2) {
            Pass::Forward
        } else {
            Pass::Backward
        };
        (StageId(s as u32), (local / 2) as u32, pass)
    }
}

/// The producer micro-batches (of size `b_producer`) that cover consumer
/// micro-batch `mb_consumer` of size `b_consumer`.
///
/// Micro-batches partition the sample axis contiguously, so the covering
/// set is a range. With power-of-two sizes the cover is exact.
pub fn covering_micro_batches(b_producer: u64, b_consumer: u64, mb_consumer: u32) -> Range<u32> {
    let lo = (mb_consumer as u64 * b_consumer) / b_producer;
    let hi = ((mb_consumer as u64 + 1) * b_consumer).div_ceil(b_producer);
    lo as u32..hi as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(s: &StageSchedule) -> String {
        s.tasks
            .iter()
            .map(Task::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn sink_1f1b_alternates() {
        let s = StageSchedule::kfkb(StageId(0), 4, 1, 1);
        assert_eq!(render(&s), "F1 B1 F2 B2 F3 B3 F4 B4");
        assert_eq!(s.peak_in_flight_micro_batches(), 1);
    }

    #[test]
    fn classic_1f1b_with_warmup_two() {
        let s = StageSchedule::kfkb(StageId(0), 4, 2, 1);
        assert_eq!(render(&s), "F1 F2 B1 F3 B2 F4 B3 B4");
        assert_eq!(s.peak_in_flight_micro_batches(), 2);
    }

    #[test]
    fn kfkb_groups_of_two() {
        let s = StageSchedule::kfkb(StageId(0), 4, 2, 2);
        assert_eq!(render(&s), "F1 F2 B1 B2 F3 F4 B3 B4");
        assert_eq!(s.peak_in_flight_micro_batches(), 2);
    }

    #[test]
    fn warmup_clamped_to_micro_batch_count() {
        let s = StageSchedule::kfkb(StageId(0), 2, 8, 1);
        assert_eq!(render(&s), "F1 F2 B1 B2");
        assert_eq!(s.warmup, 2);
    }

    #[test]
    fn warmup_at_least_k() {
        let s = StageSchedule::kfkb(StageId(0), 8, 1, 2);
        assert_eq!(
            render(&s),
            "F1 F2 B1 B2 F3 F4 B3 B4 F5 F6 B5 B6 F7 F8 B7 B8"
        );
        assert_eq!(s.warmup, 2);
        assert_eq!(s.peak_in_flight_micro_batches(), 2);
    }

    #[test]
    fn k_beyond_the_micro_batch_count_is_clamped() {
        let clamped = StageSchedule::kfkb(StageId(0), 4, 1, 4);
        assert_eq!(render(&clamped), "F1 F2 F3 F4 B1 B2 B3 B4");
        // Unclamped, each group loop spins u64::MAX times: build on a
        // thread so a regression fails the test instead of hanging it.
        let (done, built) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(StageSchedule::kfkb(StageId(0), 4, 1, u64::MAX)));
        let huge = built
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("k = u64::MAX never finished");
        assert_eq!(render(&huge), render(&clamped));
        assert_eq!(huge.warmup, clamped.warmup);
    }

    #[test]
    fn peak_matches_warmup() {
        for m in [1u64, 2, 4, 8, 16] {
            for l in 1..=m {
                for k in [1u64, 2, 4] {
                    let s = StageSchedule::kfkb(StageId(0), m, l, k);
                    assert_eq!(
                        s.peak_in_flight_micro_batches(),
                        l.max(k).min(m),
                        "m={m} l={l} k={k}: {}",
                        render(&s)
                    );
                }
            }
        }
    }

    #[test]
    fn covering_micro_batches_uniform() {
        assert_eq!(covering_micro_batches(4, 4, 3), 3..4);
    }

    #[test]
    fn covering_micro_batches_producer_smaller() {
        // Consumer batch of 4 needs two producer batches of 2.
        assert_eq!(covering_micro_batches(2, 4, 0), 0..2);
        assert_eq!(covering_micro_batches(2, 4, 1), 2..4);
    }

    #[test]
    fn covering_micro_batches_producer_larger() {
        // Consumer batch of 2 fits inside one producer batch of 4.
        assert_eq!(covering_micro_batches(4, 2, 0), 0..1);
        assert_eq!(covering_micro_batches(4, 2, 1), 0..1);
        assert_eq!(covering_micro_batches(4, 2, 2), 1..2);
    }

    #[test]
    fn task_index_roundtrip() {
        use crate::stage::StageGraph;
        use gp_cluster::{Cluster, DeviceRange};

        // Two stages with different micro-batch sizes: 4 + 2 micro-batches.
        let model = gp_ir::zoo::mlp_chain(2, 8);
        let ops = model.linearize();
        let stages = vec![
            crate::Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            crate::Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: 4,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &Cluster::tiny_test(2), stages, 8).unwrap();
        let idx = TaskIndex::new(&sg);
        assert_eq!(idx.len(), 2 * 4 + 2 * 2);
        assert!(!idx.is_empty());
        assert_eq!(idx.stage_tasks(StageId(0)), 0..8);
        assert_eq!(idx.stage_tasks(StageId(1)), 8..12);
        // Every dense index inverts to the tuple that produced it.
        let mut seen = vec![false; idx.len()];
        for (stage, m) in [(StageId(0), 4u32), (StageId(1), 2u32)] {
            for mb in 0..m {
                for pass in [Pass::Forward, Pass::Backward] {
                    let i = idx.index(stage, mb, pass);
                    assert_eq!(idx.task_at(i), (stage, mb, pass));
                    assert!(!seen[i], "index {i} assigned twice");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "dense indices must be a bijection");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn task_index_rejects_out_of_range() {
        let model = gp_ir::zoo::mlp_chain(2, 8);
        let ops = model.linearize();
        let stages = vec![crate::Stage {
            id: StageId(0),
            ops,
            devices: gp_cluster::DeviceRange::new(0, 1),
            micro_batch: 2,
            kfkb: 1,
        }];
        let sg =
            crate::StageGraph::new(model.graph(), &gp_cluster::Cluster::tiny_test(1), stages, 8)
                .unwrap();
        let idx = TaskIndex::new(&sg);
        let _ = idx.task_at(idx.len());
    }

    #[test]
    fn task_display() {
        let f = Task {
            pass: Pass::Forward,
            mb: 0,
        };
        let b = Task {
            pass: Pass::Backward,
            mb: 3,
        };
        assert_eq!(f.to_string(), "F1");
        assert_eq!(b.to_string(), "B4");
    }
}
