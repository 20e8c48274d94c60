//! The discrete-event pipeline execution engine.
//!
//! Simulates one training iteration of a strategy: every stage replica is a
//! device executing its task order (from `gp-sched`) in order, non
//! preemptively; activations/gradients hop between stages over the cluster
//! links; data-parallel stages allreduce their gradients at the end of the
//! iteration. Because per-device task orders are fixed and dependencies
//! point backwards in each queue, makespan computation reduces to a
//! longest-path relaxation over the task DAG — no global event queue is
//! needed, and the result is deterministic.
//!
//! # Arena layout
//!
//! The engine is built for 512+ devices and 10k+ micro-batches, so the hot
//! path never hashes and never grows a container:
//!
//! * every task instance has a dense id from [`gp_sched::TaskIndex`]
//!   (`(stage, micro-batch, pass)` → flat offset); completion times, start
//!   times, and watcher lists are flat columns indexed by it;
//! * device queues live in one contiguous slab ([`Prep::tasks`]) cut by
//!   per-device offsets — a device's queue is a slice, not a `Vec`;
//! * dependency edges are per-stage CSR rows with the two possible
//!   transfer times (intra-/inter-node) precomputed per edge, so a
//!   dependency probe is an index walk plus one `max`;
//! * the relaxation itself is event-driven: a device that blocks on a
//!   missing dependency parks itself on that task's watcher list (an
//!   intrusive linked list over two preallocated columns) and is pushed
//!   back on the ready stack when the dependency completes. Total work is
//!   `O(tasks + dependency edges)` — no repeated full-device scans;
//! * activation memory is a running per-device watermark updated as tasks
//!   complete. A device's queue executes serially, so its completions are
//!   already in time order and the old sort-all-events pass is redundant
//!   (equal-time charge/release pairs only arise for zero-duration stages,
//!   which stash zero bytes — see DESIGN.md §"Memory accounting").
//!
//! Modeling notes (see DESIGN.md §"The modeling contract"):
//!
//! * replica `r` of a stage with `d` replicas processes micro-batches
//!   `mb % d == r`, matching the planner's memory accounting;
//! * links are delay-only (no contention); same-device transfers are free;
//! * activation memory is charged at forward completion and released at
//!   backward completion, plus static parameter/optimizer state.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::report::{SimError, SimReport, TaskSpan};
use gp_cluster::{Cluster, DeviceId};
use gp_cost::{CostModel, Pass};
use gp_ir::Graph;
use gp_obs::Telemetry;
use gp_sched::{covering_micro_batches, PipelineSchedule, StageGraph, StageId, TaskIndex};

/// Simulator settings: there are none.
///
/// The engine has a single mode, so this struct has no fields. It remains
/// only because [`simulate_traced`] takes it, and callers outside this
/// workspace pass `&SimOptions::default()` there.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimOptions {}

/// One task instance placed on a device queue.
#[derive(Debug, Clone, Copy)]
struct QueuedTask {
    stage: u32,
    mb: u32,
    pass: Pass,
    duration: f64,
}

/// One dependency edge of a stage: the peer stage, its micro-batch size,
/// and the transfer time of the edge payload over each link class
/// (already zero when the payload is zero bytes or the peer shares the
/// device).
#[derive(Debug, Clone, Copy)]
struct DepEdge {
    stage: u32,
    micro_batch: u64,
    t_intra: f64,
    t_inter: f64,
}

/// Everything the relaxation needs, precomputed into flat arenas.
struct Prep {
    n_dev: usize,
    idx: TaskIndex,
    // Per-stage columns (indexed by stage id).
    act_charge: Vec<u64>,
    param_bytes: Vec<u64>,
    first_dev: Vec<u32>,
    dp: Vec<u32>,
    micro_batch: Vec<u64>,
    // Forward/backward dependency CSR rows per stage.
    fdep_off: Vec<usize>,
    fdeps: Vec<DepEdge>,
    bdep_off: Vec<usize>,
    bdeps: Vec<DepEdge>,
    // Device-queue slab: queue of device `d` is `tasks[dev_off[d]..dev_off[d + 1]]`.
    tasks: Vec<QueuedTask>,
    dev_off: Vec<usize>,
    static_mem: Vec<u64>,
    node_of: Vec<u32>,
}

impl Prep {
    fn new(graph: &Graph, cluster: &Cluster, sg: &StageGraph, schedule: &PipelineSchedule) -> Prep {
        let cost = CostModel::new(cluster);
        let n_dev = cluster.device_count();
        let n = sg.len();

        let mut fwd_dur = vec![0.0f64; n];
        let mut bwd_dur = vec![0.0f64; n];
        let mut act_charge = vec![0u64; n];
        let mut param_bytes = vec![0u64; n];
        let mut first_dev = vec![0u32; n];
        let mut dp = vec![1u32; n];
        let mut micro_batch = vec![1u64; n];
        for s in sg.stages() {
            let i = s.id.index();
            fwd_dur[i] = cost.stage_time(graph, &s.ops, s.micro_batch, Pass::Forward);
            bwd_dur[i] = cost.stage_time(graph, &s.ops, s.micro_batch, Pass::Backward);
            act_charge[i] = cost.stage_activation_bytes_per_sample(graph, &s.ops) * s.micro_batch;
            param_bytes[i] = cost.stage_param_bytes(graph, &s.ops);
            first_dev[i] = s.devices.first().0;
            dp[i] = s.dp_degree() as u32;
            micro_batch[i] = s.micro_batch;
        }

        // Dependency CSR rows. The payload of the edge `p -> s` is
        // `crossing_bytes_per_sample * b_consumer`; precomputing the two
        // link-class transfer times per edge removes all link math from
        // the relaxation (and reproduces the legacy float exactly — the
        // same `latency + bytes / bandwidth` expression on the same
        // payload).
        let intra = cluster.intra_link();
        let inter = cluster.inter_link();
        // `owner` is the stage whose dependency row the edge sits on: the
        // payload scales with *its* micro-batch size (a forward receives
        // activations for its own micro-batch; a backward receives the
        // gradient of its own output), exactly as the per-probe legacy
        // engine computed it.
        let edge = |from: StageId, to: StageId, owner: StageId| -> DepEdge {
            let bytes =
                cost.crossing_bytes_per_sample(graph, &sg.stage(from).ops, &sg.stage(to).ops)
                    * sg.stage(owner).micro_batch;
            DepEdge {
                stage: 0, // caller fills the peer
                micro_batch: 0,
                t_intra: if bytes > 0 {
                    intra.transfer_time(bytes)
                } else {
                    0.0
                },
                t_inter: if bytes > 0 {
                    inter.transfer_time(bytes)
                } else {
                    0.0
                },
            }
        };
        let mut fdep_off = Vec::with_capacity(n + 1);
        let mut fdeps = Vec::new();
        let mut bdep_off = Vec::with_capacity(n + 1);
        let mut bdeps = Vec::new();
        for s in sg.stages() {
            fdep_off.push(fdeps.len());
            for &p in sg.preds(s.id) {
                fdeps.push(DepEdge {
                    stage: p.0,
                    micro_batch: sg.stage(p).micro_batch,
                    ..edge(p, s.id, s.id)
                });
            }
            bdep_off.push(bdeps.len());
            for &succ in sg.succs(s.id) {
                bdeps.push(DepEdge {
                    stage: succ.0,
                    micro_batch: sg.stage(succ).micro_batch,
                    ..edge(s.id, succ, s.id)
                });
            }
        }
        fdep_off.push(fdeps.len());
        bdep_off.push(bdeps.len());

        // Device-queue slab. Devices partition across stages (C3), so a
        // device's queue is its stage's task order filtered to the
        // replica's micro-batches — count, cut offsets, fill.
        let mut counts = vec![0usize; n_dev];
        for s in sg.stages() {
            let d = dp[s.id.index()];
            let first = first_dev[s.id.index()];
            for task in &schedule.stage(s.id).tasks {
                counts[(first + task.mb % d) as usize] += 1;
            }
        }
        let mut dev_off = Vec::with_capacity(n_dev + 1);
        let mut total = 0usize;
        for &c in &counts {
            dev_off.push(total);
            total += c;
        }
        dev_off.push(total);
        let mut cursor = dev_off[..n_dev].to_vec();
        let mut tasks = vec![
            QueuedTask {
                stage: 0,
                mb: 0,
                pass: Pass::Forward,
                duration: 0.0,
            };
            total
        ];
        for s in sg.stages() {
            let i = s.id.index();
            for task in &schedule.stage(s.id).tasks {
                let dev = (first_dev[i] + task.mb % dp[i]) as usize;
                tasks[cursor[dev]] = QueuedTask {
                    stage: s.id.0,
                    mb: task.mb,
                    pass: task.pass,
                    duration: match task.pass {
                        Pass::Forward => fwd_dur[i],
                        Pass::Backward => bwd_dur[i],
                    },
                };
                cursor[dev] += 1;
            }
        }

        let mut static_mem = vec![0u64; n_dev];
        for s in sg.stages() {
            let stat = param_bytes[s.id.index()] / gp_ir::BYTES_PER_ELEMENT
                * gp_cost::BYTES_PER_PARAM_STATE;
            for d in s.devices.iter() {
                static_mem[d.index()] += stat;
            }
        }
        let node_of = (0..n_dev as u32)
            .map(|d| cluster.node_of(DeviceId(d)) as u32)
            .collect();

        Prep {
            n_dev,
            idx: TaskIndex::new(sg),
            act_charge,
            param_bytes,
            first_dev,
            dp,
            micro_batch,
            fdep_off,
            fdeps,
            bdep_off,
            bdeps,
            tasks,
            dev_off,
            static_mem,
            node_of,
        }
    }

    /// The device hosting `(stage, mb)` — replica `mb % d`.
    #[inline]
    fn replica_device(&self, stage: u32, mb: u32) -> u32 {
        self.first_dev[stage as usize] + mb % self.dp[stage as usize]
    }

    /// The queue slice of a device.
    #[inline]
    fn queue(&self, dev: usize) -> &[QueuedTask] {
        &self.tasks[self.dev_off[dev]..self.dev_off[dev + 1]]
    }

    /// Transfer delay of `edge`'s payload from `from` to `me` (free on the
    /// same device, zero when the payload is empty).
    #[inline]
    fn hop(&self, edge: &DepEdge, from: u32, me: u32) -> f64 {
        if from == me {
            0.0
        } else if self.node_of[from as usize] == self.node_of[me as usize] {
            edge.t_intra
        } else {
            edge.t_inter
        }
    }

    /// Earliest time every dependency of `t` (on device `me`) has arrived,
    /// or `Err(dep)` with the dense id of the first dependency that has
    /// not completed yet.
    ///
    /// `done_at` returns a task's completion time once it is scheduled.
    #[inline]
    fn ready_time(
        &self,
        t: &QueuedTask,
        me: u32,
        done_at: impl Fn(usize) -> Option<f64>,
    ) -> Result<f64, usize> {
        let s = t.stage as usize;
        let b_me = self.micro_batch[s];
        let mut ready = 0.0f64;
        // Uniform micro-batch sizes (the overwhelmingly common case) cover
        // exactly the peer's same-numbered micro-batch; skipping the
        // `covering_micro_batches` divisions there is a measurable win at
        // 10k+ micro-batches.
        let cover = |b_peer: u64, mb: u32| -> std::ops::Range<u32> {
            if b_peer == b_me {
                mb..mb + 1
            } else {
                covering_micro_batches(b_peer, b_me, mb)
            }
        };
        match t.pass {
            Pass::Forward => {
                for e in &self.fdeps[self.fdep_off[s]..self.fdep_off[s + 1]] {
                    for mb_p in cover(e.micro_batch, t.mb) {
                        let dep = self.idx.index(StageId(e.stage), mb_p, Pass::Forward);
                        let Some(c) = done_at(dep) else {
                            return Err(dep);
                        };
                        let from = self.replica_device(e.stage, mb_p);
                        ready = ready.max(c + self.hop(e, from, me));
                    }
                }
            }
            Pass::Backward => {
                let own = self.idx.index(StageId(t.stage), t.mb, Pass::Forward);
                let Some(c) = done_at(own) else {
                    return Err(own);
                };
                ready = ready.max(c);
                for e in &self.bdeps[self.bdep_off[s]..self.bdep_off[s + 1]] {
                    for mb_s in cover(e.micro_batch, t.mb) {
                        let dep = self.idx.index(StageId(e.stage), mb_s, Pass::Backward);
                        let Some(c) = done_at(dep) else {
                            return Err(dep);
                        };
                        let from = self.replica_device(e.stage, mb_s);
                        ready = ready.max(c + self.hop(e, from, me));
                    }
                }
            }
        }
        Ok(ready)
    }
}

/// Per-device mutable state of the relaxation.
#[derive(Debug, Clone)]
struct DeviceState {
    head: usize,
    busy_until: f64,
    busy_total: f64,
    cur_mem: u64,
    peak_mem: u64,
}

impl DeviceState {
    fn new(static_mem: u64) -> DeviceState {
        DeviceState {
            head: 0,
            busy_until: 0.0,
            busy_total: 0.0,
            cur_mem: static_mem,
            peak_mem: static_mem,
        }
    }

    /// Commits one scheduled task: advances the queue head, the busy
    /// clock, and the activation watermark (charge at forward completion,
    /// release at backward completion).
    #[inline]
    fn commit(&mut self, t: &QueuedTask, end: f64, act_charge: u64) {
        self.busy_until = end;
        self.busy_total += t.duration;
        self.head += 1;
        match t.pass {
            Pass::Forward => {
                self.cur_mem += act_charge;
                self.peak_mem = self.peak_mem.max(self.cur_mem);
            }
            Pass::Backward => self.cur_mem -= act_charge,
        }
    }
}

/// Output of the relaxation.
struct Relaxed {
    completion: Vec<f64>,
    start: Vec<f64>,
    busy_until: Vec<f64>,
    busy_total: Vec<f64>,
    peak_mem: Vec<u64>,
    /// Engine-mechanics counters for telemetry; they never reach report
    /// data.
    parks: u64,
    wakes: u64,
}

/// The relaxation: an explicit ready stack of devices plus an intrusive
/// watcher list per task. A blocked device parks on the first missing
/// dependency and is re-pushed exactly when that task completes, so every
/// task is examined `O(1 + its dependency count)` times.
fn relax(prep: &Prep) -> Result<Relaxed, SimError> {
    let n = prep.idx.len();
    let n_dev = prep.n_dev;
    let mut completion = vec![f64::NAN; n];
    let mut start = vec![f64::NAN; n];
    let mut done = vec![false; n];
    let mut watcher_head = vec![u32::MAX; n];
    let mut watcher_next = vec![u32::MAX; n_dev];
    let mut dev = (0..n_dev)
        .map(|d| DeviceState::new(prep.static_mem[d]))
        .collect::<Vec<_>>();
    let mut stack: Vec<u32> = (0..n_dev as u32).collect();
    let total: usize = prep.tasks.len();
    let mut remaining = total;
    let mut parks = 0u64;
    let mut wakes = 0u64;

    while let Some(d) = stack.pop() {
        let queue = prep.queue(d as usize);
        let state = &mut dev[d as usize];
        while state.head < queue.len() {
            let t = &queue[state.head];
            match prep.ready_time(t, d, |dep| done[dep].then(|| completion[dep])) {
                Err(dep) => {
                    // Park on the missing dependency's watcher list.
                    watcher_next[d as usize] = watcher_head[dep];
                    watcher_head[dep] = d;
                    parks += 1;
                    break;
                }
                Ok(ready) => {
                    let t_start = state.busy_until.max(ready);
                    let t_end = t_start + t.duration;
                    let ti = prep.idx.index(StageId(t.stage), t.mb, t.pass);
                    completion[ti] = t_end;
                    start[ti] = t_start;
                    done[ti] = true;
                    state.commit(t, t_end, prep.act_charge[t.stage as usize]);
                    remaining -= 1;
                    // Wake every device parked on this task.
                    let mut w = watcher_head[ti];
                    watcher_head[ti] = u32::MAX;
                    while w != u32::MAX {
                        stack.push(w);
                        wakes += 1;
                        let next = watcher_next[w as usize];
                        watcher_next[w as usize] = u32::MAX;
                        w = next;
                    }
                }
            }
        }
    }
    if remaining > 0 {
        return Err(SimError::Deadlock {
            completed: total - remaining,
            total,
        });
    }
    Ok(Relaxed {
        completion,
        start,
        busy_until: dev.iter().map(|s| s.busy_until).collect(),
        busy_total: dev.iter().map(|s| s.busy_total).collect(),
        peak_mem: dev.iter().map(|s| s.peak_mem).collect(),
        parks,
        wakes,
    })
}

/// Simulates one synchronous training iteration of a strategy.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] when the task orders are mutually
/// inconsistent (e.g. a hand-crafted schedule with insufficient warm-up),
/// and [`SimError::MissingSchedule`] when the schedule does not cover every
/// stage.
pub fn simulate(
    graph: &Graph,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
) -> Result<SimReport, SimError> {
    simulate_traced(
        graph,
        cluster,
        sg,
        schedule,
        &SimOptions::default(),
        &Telemetry::disabled(),
    )
}

/// [`simulate`], emitting spans (`sim.prep` / `sim.relax` /
/// `sim.finalize`) and engine counters (`sim.tasks`,
/// `sim.watcher_parks`, `sim.watcher_wakes`) into `telemetry`.
///
/// Telemetry is write-only: the returned report — including its
/// [`SimReport::fingerprint`](crate::SimReport::fingerprint) — is
/// byte-identical whether `telemetry` is enabled, disabled, or absent
/// (the golden sim tests assert this).
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_traced(
    graph: &Graph,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    _options: &SimOptions,
    telemetry: &Telemetry,
) -> Result<SimReport, SimError> {
    if schedule.per_stage.len() != sg.len() {
        return Err(SimError::MissingSchedule {
            stages: sg.len(),
            schedules: schedule.per_stage.len(),
        });
    }
    let cost = CostModel::new(cluster);
    let n_dev = cluster.device_count();
    let mini_batch = sg.mini_batch();
    let prep_span = telemetry.span("sim.prep");
    let prep = Prep::new(graph, cluster, sg, schedule);
    drop(prep_span);
    let total_tasks = prep.tasks.len();

    let relax_span = telemetry.span_with("sim.relax", total_tasks as u64);
    let relaxed = relax(&prep)?;
    drop(relax_span);
    if telemetry.is_enabled() {
        telemetry.counter_add("sim.tasks", total_tasks as u64);
        telemetry.counter_add("sim.watcher_parks", relaxed.parks);
        telemetry.counter_add("sim.watcher_wakes", relaxed.wakes);
        telemetry.gauge_set("sim.devices", n_dev as i64);
    }
    let _finalize_span = telemetry.span("sim.finalize");
    let Relaxed {
        completion,
        start: start_time,
        busy_until,
        mut busy_total,
        peak_mem: peak_memory,
        ..
    } = relaxed;

    // Gradient allreduce per data-parallel stage, after its last backward.
    let mut device_end = busy_until.clone();
    for s in sg.stages() {
        let ar = cost.allreduce_time(prep.param_bytes[s.id.index()], &s.devices);
        if ar > 0.0 {
            let stage_last = s
                .devices
                .iter()
                .map(|d| busy_until[d.index()])
                .fold(0.0f64, f64::max);
            for d in s.devices.iter() {
                device_end[d.index()] = device_end[d.index()].max(stage_last + ar);
                busy_total[d.index()] += ar;
            }
        }
    }
    let iteration_time = device_end.iter().copied().fold(0.0f64, f64::max);

    // Timeline spans for rendering, straight out of the columns, sorted
    // by the total key `(start, device, stage, mb, pass)` — ties on start
    // time are broken structurally rather than by construction order, so
    // the timeline (and everything rendered from it, e.g. Gantt charts)
    // is byte-for-byte deterministic for a given strategy. The key is
    // unique per span ((stage, mb, pass) alone already is), so any sort
    // has a single valid output.
    //
    // Fast path: start times are non-negative, so `f64::total_cmp` order
    // equals unsigned bit-pattern order, and when the id spaces fit their
    // bit budgets (devices/stages < 2^20, micro-batches < 2^23 — far
    // beyond any simulated strategy) the whole key packs into one `u128`.
    // Sorting primitive keys and materializing spans afterwards is ~2x
    // faster than sorting 40-byte spans with a comparator.
    let max_mbs = sg
        .stages()
        .map(|s| s.num_micro_batches(mini_batch))
        .max()
        .unwrap_or(0);
    let packable = n_dev < (1 << 20) && sg.len() < (1 << 20) && max_mbs < (1 << 23);
    let timeline = if packable {
        let mut keys: Vec<u128> = Vec::with_capacity(total_tasks);
        for s in sg.stages() {
            let m = s.num_micro_batches(mini_batch) as u32;
            for mb in 0..m {
                let dev = prep.replica_device(s.id.0, mb) as u64;
                let tie_fwd = (dev << 44) | ((s.id.0 as u64) << 24) | ((mb as u64) << 1);
                for pass in [Pass::Forward, Pass::Backward] {
                    let ti = prep.idx.index(s.id, mb, pass);
                    let tie = tie_fwd | pass as u64;
                    keys.push(((start_time[ti].to_bits() as u128) << 64) | tie as u128);
                }
            }
        }
        keys.sort_unstable();
        keys.into_iter()
            .map(|key| {
                let tie = key as u64;
                let device = DeviceId((tie >> 44) as u32);
                let stage = StageId(((tie >> 24) & 0xf_ffff) as u32);
                let mb = ((tie >> 1) & 0x7f_ffff) as u32;
                let pass = if tie & 1 == 0 {
                    Pass::Forward
                } else {
                    Pass::Backward
                };
                let ti = prep.idx.index(stage, mb, pass);
                TaskSpan {
                    device,
                    stage,
                    mb,
                    pass,
                    start: f64::from_bits((key >> 64) as u64),
                    end: completion[ti],
                }
            })
            .collect()
    } else {
        let mut timeline = Vec::with_capacity(total_tasks);
        for s in sg.stages() {
            let m = s.num_micro_batches(mini_batch) as u32;
            for mb in 0..m {
                let device = DeviceId(prep.replica_device(s.id.0, mb));
                for pass in [Pass::Forward, Pass::Backward] {
                    let ti = prep.idx.index(s.id, mb, pass);
                    timeline.push(TaskSpan {
                        device,
                        stage: s.id,
                        mb,
                        pass,
                        start: start_time[ti],
                        end: completion[ti],
                    });
                }
            }
        }
        timeline.sort_unstable_by(|a, b| {
            let ka = (a.device, a.stage, a.mb, a.pass as u8);
            let kb = (b.device, b.stage, b.mb, b.pass as u8);
            a.start.total_cmp(&b.start).then(ka.cmp(&kb))
        });
        timeline
    };

    // Warm-up: the moment every stage has begun working — the max over
    // stages of the min start time, read straight off the start column
    // (each stage owns a contiguous block of it).
    let warmup_time = sg
        .stages()
        .map(|s| {
            start_time[prep.idx.stage_tasks(s.id)]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max);

    let busy_sum: f64 = busy_total.iter().sum();
    let utilization = if iteration_time > 0.0 {
        busy_sum / (iteration_time * n_dev as f64)
    } else {
        0.0
    };

    Ok(SimReport {
        iteration_time,
        throughput: mini_batch as f64 / iteration_time,
        utilization,
        bubble_fraction: 1.0 - utilization,
        warmup_time,
        per_device_busy: busy_total,
        peak_memory_bytes: peak_memory,
        timeline,
        mini_batch,
    })
}
