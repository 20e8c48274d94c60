//! # gp-cost — analytic cost, communication, and memory models
//!
//! GraphPipe estimates stage Time-Per-Sample "by profiling the execution
//! time of each operator while extrapolating communication latency by affine
//! functions" (§5) and checks per-device memory budgets (Equation 2). With
//! no GPUs available, this crate substitutes profiling with a roofline
//! model over the analytic FLOP/byte counts `gp-ir` records per operator
//! once, when it builds the graph, so no cost query walks shapes or
//! allocates:
//!
//! * **compute time** — `flops / (peak * efficiency(micro_batch))`, where the
//!   saturating efficiency curve reproduces the paper's "larger micro-batches
//!   improve operational intensity" effect (§2, §7.3);
//! * **memory time** — `moved_bytes / mem_bandwidth`; the slower of the two
//!   wins (roofline), plus a fixed kernel overhead;
//! * **communication** — affine `latency + bytes/bandwidth` per transfer,
//!   ring-allreduce for data-parallel weight synchronization;
//! * **memory** — weights + gradients + Adam states (16 bytes/param fp32)
//!   plus stashed activations proportional to the number of in-flight
//!   samples, the quantity GPP minimizes.
//!
//! Every planner prices a candidate stage through the same three pieces:
//! an [`OpTable`] of per-op times at the search's micro-batch sizes, which
//! the planner sums with the graph's per-op bytes over the stage's
//! operators;
//! [`CostModel::candidate_tps`] for its Time-Per-Sample; and
//! [`CostModel::stage_memory`] for its Equation 2 memory, which
//! [`CostModel::stage_memory_bytes`] (and so `Plan::measure` and
//! gp-verify) share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use gp_cluster::{Cluster, DeviceId, DeviceRange, LinkProfile};
use gp_ir::{Graph, OpId};

/// Direction of a pass through (part of) the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Forward pass.
    Forward,
    /// Backward pass (weight and input gradients).
    Backward,
}

/// Bytes of optimizer state kept per parameter: fp32 weight + gradient +
/// two Adam moments.
pub const BYTES_PER_PARAM_STATE: u64 = 16;

/// Analytic cost model bound to a cluster's device profile.
///
/// # Examples
///
/// ```
/// use gp_cluster::Cluster;
/// use gp_cost::{CostModel, Pass};
/// use gp_ir::zoo::{self, MmtConfig};
///
/// let model = zoo::mmt(&MmtConfig::default());
/// let cluster = Cluster::summit_like(4);
/// let cost = CostModel::new(&cluster);
/// let ops: Vec<_> = model.graph().nodes().map(|n| n.id).collect();
/// let fwd = cost.stage_time(model.graph(), &ops, 4, Pass::Forward);
/// let bwd = cost.stage_time(model.graph(), &ops, 4, Pass::Backward);
/// assert!(bwd > fwd); // backward does roughly twice the work
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    cluster: Cluster,
    /// [`CostModel::default_boundary_link`], looked up once.
    boundary: LinkProfile,
}

impl CostModel {
    /// Binds the model to a cluster (its device profile and links).
    pub fn new(cluster: &Cluster) -> Self {
        let last = DeviceId(cluster.device_count() as u32 - 1);
        CostModel {
            cluster: cluster.clone(),
            boundary: cluster.link(DeviceId(0), last),
        }
    }

    /// Per-device memory budget in bytes (`M` of Equation 2).
    pub fn memory_budget(&self) -> u64 {
        self.cluster.profile().mem_capacity
    }

    /// Execution time of one operator on one device for a micro-batch of
    /// `micro_batch` samples, in seconds.
    pub fn op_time(&self, graph: &Graph, op: OpId, micro_batch: u64, pass: Pass) -> f64 {
        let p = self.cluster.profile();
        let flops_per_sample = match pass {
            Pass::Forward => graph.forward_flops(op),
            Pass::Backward => graph.backward_flops(op),
        };
        if flops_per_sample == 0 {
            return 0.0;
        }
        // In f64, which cannot wrap at huge micro-batches. Below 2^53 both
        // factors convert exactly and the product rounds once, to what an
        // unwrapped u64 product converts to.
        let flops = flops_per_sample as f64 * micro_batch as f64;
        // Moved bytes: inputs + output per sample, plus one read of the
        // weights per kernel launch.
        let io_per_sample = graph.input_bytes(op) + graph.output_bytes(op);
        let weight_bytes = graph.param_bytes(op);
        // In f64 too, as the FLOPs: below 2^53 every term converts exactly
        // and the sum rounds as the unwrapped u64 sum converts.
        let moved = (io_per_sample as f64 * micro_batch as f64 + weight_bytes as f64)
            * match pass {
                Pass::Forward => 1.0,
                Pass::Backward => 2.0,
            };
        let t_compute = flops / (p.peak_flops * p.efficiency(micro_batch));
        let t_memory = moved / p.mem_bandwidth;
        p.kernel_overhead + t_compute.max(t_memory)
    }

    /// Execution time of a set of operators run back-to-back on one device.
    pub fn stage_time(&self, graph: &Graph, ops: &[OpId], micro_batch: u64, pass: Pass) -> f64 {
        ops.iter()
            .map(|&op| self.op_time(graph, op, micro_batch, pass))
            .sum()
    }

    /// Steady-state Time-Per-Sample of a stage (§3): compute per sample on
    /// its data-parallel replicas plus amortized weight synchronization.
    ///
    /// `mini_batch` is the global mini-batch size `B`; the per-iteration
    /// allreduce cost is amortized over it.
    pub fn stage_tps(
        &self,
        graph: &Graph,
        ops: &[OpId],
        micro_batch: u64,
        devices: &DeviceRange,
        mini_batch: u64,
    ) -> f64 {
        assert!(micro_batch > 0 && mini_batch > 0);
        // Micro-batches round-robin over replicas: with m = B/b of them on
        // |D_i| replicas, the slowest replica runs ceil(m/|D_i|) of them, so
        // the effective data-parallel degree is m / ceil(m / |D_i|).
        let m = (mini_batch / micro_batch).max(1);
        let d = m as f64 / m.div_ceil(devices.len() as u64) as f64;
        let t_micro = self.stage_time(graph, ops, micro_batch, Pass::Forward)
            + self.stage_time(graph, ops, micro_batch, Pass::Backward);
        let compute_tps = t_micro / (micro_batch as f64 * d);
        let weight_bytes = self.stage_param_bytes(graph, ops);
        let sync_tps = self.allreduce_time(weight_bytes, devices) / mini_batch as f64;
        compute_tps + sync_tps
    }

    /// Bytes of learnable parameters held by a stage (per replica).
    pub fn stage_param_bytes(&self, graph: &Graph, ops: &[OpId]) -> u64 {
        ops.iter().map(|&op| graph.param_bytes(op)).sum()
    }

    /// Activation bytes a stage must stash per in-flight sample.
    pub fn stage_activation_bytes_per_sample(&self, graph: &Graph, ops: &[OpId]) -> u64 {
        ops.iter().map(|&op| graph.stashed_bytes(op)).sum()
    }

    /// Per-replica in-flight samples: in-flight micro-batches are
    /// distributed round-robin over replicas, so each replica stashes whole
    /// micro-batches.
    #[inline]
    fn in_flight_per_replica(in_flight_samples: u64, micro_batch: u64, dp_degree: usize) -> u64 {
        assert!(dp_degree >= 1 && micro_batch >= 1);
        // Micro-batch sizes are powers of two in practice; a shift-based
        // ceiling division (bit-identical to `div_ceil` for powers of two)
        // keeps this off the planner's integer-divide critical path.
        let whole_micro_batches = if micro_batch.is_power_of_two() {
            (in_flight_samples >> micro_batch.trailing_zeros())
                + u64::from(in_flight_samples & (micro_batch - 1) != 0)
        } else {
            in_flight_samples.div_ceil(micro_batch)
        };
        // 32-bit hardware division is markedly cheaper than 64-bit; the
        // counts here are tiny in practice, so take the narrow path when
        // the operands allow it (identical quotients either way).
        let groups = if whole_micro_batches <= u32::MAX as u64 && dp_degree <= u32::MAX as usize {
            u64::from((whole_micro_batches as u32).div_ceil(dp_degree as u32))
        } else {
            whole_micro_batches.div_ceil(dp_degree as u64)
        };
        groups * micro_batch
    }

    /// Peak per-device memory of a stage (Equation 2) from its parameter
    /// bytes and its stashed activation bytes per sample: optimizer state
    /// for the parameters plus activations for `in_flight_samples`,
    /// divided across `dp_degree` replicas in whole micro-batches (weights
    /// are fully replicated). Saturates at `u64::MAX`, which no budget
    /// admits. The one memory formula: every planner prunes with it, and
    /// [`CostModel::stage_memory_bytes`] measures plans with it.
    #[inline]
    pub fn stage_memory(
        param_bytes: u64,
        act_bytes: u64,
        in_flight_samples: u64,
        micro_batch: u64,
        dp_degree: usize,
    ) -> u64 {
        let per_replica = Self::in_flight_per_replica(in_flight_samples, micro_batch, dp_degree);
        (param_bytes / gp_ir::BYTES_PER_ELEMENT)
            .saturating_mul(BYTES_PER_PARAM_STATE)
            .saturating_add(act_bytes.saturating_mul(per_replica))
    }

    /// [`CostModel::stage_memory`] of the stage running `ops`.
    pub fn stage_memory_bytes(
        &self,
        graph: &Graph,
        ops: &[OpId],
        in_flight_samples: u64,
        micro_batch: u64,
        dp_degree: usize,
    ) -> u64 {
        Self::stage_memory(
            self.stage_param_bytes(graph, ops),
            self.stage_activation_bytes_per_sample(graph, ops),
            in_flight_samples,
            micro_batch,
            dp_degree,
        )
    }

    /// Time-Per-Sample of a candidate stage before placement: `time`, its
    /// fwd+bwd time per micro-batch of `micro_batch` samples, spread over
    /// the effective data-parallel degree of `devices` replicas, plus
    /// `comm_bytes` per sample over the default boundary link with a send
    /// and a receive latency per micro-batch, plus the allreduce of
    /// `param_bytes` amortized over the mini-batch. The one candidate
    /// price: every planner's search ranks stages by it. (A placed stage's
    /// [`CostModel::stage_tps`] has no boundary term.)
    #[inline]
    pub fn candidate_tps(
        &self,
        time: f64,
        comm_bytes: u64,
        param_bytes: u64,
        micro_batch: u64,
        devices: u32,
        mini_batch: u64,
    ) -> f64 {
        // Micro-batches round-robin over replicas; the slowest replica
        // gets ceil(m/d) of m micro-batches. The term order is part of
        // every pinned plan: do not re-associate.
        let m = (mini_batch / micro_batch).max(1);
        let d_eff = m as f64 / m.div_ceil(devices as u64) as f64;
        let link = self.boundary;
        time / (micro_batch as f64 * d_eff)
            + comm_bytes as f64 / link.bandwidth
            + 2.0 * link.latency / micro_batch as f64
            + self.allreduce_time(param_bytes, &DeviceRange::new(0, devices)) / mini_batch as f64
    }

    /// Activation bytes crossing from `from_ops` into `to_ops` per sample:
    /// the payload of one inter-stage transfer.
    pub fn crossing_bytes_per_sample(
        &self,
        graph: &Graph,
        from_ops: &[OpId],
        to_ops: &[OpId],
    ) -> u64 {
        let mut member = vec![false; graph.len()];
        for &o in to_ops {
            member[o.index()] = true;
        }
        let mut total = 0;
        for &u in from_ops {
            for &v in graph.succs(u) {
                if member[v.index()] {
                    total += graph.output_bytes(u);
                }
            }
        }
        total
    }

    /// The link the planner assumes for a not-yet-placed stage boundary:
    /// the inter-node link when the cluster spans nodes, otherwise NVLink.
    /// (The simulator later uses the *actual* link between assigned
    /// devices.)
    pub fn default_boundary_link(&self) -> LinkProfile {
        self.boundary
    }

    /// Ring-allreduce time for `bytes` across a data-parallel device range:
    /// `2 (d-1)/d * bytes / bw` plus per-step latencies. Zero for a single
    /// device.
    #[inline]
    pub fn allreduce_time(&self, bytes: u64, devices: &DeviceRange) -> f64 {
        let d = devices.len();
        if d <= 1 || bytes == 0 {
            return 0.0;
        }
        let link = self.cluster.bottleneck_link(devices);
        let steps = 2 * (d - 1);
        let payload = 2.0 * (d as f64 - 1.0) / d as f64 * bytes as f64 / link.bandwidth;
        payload + steps as f64 * link.latency
    }

    /// A safe upper bound for the bottleneck-stage TPS used to initialize
    /// the partitioner's binary search (`MAXTPS` in Algorithm 1): the whole
    /// model on one device at micro-batch 1.
    pub fn max_tps(&self, graph: &Graph) -> f64 {
        let ops: Vec<OpId> = graph.nodes().map(|n| n.id).collect();
        let single = DeviceRange::new(0, 1);
        // Mini-batch 1 makes the (zero) allreduce term irrelevant.
        2.0 * self.stage_tps(graph, &ops, 1, &single, 1) + 1e-9
    }
}

/// The per-op times a search sums, built once per search at its
/// micro-batch sizes. Per op and size: the forward and the backward time,
/// each the exact `f64` of [`CostModel::op_time`], so a sum over the table
/// in a given term order has the bits of the same sum over `op_time`.
/// (Per-op bytes need no table: the [`Graph`] holds them.) Rows are
/// keyed by `OpId` and the table is immutable, so every probe,
/// configuration and thread of a search reads one table.
#[derive(Debug, Clone)]
pub struct OpTable {
    /// Operators per column (`graph.len()`).
    ops: usize,
    /// The micro-batch size of each column.
    sizes: Vec<u64>,
    /// `times[col * ops + op]`: `[fwd, bwd]` time of `op` at `sizes[col]`.
    times: Vec<[f64; 2]>,
}

impl OpTable {
    /// Prices every operator of `graph` at every size in `sizes`.
    pub fn new(cost: &CostModel, graph: &Graph, sizes: &[u64]) -> OpTable {
        let ops = graph.len();
        let mut times = vec![[0.0; 2]; ops * sizes.len()];
        for node in graph.nodes() {
            let op = node.id;
            for (col, &b) in sizes.iter().enumerate() {
                times[col * ops + op.index()] = [
                    cost.op_time(graph, op, b, Pass::Forward),
                    cost.op_time(graph, op, b, Pass::Backward),
                ];
            }
        }
        OpTable {
            ops,
            sizes: sizes.to_vec(),
            times,
        }
    }

    /// The micro-batch sizes, one per column.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// The column of micro-batch size `b`.
    ///
    /// # Panics
    ///
    /// Panics if the table was not built for `b`.
    pub fn column(&self, b: u64) -> usize {
        self.sizes
            .iter()
            .position(|&x| x == b)
            .expect("micro-batch size comes from the table's sizes")
    }

    /// Forward time of `op` at micro-batch `sizes()[col]`.
    #[inline]
    pub fn fwd(&self, op: OpId, col: usize) -> f64 {
        self.times[col * self.ops + op.index()][0]
    }

    /// Backward time of `op` at micro-batch `sizes()[col]`.
    #[inline]
    pub fn bwd(&self, op: OpId, col: usize) -> f64 {
        self.times[col * self.ops + op.index()][1]
    }

    /// Forward plus backward time of `op` at micro-batch `sizes()[col]`.
    #[inline]
    pub fn time(&self, op: OpId, col: usize) -> f64 {
        let [fwd, bwd] = self.times[col * self.ops + op.index()];
        fwd + bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig};

    fn setup() -> (gp_ir::SpModel, CostModel) {
        let model = zoo::candle_uno(&CandleUnoConfig::tiny());
        let cluster = Cluster::summit_like(4);
        (model, CostModel::new(&cluster))
    }

    #[test]
    fn op_time_positive_and_monotone_in_batch() {
        let (model, cost) = setup();
        let g = model.graph();
        for node in g.nodes() {
            let t1 = cost.op_time(g, node.id, 1, Pass::Forward);
            let t8 = cost.op_time(g, node.id, 8, Pass::Forward);
            assert!(t1 >= 0.0);
            assert!(t8 >= t1, "{}: time must grow with batch", node.name);
        }
    }

    #[test]
    fn per_sample_time_improves_with_batch() {
        // Efficiency saturation: t(b)/b strictly decreases for compute-bound ops.
        let model = zoo::mmt(&MmtConfig::default());
        let cluster = Cluster::summit_like(4);
        let cost = CostModel::new(&cluster);
        let g = model.graph();
        let mha = g
            .nodes()
            .find(|n| matches!(n.kind, gp_ir::OpKind::MultiHeadAttention { .. }))
            .unwrap()
            .id;
        let t2 = cost.op_time(g, mha, 2, Pass::Forward) / 2.0;
        let t8 = cost.op_time(g, mha, 8, Pass::Forward) / 8.0;
        assert!(t8 < t2);
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let (model, cost) = setup();
        let g = model.graph();
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        assert!(
            cost.stage_time(g, &ops, 4, Pass::Backward)
                > cost.stage_time(g, &ops, 4, Pass::Forward)
        );
    }

    #[test]
    fn tps_scales_down_with_data_parallelism() {
        let model = zoo::mmt(&MmtConfig::default());
        let cluster = Cluster::summit_like(8);
        let cost = CostModel::new(&cluster);
        let g = model.graph();
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let tps1 = cost.stage_tps(g, &ops, 4, &DeviceRange::new(0, 1), 64);
        let tps4 = cost.stage_tps(g, &ops, 4, &DeviceRange::new(0, 4), 64);
        assert!(tps4 < tps1);
        assert!(tps4 > tps1 / 4.0, "allreduce overhead must be visible");
    }

    #[test]
    fn memory_grows_with_in_flight() {
        let (model, cost) = setup();
        let g = model.graph();
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let m2 = cost.stage_memory_bytes(g, &ops, 2, 1, 1);
        let m8 = cost.stage_memory_bytes(g, &ops, 8, 1, 1);
        assert!(m8 > m2);
        // Data parallelism shares the activation load.
        let m8dp = cost.stage_memory_bytes(g, &ops, 8, 1, 4);
        assert!(m8dp < m8);
    }

    #[test]
    fn memory_saturates_past_u64() {
        // 2^55 in-flight samples of a stage stashing kilobytes each: the
        // product passes u64::MAX and used to wrap to a few megabytes.
        let model = zoo::mlp_chain(2, 512);
        let cost = CostModel::new(&Cluster::summit_like(4));
        let g = model.graph();
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let in_flight = 1u64 << 55;
        assert_eq!(
            cost.stage_memory_bytes(g, &ops, in_flight, 1 << 24, 1),
            u64::MAX
        );
        // Huge parameter bytes saturate too, past any activation term.
        assert_eq!(CostModel::stage_memory(u64::MAX, 0, 1, 1, 1), u64::MAX);
        assert_eq!(CostModel::stage_memory(1 << 62, 1, 1, 1, 1), u64::MAX);
    }

    #[test]
    fn memory_budget_enforced() {
        let model = zoo::mmt(&MmtConfig::default());
        let cluster = Cluster::summit_like(4).with_memory_capacity(1 << 20);
        let cost = CostModel::new(&cluster);
        let g = model.graph();
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        assert!(cost.stage_memory_bytes(g, &ops, 4, 1, 1) > cost.memory_budget());
    }

    #[test]
    fn crossing_bytes_counts_boundary_edges() {
        let (model, cost) = setup();
        let g = model.graph();
        let all: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        // Split: everything except the loss | the loss.
        let (front, back) = all.split_at(all.len() - 1);
        let bytes = cost.crossing_bytes_per_sample(g, front, back);
        // The loss's single input edge carries the head output (1 element).
        assert_eq!(bytes, gp_ir::BYTES_PER_ELEMENT);
        // No edges from back to front.
        assert_eq!(cost.crossing_bytes_per_sample(g, back, front), 0);
    }

    #[test]
    fn allreduce_time_zero_for_single_device() {
        let (_, cost) = setup();
        assert_eq!(cost.allreduce_time(1 << 20, &DeviceRange::new(0, 1)), 0.0);
        let t2 = cost.allreduce_time(1 << 20, &DeviceRange::new(0, 2));
        let t4 = cost.allreduce_time(1 << 20, &DeviceRange::new(0, 4));
        assert!(t2 > 0.0 && t4 > t2);
    }

    #[test]
    fn max_tps_dominates_any_partition() {
        let (model, cost) = setup();
        let g = model.graph();
        let ops: Vec<OpId> = g.nodes().map(|n| n.id).collect();
        let bound = cost.max_tps(g);
        for b in [1u64, 2, 4, 8] {
            let tps = cost.stage_tps(g, &ops, b, &DeviceRange::new(0, 1), 64);
            assert!(tps < bound, "b={b}: {tps} !< {bound}");
        }
    }

    #[test]
    fn default_boundary_link_is_conservative() {
        let cost = CostModel::new(&Cluster::summit_like(8));
        assert_eq!(cost.default_boundary_link(), LinkProfile::infiniband_edr());
        let small = CostModel::new(&Cluster::summit_like(4));
        assert_eq!(small.default_boundary_link(), LinkProfile::nvlink());
    }

    #[test]
    fn zero_cost_ops_take_zero_time() {
        let (model, cost) = setup();
        let g = model.graph();
        let input = g.sources()[0];
        assert_eq!(cost.op_time(g, input, 8, Pass::Forward), 0.0);
    }

    #[test]
    fn op_time_prices_huge_micro_batches_without_wrapping() {
        // Bytes moved per kernel at b = 2^62 pass u64::MAX; the product is
        // formed in f64, so the time is finite and grows with the batch.
        let model = zoo::mlp_chain(2, 512);
        let cost = CostModel::new(&Cluster::summit_like(4));
        let g = model.graph();
        for node in g.nodes() {
            for pass in [Pass::Forward, Pass::Backward] {
                let huge = cost.op_time(g, node.id, 1 << 62, pass);
                assert!(huge.is_finite(), "{}", node.name);
                assert!(huge >= cost.op_time(g, node.id, 1 << 32, pass));
            }
        }
    }

    #[test]
    fn candidate_tps_of_one_replica_without_traffic_is_compute_per_sample() {
        let (_, cost) = setup();
        let link = cost.default_boundary_link();
        let tps = cost.candidate_tps(8.0, 0, 0, 4, 1, 64);
        assert_eq!(tps, 8.0 / 4.0 + 2.0 * link.latency / 4.0);
        // Boundary traffic and replication both show up.
        assert!(cost.candidate_tps(8.0, 1 << 20, 0, 4, 1, 64) > tps);
        assert!(cost.candidate_tps(8.0, 0, 1 << 20, 4, 2, 64) < tps);
    }

    /// `op_time` as it priced an op before the graph held its statics:
    /// walking the op's input shapes on every call.
    fn op_time_from_shapes(
        cost: &CostModel,
        graph: &Graph,
        op: OpId,
        micro_batch: u64,
        pass: Pass,
    ) -> f64 {
        let p = cost.cluster.profile();
        let node = graph.node(op);
        let shapes: Vec<&gp_ir::Shape> = (graph.preds(op).iter())
            .map(|&q| &graph.node(q).out_shape)
            .collect();
        let flops_per_sample = match pass {
            Pass::Forward => node.kind.forward_flops(&shapes),
            Pass::Backward => node.kind.backward_flops(&shapes),
        };
        if flops_per_sample == 0 {
            return 0.0;
        }
        let flops = flops_per_sample as f64 * micro_batch as f64;
        let io_per_sample: u64 = shapes
            .iter()
            .map(|s| s.numel() as u64 * gp_ir::BYTES_PER_ELEMENT)
            .sum::<u64>()
            + node.out_shape.numel() as u64 * gp_ir::BYTES_PER_ELEMENT;
        let weight_bytes = node.kind.param_count() * gp_ir::BYTES_PER_ELEMENT;
        let moved = (io_per_sample as f64 * micro_batch as f64 + weight_bytes as f64)
            * match pass {
                Pass::Forward => 1.0,
                Pass::Backward => 2.0,
            };
        let t_compute = flops / (p.peak_flops * p.efficiency(micro_batch));
        let t_memory = moved / p.mem_bandwidth;
        p.kernel_overhead + t_compute.max(t_memory)
    }

    /// The generator of `tests/dag_properties.rs`'s `build_dag` over
    /// picks from a seeded SplitMix64 stream, at a drawn width: residual
    /// meshes of `linear` ops and multi-input `Add`s.
    fn random_dag(seed: u64) -> Graph {
        let mut state = seed;
        let mut draw = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let dim = 1 + draw(64);
        let mut b = gp_ir::GraphBuilder::new();
        let mut nodes = vec![b.input("x", gp_ir::Shape::vector(dim))];
        let mut has_succ = vec![false];
        for i in 0..1 + draw(24) {
            let (pick, fan_in) = (draw(997), 1 + draw(3));
            let mut preds = Vec::new();
            for j in 0..fan_in {
                let k = (pick + j * (pick / 7 + 1)) % nodes.len();
                if !preds.contains(&nodes[k]) {
                    preds.push(nodes[k]);
                    has_succ[k] = true;
                }
            }
            nodes.push(if preds.len() == 1 {
                b.linear(format!("fc{i}"), preds[0], dim, true).unwrap()
            } else {
                b.op(format!("add{i}"), gp_ir::OpKind::Add, &preds).unwrap()
            });
            has_succ.push(false);
        }
        let dangling: Vec<OpId> = (nodes.iter().zip(&has_succ))
            .filter(|&(_, &s)| !s)
            .map(|(&n, _)| n)
            .collect();
        let tail = match dangling[..] {
            [one] => one,
            _ => b.op("merge", gp_ir::OpKind::Add, &dangling).unwrap(),
        };
        let head = b.linear("head", tail, 1, true).unwrap();
        b.loss("loss", &[head]);
        b.finish().unwrap()
    }

    /// Every zoo graph: the authored models at their default, `full` and
    /// `tiny` configurations, the two raw-graph models through `plan_dag`,
    /// and random DAGs.
    fn every_zoo_graph() -> Vec<(String, Graph)> {
        use gp_ir::zoo::{DlrmConfig, GnnPipeConfig, Gpt2Config, MoeConfig};
        let mut models = vec![
            zoo::mmt(&MmtConfig::default()),
            zoo::mmt(&MmtConfig::two_branch()),
            zoo::mmt(&MmtConfig::tiny()),
            zoo::dlrm(&DlrmConfig::default()),
            zoo::dlrm(&DlrmConfig::tiny()),
            zoo::candle_uno(&CandleUnoConfig::default()),
            zoo::candle_uno(&CandleUnoConfig::full()),
            zoo::candle_uno(&CandleUnoConfig::tiny()),
            zoo::moe(&MoeConfig::default()),
            zoo::moe(&MoeConfig::tiny()),
            zoo::gpt2(&Gpt2Config::default()),
            zoo::gpt2(&Gpt2Config::tiny()),
            zoo::gnn_pipe(&GnnPipeConfig::default()),
            zoo::gnn_pipe(&GnnPipeConfig::tiny()),
            zoo::sequential_transformer(2, &MmtConfig::tiny()),
            zoo::case_study(&MmtConfig::tiny()),
            zoo::mlp_chain(4, 64),
        ];
        let dags = [
            zoo::gpt2_graph(&Gpt2Config::default()),
            zoo::gpt2_graph(&Gpt2Config::tiny()),
            zoo::gnn_pipe_graph(&GnnPipeConfig::default()),
            zoo::gnn_pipe_graph(&GnnPipeConfig::tiny()),
        ];
        for graph in dags {
            let options = gp_ir::DagOptions::default();
            models.push(gp_ir::plan_dag("dag", graph, &options).unwrap());
        }
        let mut graphs: Vec<(String, Graph)> = (models.into_iter())
            .map(|m| (m.name().to_string(), m.graph().clone()))
            .collect();
        graphs.extend((0..32).map(|seed| (format!("random dag {seed}"), random_dag(seed))));
        graphs
    }

    #[test]
    fn op_table_holds_op_time_bit_for_bit() {
        let cost = CostModel::new(&Cluster::summit_like(4));
        let sizes = [1, 3, 64, 1 << 20];
        for (label, g) in every_zoo_graph() {
            let table = OpTable::new(&cost, &g, &sizes);
            assert_eq!(table.sizes(), sizes);
            for node in g.nodes() {
                let id = node.id;
                let label = format!("{label} {}", node.name);
                // Each per-op number the graph recorded is its `OpKind`
                // formula over the op's input shapes.
                let shapes: Vec<&gp_ir::Shape> = (g.preds(id).iter())
                    .map(|&p| &g.node(p).out_shape)
                    .collect();
                let bytes = |s: &gp_ir::Shape| s.numel() as u64 * gp_ir::BYTES_PER_ELEMENT;
                let kind = &node.kind;
                let recorded = [
                    g.forward_flops(id),
                    g.backward_flops(id),
                    g.input_bytes(id),
                    g.output_bytes(id),
                    g.param_bytes(id),
                    g.stashed_bytes(id),
                ];
                let formulas = [
                    kind.forward_flops(&shapes),
                    kind.backward_flops(&shapes),
                    shapes.iter().map(|s| bytes(s)).sum(),
                    bytes(&node.out_shape),
                    kind.param_count() * gp_ir::BYTES_PER_ELEMENT,
                    kind.stashed_bytes(&shapes),
                ];
                assert_eq!(recorded, formulas, "{label}");
                let ops = [id];
                let params = cost.stage_param_bytes(&g, &ops);
                let act = cost.stage_activation_bytes_per_sample(&g, &ops);
                assert_eq!([params, act], [formulas[4], formulas[5]], "{label}");
                // `op_time` over the recorded numbers has the bits of the
                // shape walk, and the table holds them.
                for (col, &b) in sizes.iter().enumerate() {
                    assert_eq!(table.column(b), col);
                    let fwd = cost.op_time(&g, id, b, Pass::Forward);
                    let bwd = cost.op_time(&g, id, b, Pass::Backward);
                    let walked = [Pass::Forward, Pass::Backward]
                        .map(|pass| op_time_from_shapes(&cost, &g, id, b, pass).to_bits());
                    assert_eq!([fwd.to_bits(), bwd.to_bits()], walked, "{label} b={b}");
                    assert_eq!(table.fwd(id, col).to_bits(), fwd.to_bits());
                    assert_eq!(table.bwd(id, col).to_bits(), bwd.to_bits());
                    assert_eq!(table.time(id, col).to_bits(), (fwd + bwd).to_bits());
                }
            }
        }
    }
}
