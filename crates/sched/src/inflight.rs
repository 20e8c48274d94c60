//! In-flight sample accounting (§6 and Appendix A.1 of the paper).
//!
//! The number of *in-flight samples* of a stage — samples whose forward
//! pass has run but whose backward pass has not — determines its activation
//! memory. GraphPipe's scheduler minimizes it per stage while preserving
//! continuous pipelining, using the closed-form `ComputeInFlight` of
//! Table 2, generalized to per-stage micro-batch sizes and kFkB schedules.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::stage::{StageGraph, StageId};

/// Computes the minimal number of in-flight samples for a stage `x` feeding
/// a stage `y`, per Table 2 of the paper (Appendix A.1).
///
/// * `k_x`, `b_x` — stage `x`'s kFkB parameter and micro-batch size;
/// * `k_y`, `b_y` — the same for the downstream stage `y`;
/// * `i_y` — the downstream stage's in-flight sample count.
///
/// The ten rows of Table 2 partition the whole parameter space; this
/// function is total.
///
/// # Panics
///
/// Panics if any of `k_x`, `b_x`, `k_y`, `b_y` is zero.
///
/// # Examples
///
/// ```
/// use gp_sched::compute_in_flight;
///
/// // Uniform 1F1B chain: each upstream stage holds one extra micro-batch.
/// assert_eq!(compute_in_flight(1, 4, 1, 4, 4), 8);
/// assert_eq!(compute_in_flight(1, 4, 1, 4, 8), 12);
/// ```
#[inline]
pub fn compute_in_flight(k_x: u64, b_x: u64, k_y: u64, b_y: u64, i_y: u64) -> u64 {
    assert!(
        k_x > 0 && b_x > 0 && k_y > 0 && b_y > 0,
        "schedule parameters must be positive"
    );
    let kxbx = k_x * b_x;
    let kyby = k_y * b_y;
    let bmax = b_x.max(b_y);

    if kxbx < kyby {
        // Rows 1, 2, 9 of Table 2.
        if bmax < kxbx {
            i_y + 2 * bmax
        } else if bmax == kxbx {
            i_y + bmax
        } else {
            // b_x <= k_x b_x < b_y <= k_y b_y.
            debug_assert!(b_y > kxbx);
            i_y + b_y
        }
    } else if kxbx > kyby {
        // Rows 3, 4, 5, 6, 10.
        if b_x > kyby {
            // Row 10: b_y <= k_y b_y < b_x <= k_x b_x.
            i_y + kxbx - kyby + b_x
        } else if b_x <= b_y {
            if b_y < kyby {
                i_y + kxbx - kyby + 2 * b_y // row 3
            } else {
                i_y + kxbx // row 4: b_y == k_y b_y
            }
        } else {
            // b_y < b_x <= k_y b_y.
            if b_x < kyby {
                i_y + kxbx - kyby + 2 * b_x // row 5
            } else {
                i_y + kxbx // row 6: b_x == k_y b_y
            }
        }
    } else {
        // Rows 7, 8: k_x b_x == k_y b_y.
        if bmax == kyby {
            i_y + kyby
        } else {
            i_y + 2 * bmax
        }
    }
}

/// Per-stage in-flight sample counts for a whole stage graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlightTable {
    samples: Vec<u64>,
}

impl InFlightTable {
    /// Reconstructs a table from per-stage sample counts (indexed by stage
    /// id), e.g. when decoding a serialized plan artifact. Planner-produced
    /// tables come from [`assign_in_flight`] instead.
    pub fn from_samples(samples: Vec<u64>) -> Self {
        InFlightTable { samples }
    }

    /// Number of stages covered by the table.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the table covers no stages.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// In-flight samples of a stage.
    pub fn samples(&self, id: StageId) -> u64 {
        self.samples[id.index()]
    }

    /// In-flight micro-batches of a stage (its warm-up length `l`),
    /// rounded up to whole micro-batches.
    pub fn micro_batches(&self, sg: &StageGraph, id: StageId) -> u64 {
        let b = sg.stage(id).micro_batch;
        self.samples[id.index()].div_ceil(b)
    }
}

/// Assigns in-flight counts to every stage by traversing the stage DAG
/// backwards from the sinks (§6: "it then traces back all directed edges of
/// the stage graph in the reverse direction"), taking the binding (maximum)
/// constraint when a stage feeds several successors.
///
/// A sink stage keeps `k * b` samples in flight (it alternates `k` forward
/// and `k` backward passes).
pub fn assign_in_flight(sg: &StageGraph) -> InFlightTable {
    let mut samples = vec![0u64; sg.len()];
    let order = sg.topo_order();
    for &id in order.iter().rev() {
        let s = sg.stage(id);
        let succs = sg.succs(id);
        samples[id.index()] = if succs.is_empty() {
            s.kfkb * s.micro_batch
        } else {
            succs
                .iter()
                .map(|&y| {
                    let sy = sg.stage(y);
                    compute_in_flight(
                        s.kfkb,
                        s.micro_batch,
                        sy.kfkb,
                        sy.micro_batch,
                        samples[y.index()],
                    )
                })
                .max()
                .expect("non-empty successor list")
        };
        // Never fewer than one full micro-batch round in flight.
        samples[id.index()] = samples[id.index()].max(s.kfkb * s.micro_batch);
    }
    InFlightTable { samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;
    use gp_cluster::{Cluster, DeviceRange};
    use gp_ir::zoo;

    /// Each Table 2 row exercised with concrete numbers.
    #[test]
    fn table2_row_by_row() {
        // Row 1: max{bx,by} < kx bx < ky by -> iy + 2 max.
        assert_eq!(compute_in_flight(2, 2, 3, 2, 10), 10 + 2 * 2);
        // Row 2: max{bx,by} = kx bx < ky by -> iy + max.
        assert_eq!(compute_in_flight(1, 4, 2, 4, 10), 10 + 4);
        // Row 3: bx <= by < ky by < kx bx -> iy + kx bx - ky by + 2 by.
        assert_eq!(compute_in_flight(8, 2, 2, 3, 10), 10 + 16 - 6 + 6);
        // Row 4: bx <= by = ky by < kx bx -> iy + kx bx.
        assert_eq!(compute_in_flight(4, 2, 1, 4, 10), 10 + 8);
        // Row 5: by <= bx < ky by < kx bx -> iy + kx bx - ky by + 2 bx.
        assert_eq!(compute_in_flight(4, 3, 2, 2, 10), 10 + 12 - 4 + 6);
        // Row 6: by <= bx = ky by < kx bx -> iy + kx bx.
        assert_eq!(compute_in_flight(3, 4, 2, 2, 10), 10 + 12);
        // Row 7: max{bx,by} = ky by = kx bx -> iy + ky by.
        assert_eq!(compute_in_flight(1, 4, 1, 4, 10), 10 + 4);
        assert_eq!(compute_in_flight(1, 4, 2, 2, 10), 10 + 4);
        // Row 8: max{bx,by} < ky by = kx bx -> iy + 2 max.
        assert_eq!(compute_in_flight(2, 2, 2, 2, 10), 10 + 2 * 2);
        // Row 9: bx <= kx bx < by <= ky by -> iy + by.
        assert_eq!(compute_in_flight(1, 2, 1, 8, 10), 10 + 8);
        // Row 10: by <= ky by < bx <= kx bx -> iy + kx bx - ky by + bx.
        assert_eq!(compute_in_flight(1, 8, 1, 2, 10), 10 + 8 - 2 + 8);
    }

    #[test]
    fn uniform_1f1b_chain_recovers_classic_counts() {
        // Classic 1F1B with n sequential stages: stage at distance p from
        // the sink holds (p+1) micro-batches in flight.
        let b = 4;
        let mut i = b; // sink
        for p in 1..=5u64 {
            i = compute_in_flight(1, b, 1, b, i);
            assert_eq!(i, (p + 1) * b);
        }
    }

    #[test]
    fn result_always_exceeds_downstream() {
        for k_x in 1..=4u64 {
            for b_x in [1u64, 2, 4, 8] {
                for k_y in 1..=4u64 {
                    for b_y in [1u64, 2, 4, 8] {
                        for i_y in [2u64, 8, 32] {
                            let i = compute_in_flight(k_x, b_x, k_y, b_y, i_y);
                            assert!(
                                i > i_y,
                                "({k_x},{b_x},{k_y},{b_y},{i_y}) -> {i} must exceed i_y"
                            );
                        }
                    }
                }
            }
        }
    }

    fn two_stage_graph(b0: u64, k0: u64, b1: u64, k1: u64) -> StageGraph {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::tiny_test(2);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: b0,
                kfkb: k0,
            },
            Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: b1,
                kfkb: k1,
            },
        ];
        StageGraph::new(model.graph(), &cluster, stages, 16).unwrap()
    }

    #[test]
    fn assignment_on_two_stage_chain() {
        let sg = two_stage_graph(4, 1, 4, 1);
        let t = assign_in_flight(&sg);
        assert_eq!(t.samples(StageId(1)), 4); // sink: k*b
        assert_eq!(t.samples(StageId(0)), 8); // row 7: + b
        assert_eq!(t.micro_batches(&sg, StageId(0)), 2);
    }

    #[test]
    fn assignment_with_heterogeneous_micro_batches() {
        // Upstream runs micro-batches of 2, downstream of 4 (Figure 5
        // situation: downstream needs two upstream micro-batches per task).
        let sg = two_stage_graph(2, 1, 4, 1);
        let t = assign_in_flight(&sg);
        assert_eq!(t.samples(StageId(1)), 4);
        // Row 2: max{2,4} = 4... no: kx bx = 2 < ky by = 4, max = 4 > kxbx
        // -> row 9: iy + by = 8.
        assert_eq!(t.samples(StageId(0)), 8);
    }

    #[test]
    fn multi_successor_takes_max() {
        // Branching stage graph: two parallel branch stages merging into a
        // shared sink stage; both branch stages see the sink's constraint.
        let model = zoo::candle_uno(&gp_ir::zoo::CandleUnoConfig::tiny());
        let g = model.graph();
        let cluster = Cluster::tiny_test(3);
        let all: Vec<gp_ir::OpId> = g.nodes().map(|n| n.id).collect();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: all[0..5].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: all[5..10].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(2),
                ops: all[10..].to_vec(),
                devices: DeviceRange::new(2, 1),
                micro_batch: 2,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(g, &cluster, stages, 8).unwrap();
        let t = assign_in_flight(&sg);
        // Both branch stages feed the sink directly: depth 2 -> 2 micro-batches.
        assert_eq!(t.samples(StageId(0)), 4);
        assert_eq!(t.samples(StageId(1)), 4);
        assert_eq!(t.samples(StageId(2)), 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_params_panic() {
        let _ = compute_in_flight(0, 1, 1, 1, 1);
    }
}
