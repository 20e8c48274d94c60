//! # gp-cluster — device-topology substrate
//!
//! GraphPipe's planner takes "a device topology graph where each node
//! represents a device with a memory budget and each edge a communication
//! link with a bandwidth" (§3). This crate models that input: device
//! profiles (a V100-like default matching the paper's Summit testbed),
//! hierarchical interconnects (NVLink within a node, InfiniBand across
//! nodes) and contiguous device ranges used for stage assignment.
//!
//! # Examples
//!
//! ```
//! use gp_cluster::{Cluster, DeviceId};
//!
//! // Summit-like: 4 GPUs per node, NVLink inside, InfiniBand across.
//! let cluster = Cluster::summit_like(8);
//! assert_eq!(cluster.device_count(), 8);
//! let intra = cluster.link(DeviceId(0), DeviceId(1)).bandwidth;
//! let inter = cluster.link(DeviceId(0), DeviceId(4)).bandwidth;
//! assert!(intra > inter);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// Identifier of a device (GPU) in a [`Cluster`]; dense indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Static performance profile of one accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, for reports.
    pub name: String,
    /// Peak floating-point throughput in FLOP/s achievable by large,
    /// well-shaped kernels.
    pub peak_flops: f64,
    /// Device memory bandwidth in bytes/s (roofline ceiling for
    /// bandwidth-bound operators).
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes (the `M_v` budget of §3).
    pub mem_capacity: u64,
    /// Fixed per-kernel launch overhead in seconds.
    pub kernel_overhead: f64,
    /// Micro-batch size at which compute efficiency reaches half of its
    /// asymptote; models "larger micro-batches improve operational
    /// intensity" (§2). Efficiency is `b / (b + half_sat)`.
    pub efficiency_half_sat: f64,
}

impl DeviceProfile {
    /// A V100-like profile matching the paper's Summit nodes
    /// (16 GiB HBM2, ~15.7 TFLOP/s fp32, ~900 GB/s memory bandwidth).
    pub fn v100() -> Self {
        DeviceProfile {
            name: "V100-like".to_string(),
            peak_flops: 15.7e12,
            mem_bandwidth: 900.0e9,
            mem_capacity: 16 * (1 << 30),
            kernel_overhead: 10.0e-6,
            efficiency_half_sat: 2.0,
        }
    }

    /// A deliberately tiny profile so unit tests can trigger memory limits
    /// with toy models.
    pub fn tiny_test() -> Self {
        DeviceProfile {
            name: "tiny-test".to_string(),
            peak_flops: 1.0e9,
            mem_bandwidth: 1.0e9,
            mem_capacity: 1 << 20,
            kernel_overhead: 1.0e-6,
            efficiency_half_sat: 2.0,
        }
    }

    /// Batch-dependent compute-efficiency multiplier in `(0, 1)`.
    ///
    /// Saturates towards 1 as the micro-batch grows; at
    /// `efficiency_half_sat` samples the device reaches 50% of peak.
    pub fn efficiency(&self, micro_batch: u64) -> f64 {
        let b = micro_batch as f64;
        b / (b + self.efficiency_half_sat)
    }
}

/// A point-to-point interconnect profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Fixed per-message latency in seconds (the affine intercept of the
    /// paper's communication extrapolation, §5).
    pub latency: f64,
}

impl LinkProfile {
    /// NVLink-like intra-node link (~150 GB/s effective per direction).
    pub fn nvlink() -> Self {
        LinkProfile {
            bandwidth: 150.0e9,
            latency: 3.0e-6,
        }
    }

    /// EDR InfiniBand-like inter-node link (100 Gb/s = 12.5 GB/s).
    pub fn infiniband_edr() -> Self {
        LinkProfile {
            bandwidth: 12.5e9,
            latency: 10.0e-6,
        }
    }

    /// Time in seconds to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// A homogeneous accelerator cluster with a two-level interconnect.
///
/// Devices are grouped into nodes of `gpus_per_node`; devices within a node
/// communicate over `intra_link`, devices in different nodes over
/// `inter_link`. This matches the Summit configuration of the paper's
/// evaluation (2 POWER9 + 4 V100 per node, NVLink within, EDR IB across).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    profile: DeviceProfile,
    num_devices: usize,
    gpus_per_node: usize,
    intra_link: LinkProfile,
    inter_link: LinkProfile,
}

impl Cluster {
    /// Creates a cluster from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0` or `gpus_per_node == 0`.
    pub fn new(
        profile: DeviceProfile,
        num_devices: usize,
        gpus_per_node: usize,
        intra_link: LinkProfile,
        inter_link: LinkProfile,
    ) -> Self {
        assert!(num_devices > 0, "cluster needs at least one device");
        assert!(gpus_per_node > 0, "nodes need at least one GPU");
        Cluster {
            profile,
            num_devices,
            gpus_per_node,
            intra_link,
            inter_link,
        }
    }

    /// A Summit-like cluster of `num_devices` V100s, 4 per node.
    pub fn summit_like(num_devices: usize) -> Self {
        Cluster::new(
            DeviceProfile::v100(),
            num_devices,
            4,
            LinkProfile::nvlink(),
            LinkProfile::infiniband_edr(),
        )
    }

    /// A small cluster with the [`DeviceProfile::tiny_test`] profile, for
    /// unit tests.
    pub fn tiny_test(num_devices: usize) -> Self {
        Cluster::new(
            DeviceProfile::tiny_test(),
            num_devices,
            4,
            LinkProfile::nvlink(),
            LinkProfile::infiniband_edr(),
        )
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.num_devices
    }

    /// All device ids.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.num_devices as u32).map(DeviceId)
    }

    /// The shared device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Returns a copy of this cluster with a different per-device memory
    /// capacity (used to sweep memory pressure in tests and ablations).
    pub fn with_memory_capacity(mut self, bytes: u64) -> Self {
        self.profile.mem_capacity = bytes;
        self
    }

    /// Devices per node (the intra-node group size).
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// The intra-node (e.g. NVLink) link profile.
    pub fn intra_link(&self) -> LinkProfile {
        self.intra_link
    }

    /// The inter-node (e.g. InfiniBand) link profile.
    pub fn inter_link(&self) -> LinkProfile {
        self.inter_link
    }

    /// The node index hosting a device.
    #[inline]
    pub fn node_of(&self, d: DeviceId) -> usize {
        d.index() / self.gpus_per_node
    }

    /// The link profile between two devices.
    ///
    /// Same-device transfers are free (`bandwidth = +inf`): the runtime
    /// keeps activations in device memory.
    #[inline]
    pub fn link(&self, a: DeviceId, b: DeviceId) -> LinkProfile {
        if a == b {
            LinkProfile {
                bandwidth: f64::INFINITY,
                latency: 0.0,
            }
        } else if self.node_of(a) == self.node_of(b) {
            self.intra_link
        } else {
            self.inter_link
        }
    }

    /// The slowest link among all pairs in a contiguous device range —
    /// the bottleneck for allreduce inside a data-parallel stage.
    #[inline]
    pub fn bottleneck_link(&self, devices: &DeviceRange) -> LinkProfile {
        if devices.len() <= 1 {
            return LinkProfile {
                bandwidth: f64::INFINITY,
                latency: 0.0,
            };
        }
        self.link(devices.first(), devices.last())
    }
}

/// A contiguous, non-empty range of devices assigned to one pipeline stage.
///
/// Contiguity keeps data-parallel replicas topologically close, which is how
/// the paper assigns devices on Summit; it also makes device partitions
/// (condition C3 of §3) trivial to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceRange {
    start: u32,
    len: u32,
}

impl DeviceRange {
    /// Creates the range `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`; every stage needs at least one device (C3).
    #[inline]
    pub fn new(start: u32, len: u32) -> Self {
        assert!(len > 0, "a stage requires at least one device");
        DeviceRange { start, len }
    }

    /// Number of devices in the range (the stage's data-parallel degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false; ranges are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First device.
    #[inline]
    pub fn first(&self) -> DeviceId {
        DeviceId(self.start)
    }

    /// Last device.
    #[inline]
    pub fn last(&self) -> DeviceId {
        DeviceId(self.start + self.len - 1)
    }

    /// Iterates over the devices in the range.
    pub fn iter(&self) -> impl Iterator<Item = DeviceId> {
        (self.start..self.start + self.len).map(DeviceId)
    }

    /// Whether `d` belongs to this range.
    pub fn contains(&self, d: DeviceId) -> bool {
        d.0 >= self.start && d.0 < self.start + self.len
    }

    /// Whether two ranges share any device.
    pub fn overlaps(&self, other: &DeviceRange) -> bool {
        self.start < other.start + other.len && other.start < self.start + self.len
    }
}

impl fmt::Display for DeviceRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 1 {
            write!(f, "gpu{}", self.start)
        } else {
            write!(f, "gpu{}-{}", self.start, self.start + self.len - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_topology_links() {
        let c = Cluster::summit_like(8);
        assert_eq!(c.link(DeviceId(0), DeviceId(3)), LinkProfile::nvlink());
        assert_eq!(
            c.link(DeviceId(3), DeviceId(4)),
            LinkProfile::infiniband_edr()
        );
        assert_eq!(c.node_of(DeviceId(3)), 0);
        assert_eq!(c.node_of(DeviceId(4)), 1);
    }

    #[test]
    fn same_device_link_is_free() {
        let c = Cluster::summit_like(4);
        let l = c.link(DeviceId(2), DeviceId(2));
        assert_eq!(l.latency, 0.0);
        assert_eq!(l.transfer_time(1 << 30), 0.0);
    }

    #[test]
    fn transfer_time_is_affine() {
        let l = LinkProfile {
            bandwidth: 1e9,
            latency: 1e-6,
        };
        let t1 = l.transfer_time(1_000_000);
        let t2 = l.transfer_time(2_000_000);
        assert!((t2 - t1 - 1e-3).abs() < 1e-9);
        assert!((t1 - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn efficiency_saturates() {
        let p = DeviceProfile::v100();
        assert!(p.efficiency(1) < p.efficiency(4));
        assert!(p.efficiency(4) < p.efficiency(64));
        assert!(p.efficiency(1 << 20) > 0.99);
        let half = p.efficiency_half_sat as u64;
        assert!((p.efficiency(half) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn device_range_basics() {
        let r = DeviceRange::new(4, 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.first(), DeviceId(4));
        assert_eq!(r.last(), DeviceId(7));
        assert!(r.contains(DeviceId(5)));
        assert!(!r.contains(DeviceId(8)));
        assert_eq!(r.iter().count(), 4);
        assert_eq!(r.to_string(), "gpu4-7");
        assert_eq!(DeviceRange::new(3, 1).to_string(), "gpu3");
    }

    #[test]
    fn device_range_overlap() {
        let a = DeviceRange::new(0, 4);
        let b = DeviceRange::new(4, 4);
        let c = DeviceRange::new(3, 2);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn bottleneck_link_spans_nodes() {
        let c = Cluster::summit_like(8);
        let within = DeviceRange::new(0, 4);
        let across = DeviceRange::new(2, 4);
        assert_eq!(c.bottleneck_link(&within), LinkProfile::nvlink());
        assert_eq!(c.bottleneck_link(&across), LinkProfile::infiniband_edr());
        let single = DeviceRange::new(0, 1);
        assert_eq!(c.bottleneck_link(&single).latency, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_range_panics() {
        let _ = DeviceRange::new(0, 0);
    }

    #[test]
    fn with_memory_capacity_overrides() {
        let c = Cluster::summit_like(4).with_memory_capacity(123);
        assert_eq!(c.profile().mem_capacity, 123);
    }
}
