//! Atomic counters, gauges, and fixed-bucket log-scale histograms.
//!
//! All metric state is lock-free on the record path (`AtomicU64`
//! arithmetic); the registry's name→metric maps take a `Mutex` only on
//! first lookup, so hot paths hold an `Arc` to the metric and never touch
//! the lock again. Every exported quantity is an integer (nanoseconds,
//! counts), which keeps snapshots `Eq`-comparable and byte-reproducible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins signed gauge.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so the full `u64` range is covered.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log₂-scale histogram for latency-like values
/// (nanoseconds by convention). Recording is one `fetch_add` plus three
/// atomic updates; percentile reconstruction walks the 65 buckets and
/// reports each bucket's upper bound clamped to the observed maximum, so
/// reported percentiles are monotone by construction and never exceed the
/// true maximum.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i` (inclusive), the reported representative.
    fn bucket_upper(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time summary. (Concurrent recording
    /// during a snapshot can skew individual fields by in-flight events;
    /// all call sites snapshot after the measured work has quiesced.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let percentile = |p_times_100: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the requested percentile, 1-based, ceil semantics.
            let rank = (count * p_times_100).div_ceil(100).max(1);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_upper(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            p50: percentile(50),
            p90: percentile(90),
            p99: percentile(99),
            max,
        }
    }
}

/// An integer-only summary of a [`Histogram`] — values are in the same
/// unit as the recorded samples (nanoseconds by convention). `p50 ≤ p90 ≤
/// p99 ≤ max` holds by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// A thread-safe, name-addressed home for metrics. Names are sorted
/// (`BTreeMap`) so every listing is deterministic.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use. Hot paths should
    /// hold the returned `Arc` rather than re-looking-up per event.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().expect("registry poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let map = self.gauges.lock().expect("registry poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All histogram snapshots, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let map = self.histograms.lock().expect("registry poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(3), 7);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in [3u64, 3, 3, 10, 10, 200, 1_000, 50_000, 50_000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert!(s.p50 <= s.p90, "{s:?}");
        assert!(s.p90 <= s.p99, "{s:?}");
        assert!(s.p99 <= s.max, "{s:?}");
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn single_sample_all_percentiles_equal_it() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (42, 42, 42, 42));
    }

    #[test]
    fn empty_histogram_snapshots_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn registry_is_sorted_and_shared() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").add(1);
        r.counter("b.second").add(3);
        let listed = r.counters();
        assert_eq!(
            listed,
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 5)]
        );
        r.gauge("depth").set(-4);
        assert_eq!(r.gauges(), vec![("depth".to_string(), -4)]);
    }
}
