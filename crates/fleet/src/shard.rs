//! The sharded plan cache: N independent plan LRUs selected by
//! fingerprint range.
//!
//! The 128-bit request fingerprint is a uniform key (it is the output of
//! the WL-refined structural hash, see `gp-serve::fingerprint`), so a
//! *range* partition of the key space is also a uniform partition of the
//! keys: shard `i` owns the fingerprints whose high 64 bits fall in
//! `[i * 2^64 / N, (i+1) * 2^64 / N)`. The mapping is computed with a
//! widening multiply — `(hi64 * N) >> 64` — which is exact for every
//! shard count, not just powers of two, and never divides.
//!
//! A plan is keyed by its fingerprint plus the numbering signature of the
//! graph it was planned for (plans carry raw operator ids); the shard is
//! chosen by the fingerprint alone.
//!
//! Each shard has its own lock and its own LRU budget, so concurrent
//! lookups for different fingerprints contend only `1/N` of the time and
//! a burst of new plans in one key range cannot evict the whole cache.

use crate::cache::PlanCache;
use crate::lock;
use gp_partition::Plan;
use gp_serve::Fingerprint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Shard {
    cache: Mutex<PlanCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Per-shard counters, snapshotted by [`ShardedPlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups served from this shard.
    pub hits: u64,
    /// Lookups that found no plan for the key in this shard.
    pub misses: u64,
    /// LRU evictions performed by this shard.
    pub evictions: u64,
    /// Plans currently held.
    pub len: u64,
    /// This shard's LRU budget.
    pub capacity: u64,
}

/// N independent plan LRU shards behind per-shard locks, selected by
/// fingerprint range.
pub struct ShardedPlanCache {
    shards: Vec<Shard>,
}

/// The shard owning a fingerprint under an `n`-way range partition of the
/// key space: `(high_64_bits * n) >> 64`, exact for every `n >= 1`.
pub fn shard_of(fingerprint: Fingerprint, n: usize) -> usize {
    let hi = (fingerprint.0 >> 64) as u64;
    ((u128::from(hi) * n as u128) >> 64) as usize
}

impl ShardedPlanCache {
    /// A cache of `shards` independent LRUs whose budgets sum to at least
    /// `total_capacity` (each shard gets `ceil(total / shards)`, minimum
    /// one plan).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `total_capacity == 0`.
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        assert!(shards > 0, "sharded cache needs at least one shard");
        assert!(total_capacity > 0, "sharded cache needs capacity >= 1");
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardedPlanCache {
            shards: (0..shards)
                .map(|_| Shard {
                    cache: Mutex::new(PlanCache::new(per_shard)),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The shard index owning `fingerprint`.
    pub fn shard_of(&self, fingerprint: Fingerprint) -> usize {
        shard_of(fingerprint, self.shards.len())
    }

    /// Looks up the plan for `fingerprint` planned under graph
    /// `numbering`, and counts the hit or miss on the owning shard.
    pub fn get(&self, fingerprint: &Fingerprint, numbering: u64) -> Option<Arc<Plan>> {
        let shard = &self.shards[self.shard_of(*fingerprint)];
        let plan = lock(&shard.cache).get(&(*fingerprint, numbering));
        let counter = if plan.is_some() {
            &shard.hits
        } else {
            &shard.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// Like [`get`](Self::get), but without touching the hit/miss
    /// counters. Used for the double-check under the in-flight lock,
    /// which would otherwise count every miss twice.
    pub fn peek(&self, fingerprint: &Fingerprint, numbering: u64) -> Option<Arc<Plan>> {
        lock(&self.shards[self.shard_of(*fingerprint)].cache).get(&(*fingerprint, numbering))
    }

    /// Inserts a plan under its fingerprint and graph numbering into the
    /// owning shard, evicting that shard's LRU entry when full.
    pub fn insert(&self, fingerprint: Fingerprint, plan: Arc<Plan>, numbering: u64) {
        lock(&self.shards[self.shard_of(fingerprint)].cache).insert((fingerprint, numbering), plan);
    }

    /// Plans held across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.cache).len()).sum()
    }

    /// True when no shard holds a plan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evictions performed across all shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| lock(&s.cache).evictions()).sum()
    }

    /// A per-shard counter snapshot, in shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let cache = lock(&s.cache);
                ShardStats {
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    evictions: cache.evictions(),
                    len: cache.len() as u64,
                    capacity: cache.capacity() as u64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_ir::zoo::{self, CandleUnoConfig};
    use gp_partition::{GraphPipePlanner, Planner};
    use gp_serve::PlanRequest;

    fn planned() -> (PlanRequest, Arc<Plan>, u64) {
        let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny()));
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let numbering = model.numbering_signature();
        (
            PlanRequest::new(model, cluster, 32),
            Arc::new(plan),
            numbering,
        )
    }

    #[test]
    fn range_partition_covers_every_shard_index() {
        for n in [1usize, 2, 3, 5, 8, 16] {
            assert_eq!(shard_of(Fingerprint(0), n), 0);
            assert_eq!(shard_of(Fingerprint(u128::MAX), n), n - 1);
            // Range partition: shard index is monotone in the key.
            let mut last = 0;
            for i in 0..64u32 {
                let fp = Fingerprint(u128::from(u64::MAX / 63 * u64::from(i)) << 64);
                let s = shard_of(fp, n);
                assert!(s >= last && s < n, "shard {s} out of order for n={n}");
                last = s;
            }
        }
    }

    #[test]
    fn hits_and_misses_are_counted_per_shard() {
        let (request, plan, numbering) = planned();
        let fp = request.fingerprint();
        let cache = ShardedPlanCache::new(4, 8);
        assert!(cache.get(&fp, numbering).is_none());
        cache.insert(fp, Arc::clone(&plan), numbering);
        assert!(cache.get(&fp, numbering).is_some());
        // Another graph numbering is another key: a miss, not this plan.
        assert!(cache.get(&fp, numbering ^ 1).is_none());
        assert!(cache.peek(&fp, numbering).is_some());
        let owner = cache.shard_of(fp);
        let stats = cache.stats();
        assert_eq!(stats[owner].hits, 1);
        assert_eq!(stats[owner].misses, 2);
        for (i, s) in stats.iter().enumerate() {
            if i != owner {
                assert_eq!((s.hits, s.misses), (0, 0));
            }
        }
    }

    #[test]
    fn tiny_shards_evict_and_pin_the_eviction_count() {
        // One shard of capacity 1: every distinct insert beyond the first
        // evicts, and the count is visible through the sharded stats.
        let (_, plan, numbering) = planned();
        let cache = ShardedPlanCache::new(1, 1);
        for i in 0..4u128 {
            cache.insert(Fingerprint(i << 64), Arc::clone(&plan), numbering);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.stats()[0].evictions, 3);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let cache = ShardedPlanCache::new(3, 8);
        let stats = cache.stats();
        assert_eq!(stats.len(), 3);
        // ceil(8/3) = 3 per shard.
        assert!(stats.iter().all(|s| s.capacity == 3));
    }
}
