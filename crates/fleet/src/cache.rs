//! The decoded-plan LRU behind each shard of
//! [`ShardedPlanCache`](crate::ShardedPlanCache).

use gp_partition::Plan;
use gp_serve::Fingerprint;
use std::collections::HashMap;
use std::sync::Arc;

/// A plan's key: the request fingerprint plus the
/// [`gp_ir::SpModel::numbering_signature`] of the graph it was planned
/// for. Plans carry raw operator ids, so renumbered isomorphic models
/// (equal fingerprints) must not share an entry.
pub(crate) type PlanKey = (Fingerprint, u64);

struct Entry {
    plan: Arc<Plan>,
    last_used: u64,
}

/// A least-recently-used cache of decoded plans keyed by [`PlanKey`].
///
/// Eviction scans for the oldest stamp, which is `O(capacity)` per insert
/// beyond capacity — plan caches are small (tens to hundreds of entries)
/// and a plan *miss* costs milliseconds of DP search, so simplicity wins
/// over an intrusive list.
pub(crate) struct PlanCache {
    capacity: usize,
    entries: HashMap<PlanKey, Entry>,
    clock: u64,
    evictions: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache needs capacity >= 1");
        PlanCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
            evictions: 0,
        }
    }

    /// Looks up a plan, refreshing recency on hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.plan)
        })
    }

    /// Inserts (or replaces) a plan, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) {
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(&oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                plan,
                last_used: self.clock,
            },
        );
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_ir::zoo;
    use gp_partition::{GraphPipePlanner, Planner};

    fn some_plan() -> Arc<Plan> {
        let model = zoo::mlp_chain(2, 8);
        Arc::new(
            GraphPipePlanner::new()
                .plan(&model, &Cluster::summit_like(2), 8)
                .unwrap(),
        )
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let plan = some_plan();
        let mut cache = PlanCache::new(2);
        let [a, b, c] = [1, 2, 3].map(|i| (Fingerprint(i), 7));
        cache.insert(a, Arc::clone(&plan));
        cache.insert(b, Arc::clone(&plan));
        assert!(cache.get(&a).is_some()); // refresh a; b is now oldest
        cache.insert(c, Arc::clone(&plan));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn reinsert_does_not_evict() {
        let plan = some_plan();
        let mut cache = PlanCache::new(1);
        let a = (Fingerprint(1), 7);
        cache.insert(a, Arc::clone(&plan));
        cache.insert(a, Arc::clone(&plan));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = PlanCache::new(0);
    }
}
