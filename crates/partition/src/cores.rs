//! The process-wide core budget that planner searches draw helper threads
//! from.
//!
//! Every running search holds one core for its own thread, and a probe
//! may fan its DP runs out onto helper threads only from cores that no
//! search and no other helper holds. A `FleetService` whose workers
//! already fill the host therefore plans exactly as before, one thread
//! per search, while a lone search spreads over the idle cores. The
//! budget decides only how many threads a search uses, never what it
//! computes (DESIGN.md §"Planner search").

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A pool of cores shared by concurrent searches.
#[derive(Debug)]
pub(crate) struct CoreBudget {
    /// Cores the budget hands out.
    cores: usize,
    /// Cores held: one per running search, granted or not, plus every
    /// leased helper. Searches over the budget push it past `cores`.
    held: AtomicUsize,
}

impl CoreBudget {
    /// A budget of `cores` cores.
    pub(crate) fn new(cores: usize) -> CoreBudget {
        CoreBudget {
            cores,
            held: AtomicUsize::new(0),
        }
    }

    /// The process-wide budget, sized by `available_parallelism` on first
    /// use. The query costs tens of microseconds, so it runs once per
    /// process rather than once per search or probe.
    pub(crate) fn global() -> &'static CoreBudget {
        static GLOBAL: OnceLock<CoreBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            CoreBudget::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        })
    }

    /// Registers a search's own thread for as long as the lease lives.
    /// The thread runs either way; it holds its core even when none was
    /// free (`granted() == 0`), so no helper is granted while the host is
    /// already full.
    pub(crate) fn enter(&self) -> CoreLease<'_> {
        let before = self.held.fetch_add(1, Ordering::AcqRel);
        CoreLease {
            budget: self,
            held: 1,
            granted: usize::from(before < self.cores),
        }
    }

    /// Leases up to `want` helper cores from those nobody holds. The lease
    /// may grant none.
    pub(crate) fn helpers(&self, want: usize) -> CoreLease<'_> {
        let free = |held: usize| want.min(self.cores.saturating_sub(held));
        let granted = self
            .held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                let grant = free(held);
                (grant > 0).then_some(held + grant)
            })
            .map_or(0, free);
        CoreLease {
            budget: self,
            held: granted,
            granted,
        }
    }
}

/// Cores held from a [`CoreBudget`]; dropping the lease, unwinding
/// included, returns them.
#[derive(Debug)]
pub(crate) struct CoreLease<'b> {
    budget: &'b CoreBudget,
    /// What the lease added to the budget's `held` count.
    held: usize,
    /// How many of those cores were free when leased.
    granted: usize,
}

impl CoreLease<'_> {
    /// Cores that were free when the lease was taken.
    pub(crate) fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        self.budget.held.fetch_sub(self.held, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn global_budget_counts_the_host_cores() {
        let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(CoreBudget::global().cores, host);
        assert!(std::ptr::eq(CoreBudget::global(), CoreBudget::global()));
    }

    #[test]
    fn concurrent_grants_never_exceed_the_cores() {
        const THREADS: usize = 8;
        let host = CoreBudget::global().cores;
        for cores in [1, 3, host] {
            let budget = CoreBudget::new(cores);
            let start = Barrier::new(THREADS);
            let all_leased = Barrier::new(THREADS);
            let grants = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        let own = budget.enter();
                        let helpers = budget.helpers(2);
                        grants
                            .lock()
                            .expect("no thread panics holding the log")
                            .push(own.granted() + helpers.granted());
                        // Every lease is alive at once here.
                        all_leased.wait();
                    });
                }
            });
            let grants = grants.into_inner().expect("no thread panicked");
            assert_eq!(grants.len(), THREADS);
            let total: usize = grants.iter().sum();
            assert!(total <= cores, "granted {total} of {cores}: {grants:?}");
            // The first search in always finds a free core.
            assert!(total >= 1, "{grants:?}");
            // Every lease is gone, so every core is free again.
            assert_eq!(budget.helpers(cores).granted(), cores);
        }
    }

    #[test]
    fn dropping_a_lease_returns_its_cores() {
        let budget = CoreBudget::new(4);
        let own = budget.enter();
        assert_eq!(own.granted(), 1);
        let helpers = budget.helpers(8);
        assert_eq!(helpers.granted(), 3);
        assert_eq!(budget.helpers(1).granted(), 0);
        drop(helpers);
        assert_eq!(budget.helpers(8).granted(), 3);
        drop(own);
        assert_eq!(budget.helpers(8).granted(), 4);
    }

    #[test]
    fn an_unwinding_search_returns_its_cores() {
        let budget = CoreBudget::new(2);
        let unwound = std::panic::catch_unwind(|| {
            let _own = budget.enter();
            let _helpers = budget.helpers(1);
            panic!("search failed mid-probe");
        });
        assert!(unwound.is_err());
        assert_eq!(budget.helpers(2).granted(), 2);
    }

    #[test]
    fn searches_over_the_budget_still_hold_their_core() {
        let budget = CoreBudget::new(1);
        let first = budget.enter();
        let second = budget.enter();
        assert_eq!((first.granted(), second.granted()), (1, 0));
        drop(first);
        // The second search still runs on its own thread: no helper yet.
        assert_eq!(budget.helpers(1).granted(), 0);
        drop(second);
        assert_eq!(budget.helpers(1).granted(), 1);
    }
}
