//! # gp-fleet — the plan service
//!
//! The workspace's one plan service. `gp-serve` supplies the request
//! fingerprints, the artifact codec, and the planner factory; this crate
//! serves plans on top of them, in-process. [`FleetConfig::local`] is
//! the minimal preset (one shard, no store, no admission rewrites); the
//! full service composes:
//!
//! * [`ShardedPlanCache`] — N independent LRU shards selected by
//!   fingerprint range, so concurrent tenants contend on `1/N` of the
//!   lock surface and one hot key range cannot evict everything else.
//! * [`ArtifactStore`] — a directory of canonical plan artifacts, one
//!   file per key, whose names are the index; a warm restart decodes
//!   instead of replanning.
//! * [`LocalWorker`] — in-process planning, one dispatcher thread per
//!   worker; [`PlanWorker`] is the seam tests use to inject gated or
//!   failing workers.
//! * [`AdmissionControl`] — multi-tenant admission: eval-budget tiers,
//!   per-tenant in-flight quotas, and backlog shedding.
//! * [`FleetService`] — the front-end that composes all of the above
//!   behind one `submit(tenant, request) -> ticket` call.
//!
//! ## Determinism contract
//!
//! Every layer preserves one invariant: **the served artifact is a pure
//! function of the admitted request.** The planner is deterministic for a
//! given request, workers zero the search stats of the plans they return
//! ([`canonical_artifact`] is the store's byte form), and store and cache
//! entries are keyed by the same fingerprints `gp-serve` uses, plus the
//! graph's numbering signature — so a plan served from disk or from any
//! shard is byte-identical to planning locally. DESIGN.md §"Fleet
//! architecture" gives the full argument.

pub mod admission;
mod cache;
pub mod service;
pub mod shard;
pub mod store;
pub mod worker;

pub use admission::{
    AdmissionConfig, AdmissionControl, AdmissionToken, QuotaExceeded, TenantClass, TenantSpec,
};
pub use gp_serve::artifact::canonical_artifact;
pub use service::{FleetConfig, FleetService, FleetStats, FleetTicket, Served};
pub use shard::{shard_of, ShardStats, ShardedPlanCache};
pub use store::ArtifactStore;
pub use worker::{LocalWorker, PlanWorker};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard when an earlier holder panicked.
/// The fleet's critical sections are short map and counter updates that
/// leave their table valid at every step, so one panicking thread must not
/// fail every later request that needs the same lock.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod doc_sync {
    //! The crate's documentation contract: the repository docs must
    //! describe the fleet layer this crate actually ships.

    #[test]
    fn design_doc_covers_the_fleet_architecture() {
        let design = include_str!("../../../DESIGN.md");
        for needle in [
            "## Fleet architecture",
            "Planning runs in-process only",
            "<fingerprint>-<numbering>.json",
            "shard",
            "admission",
        ] {
            assert!(
                design.contains(needle),
                "DESIGN.md lost its fleet coverage: missing `{needle}`"
            );
        }
    }

    #[test]
    fn readme_documents_distributed_serving() {
        let readme = include_str!("../../../README.md");
        for needle in ["Distributed serving", "serve_fleet"] {
            assert!(
                readme.contains(needle),
                "README.md lost its fleet coverage: missing `{needle}`"
            );
        }
    }
}
