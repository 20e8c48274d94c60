//! Multi-tenant admission control: eval-budget tiers, per-tenant token
//! quotas, and queue-depth shedding.
//!
//! Admission happens *before* fingerprinting. A tenant's class caps the
//! request's [`PlanOptions::eval_budget`] and `beam_width`, which changes
//! the request fingerprint — deliberately, so cache and store entries are
//! scoped to the tier that paid for them: a `Batch` tenant can never be
//! served a plan it did not have the budget to produce, and a `Premium`
//! plan is never downgraded by a cheaper tier's earlier miss.
//!
//! Token quotas bound *concurrency* (in-flight requests per tenant), not
//! rate: a token is taken at submit and returned when the ticket resolves,
//! so one tenant flooding the queue cannot starve the others. Queue-depth
//! shedding bounds the *global* backlog: when the miss queue is longer
//! than the configured maximum, new misses are refused with
//! [`ServeError::Overloaded`](gp_serve::ServeError) rather than queued
//! into a latency cliff. Cache and store hits are never shed — they cost
//! no planner time.

use crate::lock;
use gp_partition::PlanOptions;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Service tier, ordered cheapest to most capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TenantClass {
    /// Throughput tier: smallest search budget, narrow beam.
    Batch,
    /// The default tier: the budget most zoo-scale searches need.
    #[default]
    Standard,
    /// Latency-insensitive quality tier: whatever the request asked for.
    Premium,
}

impl TenantClass {
    /// Caps `options` to this tier: eval budget and beam width are
    /// clamped down, never raised. `Premium` passes everything through.
    pub fn apply(self, options: &mut PlanOptions) {
        let (budget_cap, beam_cap) = match self {
            TenantClass::Batch => (20_000_000, 4),
            TenantClass::Standard => (80_000_000, 8),
            TenantClass::Premium => return,
        };
        options.eval_budget = options.eval_budget.min(budget_cap);
        options.beam_width = Some(match options.beam_width {
            Some(w) => w.min(beam_cap),
            None => beam_cap,
        });
    }
}

/// One tenant's admission contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tier whose caps apply to this tenant's requests.
    pub class: TenantClass,
    /// Maximum in-flight requests; `None` means unbounded.
    pub tokens: Option<u32>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            class: TenantClass::Standard,
            tokens: None,
        }
    }
}

/// Fleet-wide admission policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// The contract for tenants not listed in `tenants`.
    pub default_spec: TenantSpec,
    /// Named tenants with explicit contracts.
    pub tenants: Vec<(String, TenantSpec)>,
    /// Shed new planner work when the miss queue is deeper than this;
    /// `None` disables shedding.
    pub max_queue_depth: Option<usize>,
}

impl AdmissionConfig {
    /// The contract governing `tenant`.
    pub fn spec(&self, tenant: &str) -> &TenantSpec {
        self.tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, spec)| spec)
            .unwrap_or(&self.default_spec)
    }
}

/// Runtime token accounting for all tenants.
///
/// Tokens are concurrency permits: [`AdmissionControl::admit`] takes one
/// and returns a guard; dropping the guard returns the token. Guard-based
/// release means a token can never leak on an error path.
pub struct AdmissionControl {
    config: AdmissionConfig,
    in_flight: Arc<Mutex<BTreeMap<String, u32>>>,
}

/// A held admission token; returns itself to the tenant's pool on drop.
#[derive(Debug)]
pub struct AdmissionToken {
    tenant: Option<String>,
    in_flight: Arc<Mutex<BTreeMap<String, u32>>>,
}

impl Drop for AdmissionToken {
    fn drop(&mut self) {
        if let Some(tenant) = self.tenant.take() {
            let mut held = lock(&self.in_flight);
            if let Some(count) = held.get_mut(&tenant) {
                *count -= 1;
                if *count == 0 {
                    held.remove(&tenant);
                }
            }
        }
    }
}

/// Why admission refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The tenant that hit its quota.
    pub tenant: String,
    /// In-flight requests the tenant already holds.
    pub in_flight: usize,
}

impl AdmissionControl {
    /// Admission control over `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionControl {
            config,
            in_flight: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The policy this control enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Rewrites `options` to the tenant's tier and takes an in-flight
    /// token.
    ///
    /// # Errors
    ///
    /// [`QuotaExceeded`] when the tenant is already at its token limit;
    /// `options` is still rewritten (the rewrite is deterministic and the
    /// caller may retry).
    pub fn admit(
        &self,
        tenant: &str,
        options: &mut PlanOptions,
    ) -> Result<AdmissionToken, QuotaExceeded> {
        let spec = self.config.spec(tenant);
        spec.class.apply(options);
        if let Some(limit) = spec.tokens {
            let mut held = lock(&self.in_flight);
            let count = held.entry(tenant.to_string()).or_insert(0);
            if *count >= limit {
                return Err(QuotaExceeded {
                    tenant: tenant.to_string(),
                    in_flight: *count as usize,
                });
            }
            *count += 1;
            Ok(AdmissionToken {
                tenant: Some(tenant.to_string()),
                in_flight: Arc::clone(&self.in_flight),
            })
        } else {
            Ok(AdmissionToken {
                tenant: None,
                in_flight: Arc::clone(&self.in_flight),
            })
        }
    }

    /// Tokens currently held by `tenant`.
    pub fn held(&self, tenant: &str) -> usize {
        lock(&self.in_flight).get(tenant).copied().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_clamp_down_but_never_up() {
        let mut batch = PlanOptions::default();
        TenantClass::Batch.apply(&mut batch);
        assert_eq!(batch.eval_budget, 20_000_000);
        assert_eq!(batch.beam_width, Some(4));

        // A request already below the cap keeps its own budget.
        let mut modest = PlanOptions {
            eval_budget: 1_000,
            beam_width: Some(2),
            ..PlanOptions::default()
        };
        TenantClass::Standard.apply(&mut modest);
        assert_eq!(modest.eval_budget, 1_000);
        assert_eq!(modest.beam_width, Some(2));

        let mut premium = PlanOptions::default();
        let untouched = premium.clone();
        TenantClass::Premium.apply(&mut premium);
        assert_eq!(premium, untouched);
    }

    #[test]
    fn tier_rewrite_scopes_the_fingerprint() {
        use gp_cluster::Cluster;
        use gp_ir::zoo::{self, CandleUnoConfig};
        use gp_serve::PlanRequest;
        use std::sync::Arc;

        let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny()));
        let cluster = Cluster::tiny_test(4);
        let fp = |class: TenantClass| {
            let mut options = PlanOptions::default();
            class.apply(&mut options);
            PlanRequest::new(Arc::clone(&model), cluster.clone(), 32)
                .with_options(options)
                .fingerprint()
        };
        assert_ne!(fp(TenantClass::Batch), fp(TenantClass::Premium));
        assert_ne!(fp(TenantClass::Standard), fp(TenantClass::Premium));
    }

    #[test]
    fn tokens_bound_in_flight_and_release_on_drop() {
        let control = AdmissionControl::new(AdmissionConfig {
            tenants: vec![(
                "acme".into(),
                TenantSpec {
                    class: TenantClass::Standard,
                    tokens: Some(2),
                },
            )],
            ..AdmissionConfig::default()
        });
        let mut options = PlanOptions::default();
        let t1 = control.admit("acme", &mut options).expect("first token");
        let _t2 = control.admit("acme", &mut options).expect("second token");
        let refused = control.admit("acme", &mut options).unwrap_err();
        assert_eq!(refused.tenant, "acme");
        assert_eq!(refused.in_flight, 2);
        assert_eq!(control.held("acme"), 2);

        drop(t1);
        assert_eq!(control.held("acme"), 1);
        let _t3 = control.admit("acme", &mut options).expect("freed token");

        // Unlisted tenants get the (unbounded) default contract.
        for _ in 0..8 {
            let token = control.admit("other", &mut options).expect("unbounded");
            drop(token);
        }
        assert_eq!(control.held("other"), 0);
    }
}
