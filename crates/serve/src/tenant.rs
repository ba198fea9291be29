//! Tenant identity, policy, and registry for multi-tenant serving.
//!
//! One serving runtime can front many independent databases — the
//! paper's §6 enterprise-adaptation challenge. Each database becomes a
//! *tenant*, identified by its [`schema_fingerprint`]: a seedless hash
//! of everything that determines interpretations (concept labels,
//! table names, data-property labels, and the full join structure).
//! The fingerprint is the tenant's identity everywhere — routing salt,
//! journal namespace, and metrics label — and each worker keeps one
//! interpretation cache per tenant, so isolation falls out of keying
//! rather than out of locks.
//!
//! # Collision hygiene
//!
//! Fingerprints are 64-bit FNV-1a digests, not cryptographic hashes.
//! Accidental collisions across real schemas are vanishingly unlikely
//! (the six `benchdata` domains are pairwise distinct, asserted by the
//! tenant test-suite), but a collision would silently merge two
//! tenants — so [`TenantRegistry::register`] *panics* on a duplicate
//! fingerprint instead of overwriting. Registering the same schema
//! twice is a configuration error, not a runtime condition.

use std::sync::Arc;

use nlidb_core::pipeline::NliPipeline;
use nlidb_ontology::Ontology;

/// Per-tenant serving policy: how much this tenant may consume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Maximum requests this tenant may have *admitted* over the
    /// server's lifetime (`None` = unlimited). Enforced by the
    /// single-threaded submitter, so refusals are deterministic;
    /// sheds and deadline rejects do not consume budget.
    pub admission_budget: Option<u64>,
}

/// One registered tenant: identity, pipeline, and policy.
#[derive(Clone)]
pub struct TenantEntry {
    name: String,
    fingerprint: u64,
    pipeline: Arc<NliPipeline>,
    policy: TenantPolicy,
}

impl TenantEntry {
    /// The tenant's human-readable name (metrics label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's schema fingerprint (identity).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The tenant's trained pipeline.
    pub fn pipeline(&self) -> &Arc<NliPipeline> {
        &self.pipeline
    }

    /// The tenant's serving policy.
    pub fn policy(&self) -> &TenantPolicy {
        &self.policy
    }

    /// The tenant's ontology (through the pipeline's schema context —
    /// the registry holds one artifact per tenant, not parallel maps).
    pub fn ontology(&self) -> &Ontology {
        &self.pipeline.context().ontology
    }
}

/// An ordered set of tenants, keyed by schema fingerprint.
///
/// Registration order is load-bearing: a tenant's *index* feeds its
/// routing salt, so two registries with the same tenants in the same
/// order produce byte-identical serving runs. Index 0 carries a zero
/// salt — a single-tenant registry routes exactly like the
/// pre-tenancy server.
#[derive(Default)]
pub struct TenantRegistry {
    entries: Vec<TenantEntry>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Register a tenant; returns its schema fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if a tenant with the same fingerprint is already
    /// registered (see the module's collision-hygiene notes).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        pipeline: Arc<NliPipeline>,
        policy: TenantPolicy,
    ) -> u64 {
        let name = name.into();
        let fingerprint = schema_fingerprint(&pipeline);
        if let Some(prior) = self.entries.iter().find(|e| e.fingerprint == fingerprint) {
            panic!(
                "tenant {name:?} collides with already-registered tenant {:?} \
                 on schema fingerprint {fingerprint:016x}",
                prior.name
            );
        }
        self.entries.push(TenantEntry {
            name,
            fingerprint,
            pipeline,
            policy,
        });
        fingerprint
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tenants in registration order.
    pub fn entries(&self) -> &[TenantEntry] {
        &self.entries
    }
}

/// Hash the parts of a schema that determine interpretations: concept
/// labels, table names, data-property labels, and the relationships
/// (with their endpoints and FK columns). Two pipelines over the same
/// schema share a fingerprint; any schema change — join structure
/// included — changes it, so nothing keyed by it goes stale silently.
/// In multi-tenant serving this digest *is* the tenant identity (see
/// the module docs).
pub fn schema_fingerprint(pipeline: &NliPipeline) -> u64 {
    let onto = &pipeline.context().ontology;
    let mut acc = String::new();
    for c in &onto.concepts {
        acc.push_str(&c.label);
        acc.push('\u{1}');
        acc.push_str(&c.table);
        acc.push('\u{1}');
    }
    for p in &onto.data_properties {
        acc.push_str(&p.label);
        acc.push('\u{1}');
    }
    // Relationships decide join paths; two schemas differing only in
    // join structure must not share a fingerprint.
    for r in &onto.object_properties {
        for part in [&r.label, &r.from, &r.from_column, &r.to, &r.to_column] {
            acc.push_str(part);
            acc.push('\u{1}');
        }
        acc.push('\u{2}');
    }
    nlidb_core::fnv1a(nlidb_core::FNV1A_OFFSET, acc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_benchdata::retail_database;

    #[test]
    fn fingerprint_is_stable_across_pipeline_builds() {
        let db = retail_database(7);
        let a = schema_fingerprint(&NliPipeline::standard(&db));
        let b = schema_fingerprint(&NliPipeline::standard(&retail_database(7)));
        assert_eq!(a, b, "same schema, same identity");
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn duplicate_fingerprints_are_rejected() {
        let db = retail_database(7);
        let mut reg = TenantRegistry::new();
        reg.register(
            "a",
            Arc::new(NliPipeline::standard(&db)),
            TenantPolicy::default(),
        );
        reg.register(
            "b",
            Arc::new(NliPipeline::standard(&db)),
            TenantPolicy::default(),
        );
    }

    #[test]
    fn registry_indexes_by_fingerprint() {
        let mut reg = TenantRegistry::new();
        assert!(reg.is_empty());
        let fp = reg.register(
            "retail",
            Arc::new(NliPipeline::standard(&retail_database(7))),
            TenantPolicy {
                admission_budget: Some(10),
            },
        );
        assert_eq!(reg.len(), 1);
        let e = &reg.entries()[0];
        assert_eq!(e.name(), "retail");
        assert_eq!(e.fingerprint(), fp);
        assert_eq!(e.policy().admission_budget, Some(10));
        assert!(!e.ontology().concepts.is_empty());
    }
}
