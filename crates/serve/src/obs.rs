//! Serving-side observability wiring.
//!
//! A [`ServeObs`] bundles the two obs endpoints a server writes into:
//! a bounded [`TraceSink`] receiving one span tree per request, and a
//! [`MetricsRegistry`] receiving per-stage cost histograms (and, via
//! [`crate::metrics::MetricsSnapshot::export_into`], the serving
//! counters). The caller keeps its own handles; the server only
//! clones the `Arc`s — so after a run the driver reads traces and
//! metrics without touching the server again.
//!
//! Determinism note: workers stamp coarse span ticks by reading the
//! shared injected clock. Under the closed-loop driver the clock only
//! advances while no request is in flight (submit batch → drain →
//! advance), so those reads — and therefore entire traces — are pure
//! functions of the request stream. A driver that advances the clock
//! mid-flight would keep the *semantic* stream deterministic but could
//! shift coarse tick stamps; trace-tick sequence numbers are immune
//! either way.

use std::sync::Arc;

use nlidb_obs::{MetricsRegistry, TraceSink};

use crate::health::{HealthConfig, HealthHub};

/// Trace + metrics endpoints for one observed server.
#[derive(Debug, Clone)]
pub struct ServeObs {
    /// Receives one finished trace per request (admitted or rejected).
    pub sink: Arc<TraceSink>,
    /// Receives `span.<name>` cost histograms as traces finish.
    pub registry: Arc<MetricsRegistry>,
    /// Optional windowed telemetry + SLO engine, fed by the server's
    /// drain loop (`None` — the default — records nothing, keeping
    /// every pre-existing committed artifact byte-identical).
    pub health: Option<Arc<HealthHub>>,
}

impl ServeObs {
    /// A fresh sink (retaining `trace_capacity` traces) and registry.
    pub fn new(trace_capacity: usize) -> ServeObs {
        ServeObs {
            sink: Arc::new(TraceSink::new(trace_capacity)),
            registry: Arc::new(MetricsRegistry::new()),
            health: None,
        }
    }

    /// A sink that samples, a registry, and a [`HealthHub`]. The sink
    /// stores only traces whose id is a multiple of `every`, so span
    /// memory stays `trace_capacity` whatever the stream length;
    /// metrics histograms still observe *every* trace (sampling gates
    /// storage, not measurement). The server feeds every completion's
    /// disposition and sojourn into per-tenant windowed scopes at each
    /// drain and evaluates the SLO engines there, emitting `health`
    /// traces into the sink and `health.*` counters into the registry.
    /// Health traces carry ids from
    /// [`nlidb_obs::slo::HEALTH_TRACE_BASE`] up — disjoint from the
    /// small sequential request ids, and subject to the same
    /// deterministic id-modulus sampling as every other trace.
    pub fn with_health(trace_capacity: usize, every: u64, config: HealthConfig) -> ServeObs {
        ServeObs {
            sink: Arc::new(TraceSink::with_sampling(trace_capacity, every)),
            registry: Arc::new(MetricsRegistry::new()),
            health: Some(Arc::new(HealthHub::new(config))),
        }
    }

    /// Record a finished trace: per-stage cost histograms first, then
    /// the trace itself.
    pub fn record(&self, trace: nlidb_obs::Trace) {
        self.registry.observe_trace(&trace);
        self.sink.push(trace);
    }
}
