//! Windowed health tracking for the serving runtime.
//!
//! A [`HealthHub`] is the bridge between the server's drain loop and
//! the obs-layer time-series/SLO machinery
//! ([`nlidb_obs::timeseries`], [`nlidb_obs::slo`]): on every drain the
//! submitter feeds each completion's disposition and sojourn ticks
//! into a per-tenant [`WindowedScope`] and [`SloEngine`], then
//! evaluates the engines at the drain tick. Everything downstream —
//! the window matrix, the burn rates, the fire/clear event log, the
//! `health.*` metrics and the `health` traces pushed into the sink —
//! is therefore a pure function of the completion stream, which E21
//! asserts by running every regime twice and byte-comparing.
//!
//! Two objectives are tracked per tenant, the classic pair:
//!
//! * **availability** — good = the request was served (answered,
//!   session reply, or degraded); bad = refused, shed, or expired.
//! * **latency** — over served requests only: good = sojourn (drain
//!   tick − submit tick) at or below the configured threshold.
//!
//! Unknown-tenant refusals ([`crate::Server::submit_to`] traffic naming
//! no registered fingerprint) belong to no tenant scope and are not fed;
//! every other completion, including admission-time rejects, is.
//!
//! Lock discipline: the hub's interior `Mutex` exists only to make
//! [`crate::ServeObs`] `Sync` for the worker threads that share it —
//! the single-threaded submitter is the only writer, so there is no
//! lock-order dependence to make runs diverge.

use std::collections::BTreeMap;
use std::sync::Mutex;

use nlidb_obs::slo::HEALTH_TRACE_BASE;
use nlidb_obs::{HealthEvent, SloEngine, SloKind, SloPolicy, WindowedScope};

use crate::obs::ServeObs;
use crate::server::Disposition;

/// Knobs for a [`HealthHub`]: window geometry plus the two objective
/// policies, in the same spirit as the other serve policy structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Logical ticks per window.
    pub window_ticks: u64,
    /// Windows retained per series (ring capacity). Series older than
    /// this fold into evicted totals — sums still reconcile exactly.
    pub windows: usize,
    /// Availability target in milli-units (990 = 99.0% served).
    pub availability_target_milli: u64,
    /// Latency target in milli-units over served requests.
    pub latency_target_milli: u64,
    /// Sojourn ticks at or below which a served request counts as
    /// latency-good.
    pub latency_threshold_ticks: u64,
    /// Short burn span, in windows (responsiveness).
    pub short_windows: u64,
    /// Long burn span, in windows (memory); clamped to ≥ short.
    pub long_windows: u64,
    /// Burn (milli) at/above which — on both spans — an objective
    /// fires. 1000 = spending the error budget exactly on schedule.
    pub fire_burn_milli: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            window_ticks: 8,
            windows: 64,
            availability_target_milli: 990,
            latency_target_milli: 950,
            latency_threshold_ticks: 8,
            short_windows: 2,
            long_windows: 8,
            fire_burn_milli: 2000,
        }
    }
}

impl HealthConfig {
    fn policies(&self) -> [SloPolicy; 2] {
        [
            SloPolicy {
                objective: "availability".to_string(),
                kind: SloKind::Availability,
                target_milli: self.availability_target_milli,
                short_windows: self.short_windows,
                long_windows: self.long_windows,
                fire_burn_milli: self.fire_burn_milli,
            },
            SloPolicy {
                objective: "latency".to_string(),
                kind: SloKind::Latency {
                    threshold_ticks: self.latency_threshold_ticks,
                },
                target_milli: self.latency_target_milli,
                short_windows: self.short_windows,
                long_windows: self.long_windows,
                fire_burn_milli: self.fire_burn_milli,
            },
        ]
    }
}

/// One per-window sample of the merged (all-tenant) series — what the
/// soak binary appends to its JSON line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Window index (tick / `window_ticks`).
    pub index: u64,
    /// Requests served (answered + session replies + degraded) whose
    /// completing drain fell in this window.
    pub served: u64,
    /// p99 sojourn ticks over the window's served requests (sketch
    /// bucket top; 0 for an empty window).
    pub p99: u64,
    /// Availability burn (milli) computed over this single window.
    pub burn_milli: u64,
}

/// A point-in-time view of one tenant's health, for callers that
/// should not hold the hub lock ([`HealthHub::report`]).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Canonical window-matrix rendering of the tenant's scope.
    pub matrix: String,
    /// Canonical event-log rendering of the tenant's engine.
    pub events: String,
    /// `(objective, currently firing)` pairs, objective-sorted.
    pub firing: Vec<(String, bool)>,
}

#[derive(Debug)]
struct TenantHealth {
    scope: WindowedScope,
    engine: SloEngine,
}

#[derive(Debug)]
struct HubInner {
    tenants: BTreeMap<String, TenantHealth>,
    /// Health traces emitted so far — the offset from
    /// [`HEALTH_TRACE_BASE`] for the next event's trace id.
    emitted: u64,
    /// Hub-global `(tenant, event)` log, emission order.
    events: Vec<(String, HealthEvent)>,
}

/// Per-tenant windowed scopes + SLO engines, fed by the server's
/// drain loop. See the module docs for the data flow.
#[derive(Debug)]
pub struct HealthHub {
    config: HealthConfig,
    inner: Mutex<HubInner>,
}

/// Counter series name for a disposition (the windowed analogue of
/// the cumulative [`crate::ServeMetrics`] counters).
fn series_of(disposition: &Disposition) -> &'static str {
    match disposition {
        Disposition::Answered { .. } => "answered",
        Disposition::SessionReply { .. } => "session",
        Disposition::Degraded { .. } => "degraded",
        Disposition::Refused { .. } => "refused",
        Disposition::Shed => "shed",
        Disposition::DeadlineExceeded => "deadline",
    }
}

fn is_served(disposition: &Disposition) -> bool {
    matches!(
        disposition,
        Disposition::Answered { .. }
            | Disposition::SessionReply { .. }
            | Disposition::Degraded { .. }
    )
}

impl HealthHub {
    /// An empty hub; tenant states appear on first feed.
    pub fn new(config: HealthConfig) -> HealthHub {
        let mut config = config;
        config.long_windows = config.long_windows.max(config.short_windows.max(1));
        assert!(
            config.long_windows <= config.windows as u64,
            "long span exceeds window ring capacity"
        );
        HealthHub {
            config,
            inner: Mutex::new(HubInner {
                tenants: BTreeMap::new(),
                emitted: 0,
                events: Vec::new(),
            }),
        }
    }

    /// The hub's configuration.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Feed one completion: `sojourn` is drain tick − submit tick,
    /// `tick` the drain tick the completion surfaced at.
    pub fn feed(&self, tenant: &str, disposition: &Disposition, sojourn: u64, tick: u64) {
        let config = self.config;
        let mut inner = self.inner.lock().expect("health hub lock");
        let state = inner.tenants.entry(tenant.to_string()).or_insert_with(|| {
            let mut engine = SloEngine::new(config.window_ticks, config.windows);
            for policy in config.policies() {
                engine.add_objective(policy);
            }
            TenantHealth {
                scope: WindowedScope::new(config.window_ticks, config.windows),
                engine,
            }
        });
        let served = is_served(disposition);
        state.scope.counter(series_of(disposition)).record(tick, 1);
        if served {
            state.scope.histogram("sojourn").record(tick, sojourn);
        }
        state
            .engine
            .record("availability", tick, u64::from(served), u64::from(!served));
        if served {
            let slow = sojourn > config.latency_threshold_ticks;
            state
                .engine
                .record("latency", tick, u64::from(!slow), u64::from(slow));
        }
    }

    /// Evaluate every tenant's engine at `tick` (tenant-name order).
    /// Emitted events are appended to the hub log, pushed into the
    /// obs sink as `health` traces (ids from [`HEALTH_TRACE_BASE`]),
    /// and counted into the registry's `health.*` scope.
    pub fn evaluate(&self, tick: u64, obs: Option<&ServeObs>) {
        let mut inner = self.inner.lock().expect("health hub lock");
        let mut emitted: Vec<(String, HealthEvent)> = Vec::new();
        for (tenant, state) in inner.tenants.iter_mut() {
            for event in state.engine.evaluate(tick) {
                emitted.push((tenant.clone(), event));
            }
        }
        for (tenant, event) in emitted {
            if let Some(obs) = obs {
                obs.sink
                    .push(event.to_trace(HEALTH_TRACE_BASE + inner.emitted));
                obs.registry
                    .counter(&format!("health.{}", event.kind.label()))
                    .inc();
                obs.registry
                    .counter(&format!(
                        "health.{tenant}.{}.{}",
                        event.objective,
                        event.kind.label()
                    ))
                    .inc();
            }
            inner.emitted += 1;
            inner.events.push((tenant, event));
        }
    }

    /// The maximum short-span burn (milli) across every tenant and
    /// objective — the overload controller's early-warning signal.
    /// Updated only at drains, so consulting it at submit time is as
    /// deterministic as the credit ledger.
    pub fn max_short_burn_milli(&self) -> u64 {
        let inner = self.inner.lock().expect("health hub lock");
        inner
            .tenants
            .values()
            .map(|t| t.engine.max_short_burn_milli())
            .max()
            .unwrap_or(0)
    }

    /// Whether `objective` currently fires for `tenant`.
    pub fn is_firing(&self, tenant: &str, objective: &str) -> bool {
        let inner = self.inner.lock().expect("health hub lock");
        inner
            .tenants
            .get(tenant)
            .is_some_and(|t| t.engine.is_firing(objective))
    }

    /// Hub-global `(tenant, event)` log, emission order.
    pub fn events(&self) -> Vec<(String, HealthEvent)> {
        self.inner.lock().expect("health hub lock").events.clone()
    }

    /// Canonical rendering of the hub-global event log: one line per
    /// event, `tenant=<name> ` prefix then the event's own rendering.
    pub fn render_events(&self) -> String {
        let inner = self.inner.lock().expect("health hub lock");
        let mut out = String::new();
        for (tenant, event) in &inner.events {
            out.push_str(&format!("tenant={tenant} {}\n", event.render()));
        }
        out
    }

    /// Canonical rendering of every tenant's window matrix plus the
    /// event log — the byte-compared artifact of E21.
    pub fn render_all(&self) -> String {
        let inner = self.inner.lock().expect("health hub lock");
        let mut out = String::new();
        for (tenant, state) in &inner.tenants {
            out.push_str(&format!("tenant {tenant}\n"));
            out.push_str(&state.scope.render_text());
        }
        drop(inner);
        let events = self.render_events();
        if !events.is_empty() {
            out.push_str("events\n");
            out.push_str(&events);
        }
        out
    }

    /// A point-in-time report for one tenant (`None` if the tenant
    /// has fed nothing yet).
    pub fn report(&self, tenant: &str) -> Option<HealthReport> {
        let inner = self.inner.lock().expect("health hub lock");
        let state = inner.tenants.get(tenant)?;
        let matrix = state.scope.render_text();
        let firing: Vec<(String, bool)> = state
            .engine
            .policies()
            .iter()
            .map(|p| (p.objective.clone(), state.engine.is_firing(&p.objective)))
            .collect();
        let events = state.engine.render_events();
        Some(HealthReport {
            matrix,
            events,
            firing,
        })
    }

    /// A clone of one tenant's windowed scope, for reconciliation
    /// assertions (E21 byte- and sum-compares it against the
    /// cumulative serve counters).
    pub fn scope_snapshot(&self, tenant: &str) -> Option<WindowedScope> {
        let inner = self.inner.lock().expect("health hub lock");
        inner.tenants.get(tenant).map(|t| t.scope.clone())
    }

    /// Tenant names that have fed at least one completion, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("health hub lock");
        inner.tenants.keys().cloned().collect()
    }

    /// The merged (all-tenant) per-window series: served throughput,
    /// p99 sojourn, and single-window availability burn, oldest
    /// retained window first. What the soak binary serializes.
    pub fn window_series(&self) -> Vec<WindowSample> {
        let inner = self.inner.lock().expect("health hub lock");
        let mut merged = WindowedScope::new(self.config.window_ticks, self.config.windows);
        for state in inner.tenants.values() {
            merged.merge(&state.scope);
        }
        drop(inner);
        let Some((from, to)) = merged.window_range() else {
            return Vec::new();
        };
        let delta = |name: &str, w: u64| merged.counter_ref(name).map_or(0, |c| c.delta(w));
        let budget = 1000 - self.config.availability_target_milli.min(999);
        (from..=to)
            .map(|w| {
                let served = delta("answered", w) + delta("session", w) + delta("degraded", w);
                let bad = delta("refused", w) + delta("shed", w) + delta("deadline", w);
                let total = served + bad;
                let burn_milli = bad
                    .saturating_mul(1000)
                    .checked_div(total)
                    .map_or(0, |share| share.saturating_mul(1000) / budget);
                let p99 = merged
                    .histogram_ref("sojourn")
                    .and_then(|h| h.percentile_in(w, 99.0))
                    .unwrap_or(0);
                WindowSample {
                    index: w,
                    served,
                    p99,
                    burn_milli,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served() -> Disposition {
        Disposition::Answered {
            sql: "SELECT 1".to_string(),
            rows: vec!["n=1".to_string()],
            from_cache: false,
        }
    }

    #[test]
    fn feed_and_reconcile() {
        let hub = HealthHub::new(HealthConfig {
            window_ticks: 4,
            windows: 16,
            ..HealthConfig::default()
        });
        for tick in 0..20 {
            hub.feed("default", &served(), 2, tick);
        }
        hub.feed("default", &Disposition::Shed, 0, 20);
        let scope = hub.scope_snapshot("default").unwrap();
        assert_eq!(scope.counter_ref("answered").unwrap().total(), 20);
        assert_eq!(scope.counter_ref("shed").unwrap().total(), 1);
        assert_eq!(scope.histogram_ref("sojourn").unwrap().total_count(), 20);
        assert!(hub.scope_snapshot("ghost").is_none());
        assert_eq!(hub.tenant_names(), vec!["default".to_string()]);
    }

    #[test]
    fn burn_fires_and_is_visible_to_early_warning() {
        let config = HealthConfig {
            window_ticks: 1,
            windows: 16,
            short_windows: 2,
            long_windows: 4,
            ..HealthConfig::default()
        };
        let hub = HealthHub::new(config);
        hub.feed("default", &served(), 1, 0);
        hub.evaluate(0, None);
        assert_eq!(hub.max_short_burn_milli(), 0);
        for tick in 1..3 {
            for _ in 0..10 {
                hub.feed("default", &Disposition::Shed, 0, tick);
            }
            hub.evaluate(tick, None);
        }
        assert!(hub.is_firing("default", "availability"));
        assert!(hub.max_short_burn_milli() >= 2000);
        let events = hub.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, "default");
        let report = hub.report("default").unwrap();
        assert!(report.firing.contains(&("availability".to_string(), true)));
        assert!(report.matrix.starts_with("windows width=1"));
        assert!(hub.render_all().contains("events\n"));
    }

    #[test]
    fn window_series_merges_tenants() {
        let hub = HealthHub::new(HealthConfig {
            window_ticks: 4,
            windows: 8,
            ..HealthConfig::default()
        });
        hub.feed("a", &served(), 3, 0);
        hub.feed("b", &served(), 5, 1);
        hub.feed("b", &Disposition::Shed, 0, 5);
        let series = hub.window_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].index, 0);
        assert_eq!(series[0].served, 2);
        assert_eq!(series[0].burn_milli, 0);
        assert_eq!(series[0].p99, 7, "sketch top of bucket holding 5");
        assert_eq!(series[1].served, 0);
        // One shed, zero served: error share 1000‰ over a 10‰ budget.
        assert_eq!(series[1].burn_milli, 100_000);
    }

    #[test]
    fn latency_objective_counts_only_served() {
        let hub = HealthHub::new(HealthConfig {
            window_ticks: 1,
            windows: 8,
            latency_threshold_ticks: 2,
            ..HealthConfig::default()
        });
        hub.feed("t", &served(), 3, 0); // slow
        hub.feed("t", &served(), 1, 0); // fast
        hub.feed("t", &Disposition::Shed, 9, 0); // no latency sample
        let report = hub.report("t").unwrap();
        assert!(report.firing.iter().any(|(o, _)| o == "latency"));
        let scope = hub.scope_snapshot("t").unwrap();
        assert_eq!(scope.histogram_ref("sojourn").unwrap().total_count(), 2);
    }
}
