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

use nlidb_obs::slo::{burn_milli, HEALTH_TRACE_BASE};
use nlidb_obs::{HealthEvent, SloEngine, SloPolicy, WindowedScope};

use crate::obs::ServeObs;
use crate::server::Disposition;

/// Windows retained per series (ring capacity). Older windows fold
/// into evicted totals — sums still reconcile exactly.
const WINDOWS: usize = 64;

/// Availability target in milli-units (990 = 99.0% served).
const AVAILABILITY_TARGET_MILLI: u64 = 990;

/// Latency target in milli-units over served requests.
const LATENCY_TARGET_MILLI: u64 = 950;

/// Sojourn ticks at or below which a served request counts as
/// latency-good.
const LATENCY_THRESHOLD_TICKS: u64 = 8;

/// Short burn span, in windows (responsiveness).
const SHORT_WINDOWS: u64 = 2;

/// Knobs for a [`HealthHub`]: the window width and how the burn
/// rule fires. The ring capacity, the two objectives' targets, the
/// latency threshold and the short span are fixed (see the constants
/// above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Logical ticks per window.
    pub window_ticks: u64,
    /// Long burn span, in windows (memory); clamped to ≥ the short
    /// span of 2.
    pub long_windows: u64,
    /// Burn (milli) at/above which — on both spans — an objective
    /// fires. 1000 = spending the error budget exactly on schedule.
    pub fire_burn_milli: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            window_ticks: 8,
            long_windows: 8,
            fire_burn_milli: 2000,
        }
    }
}

impl HealthConfig {
    fn policies(&self) -> [SloPolicy; 2] {
        let availability = SloPolicy {
            objective: "availability".to_string(),
            target_milli: AVAILABILITY_TARGET_MILLI,
            short_windows: SHORT_WINDOWS,
            long_windows: self.long_windows,
            fire_burn_milli: self.fire_burn_milli,
        };
        let latency = SloPolicy {
            objective: "latency".to_string(),
            target_milli: LATENCY_TARGET_MILLI,
            ..availability.clone()
        };
        [availability, latency]
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

#[derive(Debug)]
struct TenantHealth {
    scope: WindowedScope,
    engine: SloEngine,
}

#[derive(Debug)]
struct HubInner {
    tenants: BTreeMap<String, TenantHealth>,
    /// Hub-global `(tenant, event)` log, emission order. An event's
    /// position in it is its trace id's offset from
    /// [`HEALTH_TRACE_BASE`].
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
        config.long_windows = config.long_windows.max(SHORT_WINDOWS);
        assert!(
            config.long_windows <= WINDOWS as u64,
            "long span exceeds window ring capacity"
        );
        HealthHub {
            config,
            inner: Mutex::new(HubInner {
                tenants: BTreeMap::new(),
                events: Vec::new(),
            }),
        }
    }

    /// Feed one completion: `sojourn` is drain tick − submit tick,
    /// `tick` the drain tick the completion surfaced at.
    pub fn feed(&self, tenant: &str, disposition: &Disposition, sojourn: u64, tick: u64) {
        let config = self.config;
        let mut inner = self.inner.lock().expect("health hub lock");
        let state = inner.tenants.entry(tenant.to_string()).or_insert_with(|| {
            let mut engine = SloEngine::new(config.window_ticks, WINDOWS);
            for policy in config.policies() {
                engine.add_objective(policy);
            }
            TenantHealth {
                scope: WindowedScope::new(config.window_ticks, WINDOWS),
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
            let slow = sojourn > LATENCY_THRESHOLD_TICKS;
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
        let HubInner { tenants, events } = &mut *inner;
        for (tenant, state) in tenants.iter_mut() {
            for event in state.engine.evaluate(tick) {
                if let Some(obs) = obs {
                    obs.sink
                        .push(event.to_trace(HEALTH_TRACE_BASE + events.len() as u64));
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
                events.push((tenant.clone(), event));
            }
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

    /// Canonical rendering of every tenant's window matrix plus the
    /// event log (one line per event: `tenant=<name> ` then the
    /// event's own rendering) — the byte-compared artifact of E21.
    pub fn render_all(&self) -> String {
        let inner = self.inner.lock().expect("health hub lock");
        let mut out = String::new();
        for (tenant, state) in &inner.tenants {
            out.push_str(&format!("tenant {tenant}\n"));
            out.push_str(&state.scope.render_text());
        }
        if !inner.events.is_empty() {
            out.push_str("events\n");
        }
        for (tenant, event) in &inner.events {
            out.push_str(&format!("tenant={tenant} {}\n", event.render()));
        }
        out
    }

    /// A clone of one tenant's windowed scope, for reconciliation
    /// assertions (E21 byte- and sum-compares it against the
    /// cumulative serve counters).
    pub fn scope_snapshot(&self, tenant: &str) -> Option<WindowedScope> {
        let inner = self.inner.lock().expect("health hub lock");
        inner.tenants.get(tenant).map(|t| t.scope.clone())
    }

    /// The merged (all-tenant) per-window series: served throughput,
    /// p99 sojourn, and single-window availability burn, oldest
    /// retained window first. What the soak binary serializes.
    pub fn window_series(&self) -> Vec<WindowSample> {
        let inner = self.inner.lock().expect("health hub lock");
        let mut merged = WindowedScope::new(self.config.window_ticks, WINDOWS);
        for state in inner.tenants.values() {
            merged.merge(&state.scope);
        }
        drop(inner);
        let Some((from, to)) = merged.window_range() else {
            return Vec::new();
        };
        let delta = |name: &str, w: u64| merged.counter_ref(name).map_or(0, |c| c.delta(w));
        let budget = 1000 - AVAILABILITY_TARGET_MILLI;
        (from..=to)
            .map(|w| {
                let served = delta("answered", w) + delta("session", w) + delta("degraded", w);
                let bad = delta("refused", w) + delta("shed", w) + delta("deadline", w);
                let p99 = merged
                    .histogram_ref("sojourn")
                    .and_then(|h| h.percentile_in(w, 99.0))
                    .unwrap_or(0);
                WindowSample {
                    index: w,
                    served,
                    p99,
                    burn_milli: burn_milli(bad, served + bad, budget),
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

    /// One-tick windows, a 4-window long span, firing at `fire`.
    fn per_tick(fire_burn_milli: u64) -> HealthHub {
        HealthHub::new(HealthConfig {
            window_ticks: 1,
            long_windows: 4,
            fire_burn_milli,
        })
    }

    #[test]
    fn feed_and_reconcile() {
        let hub = HealthHub::new(HealthConfig {
            window_ticks: 4,
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
    }

    #[test]
    fn burn_fires_and_is_visible_to_early_warning() {
        let hub = per_tick(2000);
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
        assert!(!hub.is_firing("default", "latency"));
        // The short span (windows 1–2) holds only sheds: 1000‰ bad
        // over a 10‰ budget.
        assert_eq!(hub.max_short_burn_milli(), 100_000);
        let events = hub.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, "default");
        let matrix = hub.scope_snapshot("default").unwrap().render_text();
        assert!(matrix.starts_with("windows width=1 from=w0 to=w2\n"));
        assert!(hub.render_all().contains("events\n"));
    }

    #[test]
    fn short_span_is_two_windows_against_a_99_percent_target() {
        let hub = per_tick(2000);
        for _ in 0..100 {
            hub.feed("t", &served(), 1, 0);
        }
        hub.feed("t", &Disposition::Shed, 0, 1);
        for _ in 0..49 {
            hub.feed("t", &served(), 1, 1);
        }
        for _ in 0..50 {
            hub.feed("t", &served(), 1, 2);
        }
        hub.evaluate(2, None);
        // Windows 1–2 hold 1 bad of 100: 10‰ against a 10‰ budget.
        // Window 0 alone (span 3) or window 2 alone (span 1) would
        // read 500 or 0.
        assert_eq!(hub.max_short_burn_milli(), 1000);
    }

    #[test]
    fn latency_counts_sojourns_over_eight_ticks_against_a_95_percent_target() {
        let hub = per_tick(1000);
        for _ in 0..19 {
            hub.feed("t", &served(), 8, 0);
        }
        hub.feed("t", &served(), 9, 0);
        hub.evaluate(0, None);
        // One slow sample of 20: 50‰ against a 50‰ budget.
        assert_eq!(hub.max_short_burn_milli(), 1000);
        assert!(hub.is_firing("t", "latency"));
        assert!(!hub.is_firing("t", "availability"));
    }

    #[test]
    fn ring_keeps_sixty_four_windows() {
        let hub = per_tick(2000);
        hub.feed("t", &served(), 1, 0);
        hub.feed("t", &served(), 1, 64);
        let matrix = hub.scope_snapshot("t").unwrap().render_text();
        assert!(
            matrix.starts_with("windows width=1 from=w1 to=w64\n"),
            "{matrix}"
        );
        assert!(matrix.contains("total=2 evicted=1\n"), "{matrix}");
    }

    #[test]
    fn window_series_merges_tenants() {
        let hub = HealthHub::new(HealthConfig {
            window_ticks: 4,
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
        let hub = per_tick(2000);
        hub.feed("t", &served(), 9, 0); // slow
        hub.feed("t", &served(), 1, 0); // fast
        hub.feed("t", &Disposition::Shed, 9, 0); // no latency sample
        hub.evaluate(0, None);
        assert!(hub.is_firing("t", "latency"));
        let scope = hub.scope_snapshot("t").unwrap();
        assert_eq!(scope.histogram_ref("sojourn").unwrap().total_count(), 2);
    }
}
