//! The serving runtime: worker pool, affinity routing, bounded queues,
//! deterministic backpressure, and the interpretation cache.
//!
//! # Determinism model
//!
//! Concurrency usually trades away reproducibility; this server is
//! built so it does not:
//!
//! * **Admission is single-threaded and credit-based.** The submitter
//!   tracks per-worker queue depth itself and only *drains* return
//!   credits — workers never free slots asynchronously. Whether a
//!   request is admitted, shed, or deadline-rejected is therefore a
//!   pure function of the submit/advance/drain sequence, never of how
//!   fast worker threads happen to run.
//! * **Routing is content-addressed.** A request with a session id
//!   goes to `id % workers` (keeping conversation turns ordered on one
//!   thread); a standalone question goes to `fnv1a(normalized) %
//!   workers` (so duplicates of a question always meet the same
//!   worker-local cache).
//! * **Clocks are injected.** Deadline decisions read a [`Clock`] the
//!   driver advances explicitly; no wall-clock exists in this crate.
//! * **Caches return exactly what the slow path returns.** A hit
//!   replays the rendered answer computed on the first miss, so the
//!   visible output stream is byte-identical with caches on, off, hot,
//!   or cold — E12's serving-equivalence claim.
//! * **Failure is deterministic too.** Faults enter only through the
//!   [`RequestHook`], a pure function of `(request id, ladder rung,
//!   attempt)`; retries, circuit breakers, and the degradation ladder
//!   (see [`nlidb_core::fallback`]) are all counted in logical units.
//!   A worker that panics is contained by `catch_unwind` — and then
//!   *recovered from*, not merely survived: the crashed request and
//!   everything still queued on the corpse bounce back to the
//!   submitter, which marks the worker dead, re-admits the bounced
//!   work to live workers (retry-budgeted, deadline-checked against
//!   the injected clock, in request-id order so thread timing cannot
//!   reorder it), and never routes new work to the corpse again. The
//!   corpse keeps a drain-only path — already-queued envelopes bounce
//!   instead of rotting — so `drain` and `shutdown` never hang.
//!   E13's fault-determinism claim.
//! * **Dialogue state survives its worker.** Every committed dialogue
//!   turn is written ahead to the [`SessionJournal`] before its reply
//!   is released; when a dead worker's sessions are remapped, the new
//!   worker lazily rebuilds each one by exact replay of its journaled
//!   turns and verifies the rebuild digest-by-digest — E15's
//!   crash-recovery claim (lost work ≡ replayed work).
//! * **Tenancy is keying, not locking.** The pool can serve many
//!   databases at once (see [`crate::tenant`] and
//!   [`Server::start_tenants`]): every job carries its tenant's
//!   registration index, worker state (interpretation caches,
//!   sessions, circuit breakers) is per-(worker, tenant), journals
//!   and metrics are per-tenant, and routing XORs a per-tenant salt
//!   into the content address so tenants spread over the pool
//!   independently. Tenant 0's salt is zero, so a single-tenant
//!   server is byte-identical to the pre-tenancy runtime — which is
//!   how E17 can assert that a multi-tenant run is
//!   signature-identical to N isolated single-tenant runs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use nlidb_benchdata::RequestSpec;
use nlidb_core::fallback::degradation_ladder;
use nlidb_core::interpretation::InterpreterKind;
use nlidb_core::pipeline::NliPipeline;
use nlidb_core::{fnv1a, FNV1A_OFFSET};
use nlidb_dialogue::{ConversationSession, ManagerKind};
use nlidb_engine::ResultSet;
use nlidb_obs::{MetricsRegistry, SpanId, TraceBuilder};

use crate::clock::Clock;
use crate::fault::{HookCtx, InjectedFault};
use crate::journal::{JournalEntry, SessionJournal};
use crate::lru::LruCache;
use crate::metrics::{MetricsSnapshot, ScopedMetrics, ServeMetrics};
use crate::obs::ServeObs;
use crate::retry::{BreakerPolicy, CircuitBreaker, RetryPolicy};
use crate::tenant::{TenantPolicy, TenantRegistry};

/// Per-request work hook, consulted by the owning worker before every
/// pipeline attempt. Returning `Some` injects that fault into the
/// attempt; returning `None` lets it proceed. This crate never
/// touches a wall clock. Hooks must be pure functions of the
/// [`HookCtx`] for runs to replay deterministically.
pub type RequestHook = Box<dyn Fn(&HookCtx) -> Option<InjectedFault> + Send + Sync>;

/// Serving knobs. All bounds are per worker.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count (≥ 1).
    pub workers: usize,
    /// Max requests outstanding per worker before shedding.
    pub queue_capacity: usize,
    /// Interpretation-cache entries per (worker, tenant) (0 disables
    /// caching).
    pub interp_cache: usize,
    /// High/low-watermark overload control (`None` = off, the default
    /// — leaving admission byte-identical to the pre-overload
    /// runtime). When set, the submitter watches the credit ledger's
    /// *total* outstanding count: crossing `high_watermark` opens an
    /// overload episode in which learned-expensive standalone repeats
    /// and standalone traffic from tenants over their fair share are
    /// shed at admission; the episode closes — deterministically, at
    /// the latest at the next drain, which returns every credit — once
    /// pressure falls back to `low_watermark`. Dialogue turns are
    /// never overload-shed: session state must advance (see the
    /// DESIGN.md soak & overload model for why that is deliberate).
    pub overload: Option<OverloadPolicy>,
}

/// Knobs for the high/low-watermark overload controller (see
/// [`ServerConfig::overload`]). Pressure is measured on the credit
/// ledger — the submitter's own total of admitted-but-undrained
/// requests — so every overload decision is a pure function of the
/// submit/drain sequence, deterministic like all other admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Total outstanding requests at/above which an overload episode
    /// opens.
    pub high_watermark: usize,
    /// Total outstanding requests at/below which an open episode
    /// closes (must be ≤ `high_watermark`). A drain returns every
    /// credit, so pressure reaches 0 ≤ `low_watermark` there — the
    /// drain-to-empty invariant that guarantees recovery.
    pub low_watermark: usize,
    /// Learned plan cost above which an engaged standalone repeat is
    /// shed — the "expensive work goes first" half of degradation.
    pub cost_threshold: u64,
    /// Opt-in early warning: when the server runs with a
    /// [`crate::HealthHub`] (see [`crate::ServeObs::with_health`]) and
    /// the maximum short-span SLO burn rate (milli) reaches this
    /// value, an overload episode opens *before* the high watermark —
    /// the controller reacts to the budget-burn trend, not only to
    /// instantaneous queue pressure. The burn signal changes only at
    /// drains, so consulting it at submit time keeps admission a pure
    /// function of the submit/drain sequence. `None` (the default)
    /// preserves pre-existing behavior bit for bit.
    pub early_warning: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            interp_cache: 256,
            overload: None,
        }
    }
}

/// What happened to a submitted request, decided at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued on `worker`; a [`Completion`] will arrive at the next
    /// drain.
    Admitted {
        /// Request id (submission order, starting at 0).
        id: u64,
        /// Worker the request was routed to.
        worker: usize,
    },
    /// Rejected: the target worker's queue was full.
    Shed {
        /// Request id.
        id: u64,
    },
    /// Rejected: the deadline had passed or could not be met.
    DeadlineExceeded {
        /// Request id.
        id: u64,
    },
    /// Rejected: every worker in the pool has died, so there is no
    /// live worker to route to (see the crash-recovery notes in the
    /// module docs).
    Refused {
        /// Request id.
        id: u64,
    },
}

impl Admission {
    /// The request id this admission decision is about.
    pub fn id(&self) -> u64 {
        match *self {
            Admission::Admitted { id, .. }
            | Admission::Shed { id }
            | Admission::DeadlineExceeded { id }
            | Admission::Refused { id } => id,
        }
    }
}

/// The terminal outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// A standalone question, answered.
    Answered {
        /// Rendered SQL that produced the answer.
        sql: String,
        /// Rendered result rows (`col=value` cells joined by `, `).
        rows: Vec<String>,
        /// Whether the interpretation cache served this.
        from_cache: bool,
    },
    /// A dialogue turn, processed by the session's manager.
    SessionReply {
        /// The manager's user-facing response line.
        response: String,
        /// SQL executed this turn, if the turn produced one.
        sql: Option<String>,
        /// Whether the manager accepted the dialogue act.
        accepted: bool,
    },
    /// Answered, but by a weaker interpreter family because the
    /// preferred one was faulted (see [`nlidb_core::fallback`]).
    /// Never served from or written to the interpretation cache — the
    /// cache holds full-fidelity answers only.
    Degraded {
        /// Rendered SQL that produced the answer.
        sql: String,
        /// Rendered result rows (`col=value` cells joined by `, `).
        rows: Vec<String>,
        /// Label of the family that actually served it (e.g.
        /// `"entity"`, `"pattern"`).
        served_by: &'static str,
    },
    /// The pipeline produced no interpretation / failed to execute.
    Refused {
        /// The pipeline's error rendering.
        reason: String,
    },
    /// Never queued: queue full at admission.
    Shed,
    /// Never queued: deadline unmeetable at admission.
    DeadlineExceeded,
}

/// One finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Request id (submission order).
    pub id: u64,
    /// Worker that processed it (`None` for admission-time rejects).
    pub worker: Option<usize>,
    /// Session id, for dialogue turns.
    pub session: Option<u64>,
    /// Estimated logical cost of the executed plan, present for
    /// full-fidelity answers (cache hits replay the value learned at
    /// the miss, so hit and miss completions carry the same cost).
    /// Like cache provenance, this is accounting — it is excluded
    /// from [`Completion::signature`].
    pub plan_cost: Option<u64>,
    /// The outcome.
    pub disposition: Disposition,
}

impl Completion {
    /// A stable one-line digest of the *semantic* outcome — everything
    /// except cache provenance (`from_cache`) and worker placement.
    /// Two serving runs are equivalent iff their per-id signatures
    /// match; E12 and the equivalence tests compare exactly this.
    pub fn signature(&self) -> String {
        match &self.disposition {
            Disposition::Answered { sql, rows, .. } => {
                format!(
                    "#{} answered sql=[{}] rows=[{}]",
                    self.id,
                    sql,
                    rows.join(" ; ")
                )
            }
            Disposition::SessionReply {
                response,
                sql,
                accepted,
            } => format!(
                "#{} session={:?} accepted={} sql={:?} response=[{}]",
                self.id, self.session, accepted, sql, response
            ),
            Disposition::Degraded {
                sql,
                rows,
                served_by,
            } => format!(
                "#{} degraded[{}] sql=[{}] rows=[{}]",
                self.id,
                served_by,
                sql,
                rows.join(" ; ")
            ),
            Disposition::Refused { reason } => format!("#{} refused [{}]", self.id, reason),
            Disposition::Shed => format!("#{} shed", self.id),
            Disposition::DeadlineExceeded => format!("#{} deadline", self.id),
        }
    }
}

/// Work sent to a worker thread. The envelope carries the admission
/// facts the worker's tracer needs (the single-threaded submitter
/// recorded them, so they are exact): the clock tick at admission and
/// how many requests were queued ahead. The deadline and redelivery
/// fields exist for crash recovery — a job bounced off a dead worker
/// is re-admitted from this same envelope.
struct Job {
    id: u64,
    /// Registration index of the owning tenant (0 in a single-tenant
    /// server): selects the worker's per-tenant cache, sessions, and
    /// breakers, and the tenant's metrics/journal.
    tenant: usize,
    submit_tick: u64,
    queued_behind: usize,
    /// Original deadline, re-checked at every re-admission.
    deadline: Option<u64>,
    /// How many times this job has bounced off a dead worker.
    redeliveries: u32,
    /// The most recent dead worker it bounced off.
    bounced_from: Option<usize>,
    work: Work,
}

enum Work {
    Single { question: String },
    Turn { session: u64, utterance: String },
}

impl Work {
    /// The session id, for dialogue turns.
    fn session(&self) -> Option<u64> {
        match self {
            Work::Turn { session, .. } => Some(*session),
            Work::Single { .. } => None,
        }
    }
}

/// What a worker sends back on the completion channel: a finished
/// request, or a job bounced off a dead worker for the submitter to
/// re-admit during the current drain.
enum Delivery {
    Done(Completion),
    Bounce { worker: usize, job: Job },
}

/// Why admission turned a request away, in the order
/// [`Server::submit_to`] checks. Each maps to its own counter, trace
/// outcome and [`Disposition`] in [`Server::reject`].
enum Reject {
    /// The fingerprint names no registered tenant.
    UnknownTenant,
    /// Every worker has died.
    NoLiveWorker,
    /// The tenant's admission budget is spent.
    Quota,
    /// The deadline has passed or cannot be met.
    Deadline,
    /// Shed by the open overload episode; carries the request's
    /// learned plan cost, if any.
    Overload(Option<u64>),
    /// The target worker's queue is full.
    QueueFull,
}

/// Everything the runtime holds for one tenant, frozen at server
/// start: the trained pipeline, the admission budget, and the tenant's
/// own metrics and write-ahead journal. Indexed by registration order.
struct TenantRuntime {
    name: String,
    fingerprint: u64,
    pipeline: Arc<NliPipeline>,
    /// Lifetime admission budget (`None` = unlimited).
    admission_budget: Option<u64>,
    metrics: ServeMetrics,
    journal: SessionJournal,
}

/// State shared between the submitter and all workers.
struct Shared {
    /// Registered tenants, in registration order (never empty).
    tenants: Vec<TenantRuntime>,
    /// Whole-runtime counters; every increment also lands in the
    /// owning tenant's [`TenantRuntime::metrics`] (see
    /// [`ScopedMetrics`]).
    metrics: ServeMetrics,
    hook: Option<RequestHook>,
    clock: Arc<dyn Clock>,
    obs: Option<ServeObs>,
    /// Annotate traces with tenant names — true only for multi-tenant
    /// servers, so single-tenant traces stay byte-identical to the
    /// pre-tenancy runtime (E14/E16).
    label_tenants: bool,
}

/// Lowercase + whitespace-collapse: the cache/routing key form, so
/// "Total sales  by region" and "total sales by region" unify.
pub fn normalize_question(question: &str) -> String {
    let mut out = String::with_capacity(question.len());
    let mut pending_space = false;
    for c in question.trim().chars() {
        if c.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            for l in c.to_lowercase() {
                out.push(l);
            }
        }
    }
    out
}

/// The routing salt for a tenant's registration index: a multiple of
/// the 64-bit golden-ratio constant, XORed into the content address
/// before the worker modulus so each tenant's traffic spreads over
/// the pool independently. Index 0 maps to salt 0 — a single-tenant
/// server routes exactly like the pre-tenancy runtime.
fn tenant_salt(tenant: usize) -> u64 {
    (tenant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The serving runtime. Owns the worker pool; dropped or
/// [`Server::shutdown`] joins it.
pub struct Server {
    shared: Arc<Shared>,
    config: ServerConfig,
    senders: Vec<mpsc::Sender<Job>>,
    completion_rx: mpsc::Receiver<Delivery>,
    handles: Vec<JoinHandle<()>>,
    /// Per-worker outstanding counts — the credit ledger. Owned by the
    /// submitter thread; workers never touch it (see module docs).
    outstanding: Vec<usize>,
    /// Workers known dead, learned from bounced jobs at drain time.
    /// Owned by the submitter like the credit ledger, so routing
    /// around a corpse is as deterministic as admission itself.
    dead: Vec<bool>,
    in_flight: usize,
    /// Admission-time rejects, merged into the next drain.
    rejected: Vec<Completion>,
    /// Lifetime admissions per tenant, charged against each tenant's
    /// [`TenantPolicy::admission_budget`]. Submitter-owned, like the
    /// credit ledger, so quota refusals are deterministic.
    admitted_per_tenant: Vec<u64>,
    /// Learned plan cost per (tenant, normalized question), fed from
    /// completions at drain time; the memory the overload controller's
    /// cost axis consults. Maintained only when
    /// [`ServerConfig::overload`] is set. Submitter-owned, like the
    /// credit ledger.
    plan_costs: HashMap<(usize, String), u64>,
    /// Admitted standalone questions awaiting cost learning at the
    /// next drain: request id → (tenant, normalized question).
    pending_costs: HashMap<u64, (usize, String)>,
    /// Whether an overload episode is open (see
    /// [`ServerConfig::overload`]). Submitter-owned, like the credit
    /// ledger it watches.
    overloaded: bool,
    /// Admissions per tenant during the open overload episode — the
    /// numerators of the fair-share check. Zeroed when an episode
    /// opens.
    episode_admitted: Vec<u64>,
    /// Total admissions during the open overload episode.
    episode_total: u64,
    /// Submitted requests awaiting their health feed at the next
    /// drain: request id → (tenant, submit tick). Maintained only
    /// when the attached [`ServeObs`] carries a [`HealthHub`]; empty
    /// otherwise.
    health_meta: HashMap<u64, (usize, u64)>,
    next_id: u64,
}

impl Server {
    /// Start a pool over one trained, immutable pipeline: a registry
    /// of one tenant named `"default"` (see [`Server::start_tenants`]).
    pub fn start_observed(
        pipeline: Arc<NliPipeline>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        hook: Option<RequestHook>,
        obs: Option<ServeObs>,
    ) -> Server {
        let mut registry = TenantRegistry::new();
        registry.register("default", pipeline, TenantPolicy::default());
        Server::start_tenants(&registry, config, clock, hook, obs)
    }

    /// Start a pool serving every tenant in `registry`.
    ///
    /// `hook`, when given, is consulted before every pipeline attempt
    /// (see [`RequestHook`]). Hook identity is request-global: the hook
    /// sees the same request ids a single merged submission sequence
    /// produces, whatever tenant each id belongs to.
    ///
    /// `obs`, when given, turns every request (admitted or rejected)
    /// into one span tree in the sink and feeds the registry's
    /// per-stage cost histograms. Tracing never changes dispositions —
    /// the observed completion stream is signature-identical to the
    /// unobserved one. Multi-tenant traces carry a `tenant` attribute
    /// on every request root span; single-tenant servers omit it.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty.
    pub fn start_tenants(
        registry: &TenantRegistry,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        hook: Option<RequestHook>,
        obs: Option<ServeObs>,
    ) -> Server {
        assert!(!registry.is_empty(), "cannot serve zero tenants");
        if let Some(policy) = &config.overload {
            assert!(
                policy.low_watermark <= policy.high_watermark,
                "overload low watermark must not exceed the high watermark"
            );
        }
        let config = ServerConfig {
            workers: config.workers.max(1),
            ..config
        };
        let tenants: Vec<TenantRuntime> = registry
            .entries()
            .iter()
            .map(|e| TenantRuntime {
                name: e.name().to_string(),
                fingerprint: e.fingerprint(),
                pipeline: Arc::clone(e.pipeline()),
                admission_budget: e.policy().admission_budget,
                metrics: ServeMetrics::new(config.workers, config.interp_cache == 0),
                journal: SessionJournal::new(),
            })
            .collect();
        let tenant_count = tenants.len();
        let shared = Arc::new(Shared {
            label_tenants: tenant_count > 1,
            tenants,
            metrics: ServeMetrics::new(config.workers, config.interp_cache == 0),
            hook,
            clock,
            obs,
        });
        let (completion_tx, completion_rx) = mpsc::channel::<Delivery>();
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            let completions = completion_tx.clone();
            let cache_capacity = config.interp_cache;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nlidb-serve-{worker}"))
                    .spawn(move || worker_loop(worker, &shared, rx, completions, cache_capacity))
                    .expect("spawn serve worker"),
            );
        }
        // `completion_tx` clones live in the workers; dropping the
        // original here means `drain` can detect worker death instead
        // of hanging.
        drop(completion_tx);
        Server {
            shared,
            outstanding: vec![0; config.workers],
            dead: vec![false; config.workers],
            in_flight: 0,
            rejected: Vec::new(),
            admitted_per_tenant: vec![0; tenant_count],
            plan_costs: HashMap::new(),
            pending_costs: HashMap::new(),
            overloaded: false,
            episode_admitted: vec![0; tenant_count],
            episode_total: 0,
            health_meta: HashMap::new(),
            next_id: 0,
            config,
            senders,
            completion_rx,
            handles,
        }
    }

    /// [`Server::route_to`] for tenant 0, the only tenant of a server
    /// started with [`Server::start_observed`].
    pub fn route(&self, spec: &RequestSpec) -> usize {
        self.route_to(self.fingerprint(), spec)
            .expect("tenant 0 is registered")
    }

    /// The worker a request of `fingerprint`'s tenant would be routed
    /// to (`None` for an unregistered fingerprint): its
    /// content-addressed home worker, or — when that worker has died —
    /// the next live worker after it (where a remapped session is
    /// rebuilt from the journal). With every worker dead the home
    /// worker is returned; [`Server::submit_to`] refuses such requests
    /// at admission.
    pub fn route_to(&self, fingerprint: u64, spec: &RequestSpec) -> Option<usize> {
        let base = self.home_worker(self.tenant(fingerprint)?, spec.session, &spec.question);
        Some(self.live_worker_from(base).unwrap_or(base))
    }

    /// Registration index of the tenant behind `fingerprint`.
    /// [`TenantRegistry::register`] refuses duplicate fingerprints, so
    /// the scan finds at most one.
    fn tenant(&self, fingerprint: u64) -> Option<usize> {
        self.shared
            .tenants
            .iter()
            .position(|t| t.fingerprint == fingerprint)
    }

    /// The content-addressed home worker, dead or alive: a session id,
    /// or else the normalized question's FNV-1a hash, XORed with the
    /// tenant's salt, modulo the pool size.
    fn home_worker(&self, tenant: usize, session: Option<u64>, question: &str) -> usize {
        let address = match session {
            Some(id) => id,
            None => fnv1a(FNV1A_OFFSET, normalize_question(question).as_bytes()),
        };
        ((address ^ tenant_salt(tenant)) % self.config.workers as u64) as usize
    }

    /// First live worker at or after `base`, wrapping; `None` when the
    /// whole pool is dead. Depends only on which workers have bounced
    /// work so far — submitter-owned state — never on thread timing.
    fn live_worker_from(&self, base: usize) -> Option<usize> {
        let n = self.config.workers;
        (0..n).map(|k| (base + k) % n).find(|&w| !self.dead[w])
    }

    /// Whether an overload episode is currently open. Submitter state:
    /// meaningful between a submit and the next drain.
    pub fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// The attached health hub, if the server was started with
    /// [`ServeObs::with_health`](crate::ServeObs::with_health).
    fn health_hub(&self) -> Option<&Arc<crate::health::HealthHub>> {
        self.shared.obs.as_ref().and_then(|o| o.health.as_ref())
    }

    /// The attached health hub, if any — per-tenant window matrices,
    /// burn rates, and the fire/clear event log live there.
    pub fn health(&self) -> Option<Arc<crate::health::HealthHub>> {
        self.health_hub().cloned()
    }

    /// [`Server::submit_to`] for tenant 0, the only tenant of a server
    /// started with [`Server::start_observed`].
    pub fn submit(&mut self, spec: &RequestSpec) -> Admission {
        self.submit_to(self.fingerprint(), spec)
    }

    /// Offer one request on behalf of the tenant behind `fingerprint`.
    /// Decides admit/shed/deadline *now* (see module docs); admitted
    /// work completes at the next [`Server::drain`]. Counters land in
    /// the tenant's scope as well as the global one, the tenant's
    /// admission budget is enforced, and routing carries the tenant's
    /// salt. An unregistered fingerprint is refused, counted in the
    /// global scope only.
    pub fn submit_to(&mut self, fingerprint: u64, spec: &RequestSpec) -> Admission {
        let id = self.next_id;
        self.next_id += 1;
        let shared = Arc::clone(&self.shared);
        let Some(tenant) = self.tenant(fingerprint) else {
            shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            return self.reject(None, id, spec, 0, Reject::UnknownTenant);
        };
        let metrics = ScopedMetrics {
            global: &shared.metrics,
            tenant: &shared.tenants[tenant].metrics,
        };
        metrics.add(|m| &m.submitted, 1);
        // Health bookkeeping: remember who submitted when, so the
        // drain can feed disposition + sojourn into the tenant's
        // windowed scope. Only when a hub is attached — the map stays
        // empty (and unhashed) on every default path.
        if self.health_hub().is_some() {
            self.health_meta.insert(id, (tenant, shared.clock.now()));
        }
        // Overload watermark: between drains the credit ledger's total
        // is monotone non-decreasing, so the episode opens on the
        // first offer that finds pressure at/above the high watermark
        // — a pure function of the submit/drain sequence. With the
        // opt-in early-warning knob, a hot short-window SLO burn rate
        // (which moves only at drains) opens the episode below the
        // watermark.
        if let Some(policy) = self.config.overload {
            if !self.overloaded {
                let pressure = self.in_flight >= policy.high_watermark;
                let early = !pressure
                    && policy.early_warning.is_some_and(|threshold| {
                        self.health_hub()
                            .is_some_and(|hub| hub.max_short_burn_milli() >= threshold)
                    });
                if pressure || early {
                    self.overloaded = true;
                    self.episode_admitted.iter_mut().for_each(|e| *e = 0);
                    self.episode_total = 0;
                    shared
                        .metrics
                        .overload_entered
                        .fetch_add(1, Ordering::Relaxed);
                    if early {
                        shared
                            .metrics
                            .overload_entered_early
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if self.dead.iter().all(|&d| d) {
            return self.reject(Some(tenant), id, spec, 0, Reject::NoLiveWorker);
        }
        if let Some(budget) = shared.tenants[tenant].admission_budget {
            if self.admitted_per_tenant[tenant] >= budget {
                return self.reject(Some(tenant), id, spec, 0, Reject::Quota);
            }
        }
        let worker = self
            .route_to(fingerprint, spec)
            .expect("the tenant is registered");
        let depth = self.outstanding[worker];
        let now = shared.clock.now();

        // Deadline admission: every request is estimated at one tick,
        // so a request whose projected completion (`now + depth + 1`)
        // exceeds its deadline is rejected up front instead of timing
        // out in queue.
        if let Some(deadline) = spec.deadline {
            let projected = now + depth as u64 + 1;
            if now > deadline || projected > deadline {
                return self.reject(Some(tenant), id, spec, depth, Reject::Deadline);
            }
        }
        // Overload shedding: while an episode is open, standalone work
        // degrades along two axes — learned-expensive repeats go
        // first, and tenants over their fair share of the episode's
        // admissions are trimmed back. Dialogue turns always pass:
        // session state must advance (the deliberate non-backpressure
        // documented in DESIGN.md's soak & overload model). First
        // sightings have no learned cost and pass the cost axis.
        if self.overloaded && spec.session.is_none() {
            let policy = self.config.overload.expect("overloaded implies a policy");
            let learned = self
                .plan_costs
                .get(&(tenant, normalize_question(&spec.question)))
                .copied();
            let expensive = learned.is_some_and(|c| c > policy.cost_threshold);
            // Fair share with slack: tenant t is over when its episode
            // admissions exceed (total + N) / N — impossible for a
            // single tenant, where admissions equal the total.
            let tenant_count = self.episode_admitted.len() as u64;
            let over_share =
                self.episode_admitted[tenant] * tenant_count > self.episode_total + tenant_count;
            if expensive || over_share {
                return self.reject(Some(tenant), id, spec, depth, Reject::Overload(learned));
            }
        }
        if depth >= self.config.queue_capacity {
            return self.reject(Some(tenant), id, spec, depth, Reject::QueueFull);
        }

        let job = Job {
            id,
            tenant,
            submit_tick: now,
            queued_behind: depth,
            deadline: spec.deadline,
            redeliveries: 0,
            bounced_from: None,
            work: match spec.session {
                Some(session) => Work::Turn {
                    session,
                    utterance: spec.question.clone(),
                },
                None => Work::Single {
                    question: spec.question.clone(),
                },
            },
        };
        self.senders[worker]
            .send(job)
            .expect("worker alive while server running");
        if self.config.overload.is_some() && spec.session.is_none() {
            self.pending_costs
                .insert(id, (tenant, normalize_question(&spec.question)));
        }
        self.outstanding[worker] += 1;
        self.in_flight += 1;
        self.admitted_per_tenant[tenant] += 1;
        if self.overloaded {
            self.episode_admitted[tenant] += 1;
            self.episode_total += 1;
        }
        metrics.add(|m| &m.admitted, 1);
        metrics.observe_depth(self.outstanding[worker] as u64);
        Admission::Admitted { id, worker }
    }

    /// The one exit for an admission-time reject: count it in the
    /// global scope and, when it names a registered tenant, in that
    /// tenant's, trace it, queue its completion for the next drain, and
    /// return its [`Admission`].
    fn reject(
        &mut self,
        tenant: Option<usize>,
        id: u64,
        spec: &RequestSpec,
        depth: usize,
        why: Reject,
    ) -> Admission {
        let (counter, outcome, plan_cost, disposition): (fn(&ServeMetrics) -> &AtomicU64, _, _, _) =
            match why {
                Reject::UnknownTenant => (
                    |m| &m.refused,
                    "refused",
                    None,
                    Disposition::Refused {
                        reason: "unknown tenant fingerprint".to_string(),
                    },
                ),
                Reject::NoLiveWorker => (
                    |m| &m.refused,
                    "refused",
                    None,
                    Disposition::Refused {
                        reason: "no live workers".to_string(),
                    },
                ),
                Reject::Quota => (
                    |m| &m.quota_refused,
                    "quota_refused",
                    None,
                    Disposition::Refused {
                        reason: "tenant admission budget exhausted".to_string(),
                    },
                ),
                Reject::Deadline => (
                    |m| &m.shed_deadline,
                    "deadline_exceeded",
                    None,
                    Disposition::DeadlineExceeded,
                ),
                Reject::Overload(learned) => (
                    |m| &m.shed_overload,
                    "shed_overload",
                    learned,
                    Disposition::Shed,
                ),
                Reject::QueueFull => (|m| &m.shed_full, "shed", None, Disposition::Shed),
            };
        match tenant {
            Some(t) => ScopedMetrics {
                global: &self.shared.metrics,
                tenant: &self.shared.tenants[t].metrics,
            }
            .add(counter, 1),
            None => {
                counter(&self.shared.metrics).fetch_add(1, Ordering::Relaxed);
            }
        }
        self.trace_reject(tenant, id, spec, depth, outcome);
        let admission = match disposition {
            Disposition::Refused { .. } => Admission::Refused { id },
            Disposition::DeadlineExceeded => Admission::DeadlineExceeded { id },
            _ => Admission::Shed { id },
        };
        self.rejected.push(Completion {
            id,
            worker: None,
            session: spec.session,
            plan_cost,
            disposition,
        });
        admission
    }

    /// Record an admission-time reject as a two-span trace (the
    /// request never reaches a worker, so the submitter is the only
    /// place this evidence exists).
    fn trace_reject(
        &self,
        tenant: Option<usize>,
        id: u64,
        spec: &RequestSpec,
        depth: usize,
        outcome: &str,
    ) {
        let Some(obs) = &self.shared.obs else { return };
        let mut tb = TraceBuilder::new(id, Arc::clone(&self.shared.clock));
        let root = tb.open("request");
        tb.annotate(root, "id", id.to_string());
        tb.annotate(
            root,
            "kind",
            if spec.session.is_some() {
                "turn"
            } else {
                "single"
            },
        );
        if let Some(t) = tenant.filter(|_| self.shared.label_tenants) {
            tb.annotate(root, "tenant", self.shared.tenants[t].name.clone());
        }
        tb.annotate(root, "outcome", outcome);
        let adm = tb.open("admission");
        tb.annotate(adm, "depth", depth.to_string());
        tb.annotate(adm, "outcome", outcome);
        tb.close(adm);
        tb.close(root);
        obs.record(tb.finish());
    }

    /// Wait for every admitted request to finish; return all outcomes
    /// since the last drain (admission-time rejects included), in
    /// submission order. Returns queue credits to every worker.
    ///
    /// This is also where crash recovery happens: a job bounced off a
    /// dead worker marks that worker dead and is re-admitted to a live
    /// one. Re-admission runs in rounds — every expected delivery is
    /// received before any bounce goes back out, and bounces are
    /// replayed in request-id order — so the recovered outcome stream
    /// is a pure function of the submit sequence, never of which
    /// thread's messages arrived first.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.in_flight + self.rejected.len());
        let mut expected = self.in_flight;
        while expected > 0 {
            let mut bounces: Vec<(usize, Job)> = Vec::new();
            while expected > 0 {
                match self
                    .completion_rx
                    .recv()
                    .expect("workers alive while draining")
                {
                    Delivery::Done(c) => out.push(c),
                    Delivery::Bounce { worker, job } => bounces.push((worker, job)),
                }
                expected -= 1;
            }
            bounces.sort_by_key(|(_, job)| job.id);
            for (worker, job) in bounces {
                self.dead[worker] = true;
                match self.readmit(worker, job) {
                    Some(c) => out.push(c),
                    None => expected += 1,
                }
            }
        }
        self.in_flight = 0;
        self.outstanding.iter_mut().for_each(|d| *d = 0);
        // Overload recovery: the drain returned every credit, so
        // pressure is 0 — at or below any low watermark. Every episode
        // therefore closes no later than the next drain: the
        // controller can shed, never wedge.
        if self.overloaded && self.in_flight <= self.config.overload.map_or(0, |p| p.low_watermark)
        {
            self.overloaded = false;
            self.shared
                .metrics
                .overload_recovered
                .fetch_add(1, Ordering::Relaxed);
        }
        out.append(&mut self.rejected);
        out.sort_by_key(|c| c.id);
        // Learn plan costs for the overload controller. Requests that
        // finished without a cost (refusals, bounces) still clear their
        // pending entry so the map never grows unbounded.
        if self.config.overload.is_some() {
            for c in &out {
                if let Some(key) = self.pending_costs.remove(&c.id) {
                    if let Some(cost) = c.plan_cost {
                        self.plan_costs.insert(key, cost);
                    }
                }
            }
        }
        // Health feed: dispositions and sojourns land in the tenant
        // windowed scopes, then every SLO engine is evaluated at the
        // drain tick. `out` is id-sorted, so the feed order — and
        // therefore the whole health layer — is a pure function of
        // the completion stream. Unknown-tenant refusals never enter
        // `health_meta` and are deliberately skipped: they have no
        // tenant scope.
        if let Some(hub) = self.health_hub().cloned() {
            let tick = self.shared.clock.now();
            for c in &out {
                if let Some((tenant, submitted)) = self.health_meta.remove(&c.id) {
                    hub.feed(
                        &self.shared.tenants[tenant].name,
                        &c.disposition,
                        tick.saturating_sub(submitted),
                        tick,
                    );
                }
            }
            hub.evaluate(tick, self.shared.obs.as_ref());
        }
        out
    }

    /// Re-admit one job bounced off dead worker `from`. `None` means
    /// the job went back out to a live worker (its completion arrives
    /// with the rest of the drain); `Some` is a terminal completion —
    /// redelivery budget exhausted, deadline unmeetable, or no live
    /// worker left. Re-admission deliberately skips the queue-capacity
    /// check: the request already paid for its slot at original
    /// admission, and the drain is emptying every queue anyway.
    fn readmit(&mut self, from: usize, mut job: Job) -> Option<Completion> {
        job.redeliveries += 1;
        job.bounced_from = Some(from);
        // Redelivery rides the retry budget: a request does not get to
        // chase crashing workers forever.
        if job.redeliveries > RetryPolicy::default().max_retries {
            let reason = format!(
                "redelivery budget exhausted after {} bounces",
                job.redeliveries
            );
            return Some(self.readmit_failed(from, &job, Disposition::Refused { reason }));
        }
        if let Some(deadline) = job.deadline {
            if self.shared.clock.now() + 1 > deadline {
                return Some(self.readmit_failed(from, &job, Disposition::DeadlineExceeded));
            }
        }
        let (session, question) = match &job.work {
            Work::Turn { session, utterance } => (Some(*session), utterance),
            Work::Single { question } => (None, question),
        };
        let base = self.home_worker(job.tenant, session, question);
        let Some(target) = self.live_worker_from(base) else {
            let reason = "no live workers".to_string();
            return Some(self.readmit_failed(from, &job, Disposition::Refused { reason }));
        };
        ScopedMetrics {
            global: &self.shared.metrics,
            tenant: &self.shared.tenants[job.tenant].metrics,
        }
        .add(|m| &m.readmitted, 1);
        self.senders[target]
            .send(job)
            .expect("live worker while draining");
        None
    }

    /// The one exit for a terminal re-admission failure: count it as a
    /// refused re-admission and by its disposition (`shed_deadline` or
    /// `refused`), record it as a one-span trace (the bounced request
    /// never reaches another worker, so the submitter is the only place
    /// this evidence exists), and build its completion.
    fn readmit_failed(&self, from: usize, job: &Job, disposition: Disposition) -> Completion {
        let metrics = ScopedMetrics {
            global: &self.shared.metrics,
            tenant: &self.shared.tenants[job.tenant].metrics,
        };
        metrics.add(|m| &m.readmit_refused, 1);
        match disposition {
            Disposition::DeadlineExceeded => metrics.add(|m| &m.shed_deadline, 1),
            _ => metrics.add(|m| &m.refused, 1),
        }
        let session = job.work.session();
        if let Some(obs) = &self.shared.obs {
            let mut tb = TraceBuilder::new(job.id, Arc::clone(&self.shared.clock));
            let root = tb.open("request");
            tb.annotate(root, "id", job.id.to_string());
            tb.annotate(
                root,
                "kind",
                if session.is_some() { "turn" } else { "single" },
            );
            if self.shared.label_tenants {
                tb.annotate(root, "tenant", self.shared.tenants[job.tenant].name.clone());
            }
            tb.annotate(root, "outcome", disposition_label(&disposition));
            tb.annotate(root, "redeliveries", job.redeliveries.to_string());
            tb.annotate(root, "bounced_from", from.to_string());
            tb.close(root);
            obs.record(tb.finish());
        }
        Completion {
            id: job.id,
            worker: None,
            session,
            plan_cost: None,
            disposition,
        }
    }

    /// The write-ahead session journal (one entry per committed
    /// dialogue turn; see [`crate::journal`]) of tenant 0, the only
    /// tenant of a server started with [`Server::start_observed`].
    pub fn journal(&self) -> &SessionJournal {
        &self.shared.tenants[0].journal
    }

    /// One tenant's write-ahead session journal (`None` for an
    /// unregistered fingerprint). Journals are fully namespaced:
    /// session ids only collide across tenants by name, never by
    /// state.
    pub fn tenant_journal(&self, fingerprint: u64) -> Option<&SessionJournal> {
        Some(&self.shared.tenants[self.tenant(fingerprint)?].journal)
    }

    /// Whole-runtime counter snapshot (every tenant's traffic).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Counter snapshot for one tenant (`None` for an unregistered
    /// fingerprint). In lockstep with the global snapshot: summing a
    /// counter over all tenants yields the global value (minus
    /// unknown-tenant refusals, which have no tenant scope).
    pub fn tenant_metrics(&self, fingerprint: u64) -> Option<MetricsSnapshot> {
        Some(
            self.shared.tenants[self.tenant(fingerprint)?]
                .metrics
                .snapshot(),
        )
    }

    /// Export the global counters (`serve.*`, via
    /// [`MetricsSnapshot::export_into`]) plus every tenant's breakdown
    /// (`serve.tenant.<name>.*`, via
    /// [`MetricsSnapshot::export_labelled_into`]) into `registry`.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        self.metrics().export_into(registry);
        for t in &self.shared.tenants {
            t.metrics.snapshot().export_labelled_into(registry, &t.name);
        }
    }

    /// The schema fingerprint of tenant 0, the tenant
    /// [`Server::submit`] and [`Server::route`] address.
    pub fn fingerprint(&self) -> u64 {
        self.shared.tenants[0].fingerprint
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Stop accepting work, join the pool, and return final metrics.
    /// Any still-queued work is completed first (workers drain their
    /// channels before exiting). Idempotent with the destructor: after
    /// `shutdown`, `Drop` has nothing left to join.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.join_pool();
        self.shared.metrics.snapshot()
    }

    /// Close every job channel and join the worker threads. Worker
    /// panics are contained inside the workers themselves
    /// (`catch_unwind`), so a join failing is a genuine anomaly —
    /// counted as a worker death, never propagated as an opaque panic.
    fn join_pool(&mut self) {
        self.senders.clear(); // closes every job channel
        for h in self.handles.drain(..) {
            if h.join().is_err() {
                self.shared
                    .metrics
                    .worker_deaths
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Dropping the server joins the pool, exactly as the struct docs
/// promise: still-queued work is completed (workers drain their
/// channels before exiting) and no worker thread is ever leaked.
impl Drop for Server {
    fn drop(&mut self) {
        self.join_pool();
    }
}

/// Render a result set to stable row strings (`col=value` cells).
fn render_rows(result: &ResultSet) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .zip(&result.columns)
                .map(|(v, c)| format!("{c}={v}"))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect()
}

/// What [`ride_out_faults`] did for one rung: whether the attempt may
/// proceed, and the retry accounting the caller's tracer attributes to
/// its span.
struct FaultRide {
    /// `true`: proceed with the pipeline; `false`: abandon the rung
    /// (fatal fault, or transient budget exhausted).
    proceed: bool,
    /// Transient retries absorbed.
    retries: u32,
    /// Logical backoff ticks accounted to those retries.
    backoff: u64,
}

impl FaultRide {
    /// Annotate `span` with the retries this ride absorbed (no-op when
    /// it absorbed none — quiet rungs stay quiet in the trace).
    fn annotate(&self, tb: &mut TraceBuilder, span: SpanId) {
        if self.retries > 0 {
            tb.annotate(span, "retries", self.retries.to_string());
            tb.annotate(span, "backoff", self.backoff.to_string());
        }
    }
}

/// Consult the hook for the attempt described by `ctx`, absorbing
/// transient faults within the retry budget. An injected
/// [`InjectedFault::WorkerPanic`] panics right here — before any
/// pipeline or session state is touched — and is contained by the
/// `catch_unwind` in [`worker_loop`].
///
/// `attempt_base` is the job's redelivery count: a request re-admitted
/// after bouncing off a dead worker presents attempt numbers ≥ 1 to
/// the hook, so a panic pinned at attempt 0 fires exactly once and the
/// recovered delivery proceeds. The retry budget
/// ([`RetryPolicy::default`]) stays absolute (`attempt < max_retries`)
/// — it is per request, not per delivery.
fn ride_out_faults(
    hook: Option<&RequestHook>,
    metrics: ScopedMetrics<'_>,
    id: u64,
    rung: usize,
    attempt_base: u32,
) -> FaultRide {
    let mut ride = FaultRide {
        proceed: true,
        retries: 0,
        backoff: 0,
    };
    let Some(hook) = hook else { return ride };
    let retry = RetryPolicy::default();
    let mut attempt = attempt_base;
    loop {
        match hook(&HookCtx { id, rung, attempt }) {
            None => return ride,
            Some(InjectedFault::Transient) if attempt < retry.max_retries => {
                metrics.add(|m| &m.retries, 1);
                metrics.add(|m| &m.retry_backoff_ticks, retry.backoff(attempt));
                ride.retries += 1;
                ride.backoff += retry.backoff(attempt);
                attempt += 1;
            }
            Some(InjectedFault::WorkerPanic) => {
                panic!("injected worker panic (request #{id})")
            }
            Some(_) => {
                ride.proceed = false;
                return ride;
            }
        }
    }
}

/// A cached full-fidelity answer: rendered SQL, rendered rows, and
/// the plan's estimated logical cost (so a cache hit replays the same
/// `plan_cost` the miss reported).
type CachedAnswer = (String, Vec<String>, u64);

/// Walk the degradation ladder from the hybrid family down for one
/// standalone question. Returns the disposition plus the rendered
/// answer to cache — present only for a full-fidelity rung-0 answer;
/// degraded answers are never cached. When a tracer is passed, every
/// rung gets a span recording the breaker decision, absorbed retries,
/// injected faults, and the rung's outcome — the per-query evidence
/// E14 reconciles against the aggregate counters.
#[allow(clippy::too_many_arguments)]
fn interpret_single(
    id: u64,
    question: &str,
    pipeline: &NliPipeline,
    hook: Option<&RequestHook>,
    metrics: ScopedMetrics<'_>,
    attempt_base: u32,
    breakers: &mut [CircuitBreaker],
    mut tracer: Option<&mut TraceBuilder>,
) -> (Disposition, Option<CachedAnswer>) {
    let mut last_refusal: Option<String> = None;
    for (rung, &kind) in degradation_ladder(InterpreterKind::Hybrid)
        .iter()
        .enumerate()
    {
        let span = tracer.as_deref_mut().map(|tb| {
            let s = tb.open("rung");
            tb.annotate(s, "rung", rung.to_string());
            tb.annotate(s, "family", kind.label());
            s
        });
        let seal = |tracer: &mut Option<&mut TraceBuilder>, key: &str, value: &str| {
            if let (Some(tb), Some(s)) = (tracer.as_deref_mut(), span) {
                tb.annotate(s, key, value);
                tb.annotate(s, "outcome", key_outcome(key, value));
                tb.close(s);
            }
        };
        if !breakers[rung].allow() {
            metrics.add(|m| &m.breaker_skips, 1);
            seal(&mut tracer, "breaker", "open");
            continue;
        }
        let ride = ride_out_faults(hook, metrics, id, rung, attempt_base);
        if let (Some(tb), Some(s)) = (tracer.as_deref_mut(), span) {
            ride.annotate(tb, s);
        }
        if !ride.proceed {
            let tripped = breakers[rung].on_failure();
            if tripped {
                metrics.add(|m| &m.breaker_trips, 1);
            }
            if let (Some(tb), Some(s)) = (tracer.as_deref_mut(), span) {
                if tripped {
                    tb.annotate(s, "breaker", "tripped");
                }
            }
            seal(&mut tracer, "fault", "fatal");
            continue;
        }
        match pipeline.ask_classic(question, kind, None, tracer.as_deref_mut()) {
            Ok(answer) => {
                breakers[rung].on_success();
                let rows = render_rows(&answer.result);
                if rung == 0 {
                    metrics.add(|m| &m.answered, 1);
                    seal(&mut tracer, "served", "full");
                    let cost = answer.explain.est_cost;
                    return (
                        Disposition::Answered {
                            sql: answer.sql.clone(),
                            rows: rows.clone(),
                            from_cache: false,
                        },
                        Some((answer.sql, rows, cost)),
                    );
                }
                metrics.add(|m| &m.degraded, 1);
                seal(&mut tracer, "served", "degraded");
                return (
                    Disposition::Degraded {
                        sql: answer.sql,
                        rows,
                        served_by: kind.label(),
                    },
                    None,
                );
            }
            // A semantic refusal means the family is *healthy*: at
            // rung 0 the refusal stands (degrading past a healthy
            // refusal would trade precision for coverage); below it,
            // the next family down gets its chance.
            Err(e) => {
                breakers[rung].on_success();
                if rung == 0 {
                    metrics.add(|m| &m.refused, 1);
                    seal(&mut tracer, "refusal", "healthy");
                    return (
                        Disposition::Refused {
                            reason: e.to_string(),
                        },
                        None,
                    );
                }
                last_refusal = Some(e.to_string());
                seal(&mut tracer, "refusal", "pass");
            }
        }
    }
    metrics.add(|m| &m.refused, 1);
    let reason = match last_refusal {
        Some(r) => format!("degraded ladder exhausted: {r}"),
        None => "no interpreter family available (all rungs faulted or circuit-broken)".to_string(),
    };
    (Disposition::Refused { reason }, None)
}

/// Map a rung's terminal annotation to its `outcome` value, so every
/// rung span carries a uniform `outcome` key whatever ended it.
fn key_outcome(key: &str, value: &str) -> &'static str {
    match (key, value) {
        ("breaker", "open") => "breaker_skipped",
        ("fault", _) => "faulted",
        ("served", "full") => "answered",
        ("served", "degraded") => "degraded",
        ("refusal", "healthy") => "refused",
        ("refusal", _) => "passed",
        _ => "unknown",
    }
}

/// A short label for the disposition, for the root span's `outcome`.
fn disposition_label(d: &Disposition) -> &'static str {
    match d {
        Disposition::Answered { .. } => "answered",
        Disposition::SessionReply { .. } => "session_reply",
        Disposition::Degraded { .. } => "degraded",
        Disposition::Refused { .. } => "refused",
        Disposition::Shed => "shed",
        Disposition::DeadlineExceeded => "deadline_exceeded",
    }
}

fn worker_loop(
    worker: usize,
    shared: &Shared,
    jobs: mpsc::Receiver<Job>,
    completions: mpsc::Sender<Delivery>,
    cache_capacity: usize,
) {
    let hook = shared.hook.as_ref();
    // All worker-retained state is per-(worker, tenant): caches and
    // breakers indexed by the tenant's registration index, sessions
    // keyed by (tenant, session id) — one tenant's questions can never
    // observe another's cached answers, sessions, or breaker state.
    let mut caches: HashMap<usize, LruCache<String, CachedAnswer>> = HashMap::new();
    let mut sessions: HashMap<(usize, u64), ConversationSession<'_>> = HashMap::new();
    let mut breakers: Vec<Vec<CircuitBreaker>> = shared
        .tenants
        .iter()
        .map(|_| {
            degradation_ladder(InterpreterKind::Hybrid)
                .iter()
                .map(|_| CircuitBreaker::new(BreakerPolicy::default()))
                .collect()
        })
        .collect();
    // Set on a contained panic. A dead worker frees everything it
    // retained (sessions, caches — mid-mutation state is not trusted
    // and sessions are rebuilt elsewhere from the journal) and keeps
    // only a drain-only path: every envelope still in its queue
    // bounces back to the submitter for re-admission, so admission
    // credits, `drain`, and `shutdown` all stay race-free.
    let mut dead = false;

    while let Ok(job) = jobs.recv() {
        let tenant = job.tenant;
        let rt = &shared.tenants[tenant];
        let metrics = ScopedMetrics {
            global: &shared.metrics,
            tenant: &rt.metrics,
        };
        if dead {
            metrics.add(|m| &m.crashed_requests, 1);
            // No trace and no per-worker count here: the job is not
            // processed, it bounces; the worker that finally serves it
            // owns its one trace.
            if completions.send(Delivery::Bounce { worker, job }).is_err() {
                break;
            }
            continue;
        }
        let pipeline = &rt.pipeline;
        let db = pipeline.database();
        let ctx = pipeline.context();
        let journal = &rt.journal;
        let (id, submit_tick, queued_behind) = (job.id, job.submit_tick, job.queued_behind);
        let (redeliveries, bounced_from) = (job.redeliveries, job.bounced_from);
        let session = job.work.session();
        let kind_label = if session.is_some() { "turn" } else { "single" };
        // One trace per request: root `request` span, an `admission`
        // span stamped at the submitter-recorded tick, and a `queued`
        // span from that tick to dequeue (now).
        let mut tracer: Option<(TraceBuilder, SpanId)> = shared.obs.as_ref().map(|_| {
            let mut tb = TraceBuilder::new(id, Arc::clone(&shared.clock));
            let root = tb.open_at("request", submit_tick);
            tb.annotate(root, "id", id.to_string());
            tb.annotate(root, "kind", kind_label);
            if shared.label_tenants {
                tb.annotate(root, "tenant", rt.name.clone());
            }
            tb.annotate(root, "worker", worker.to_string());
            if redeliveries > 0 {
                tb.annotate(root, "redeliveries", redeliveries.to_string());
            }
            if let Some(b) = bounced_from {
                tb.annotate(root, "bounced_from", b.to_string());
            }
            let adm = tb.open_at("admission", submit_tick);
            tb.annotate(adm, "depth", queued_behind.to_string());
            tb.annotate(adm, "outcome", "admitted");
            tb.close_at(adm, submit_tick);
            let q = tb.open_at("queued", submit_tick);
            tb.annotate(q, "depth", queued_behind.to_string());
            tb.close(q);
            (tb, root)
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| match &job.work {
            Work::Single { question } => {
                let key = normalize_question(question);
                let cache_enabled = cache_capacity > 0;
                let probe = tracer.as_mut().map(|(tb, _)| (tb.open("cache"), tb));
                let cached = if cache_enabled {
                    caches
                        .entry(tenant)
                        .or_insert_with(|| LruCache::new(cache_capacity))
                        .get(&key)
                        .cloned()
                } else {
                    None
                };
                if let Some((s, tb)) = probe {
                    tb.annotate(
                        s,
                        "outcome",
                        match (cache_enabled, cached.is_some()) {
                            (false, _) => "disabled",
                            (true, true) => "hit",
                            (true, false) => "miss",
                        },
                    );
                    tb.close(s);
                }
                let (disposition, plan_cost) = match cached {
                    Some((sql, rows, cost)) => {
                        metrics.add(|m| &m.interp_hits, 1);
                        metrics.add(|m| &m.answered, 1);
                        (
                            Disposition::Answered {
                                sql,
                                rows,
                                from_cache: true,
                            },
                            Some(cost),
                        )
                    }
                    None => {
                        metrics.add(|m| &m.interp_misses, 1);
                        let (disposition, cacheable) = interpret_single(
                            id,
                            question,
                            pipeline,
                            hook,
                            metrics,
                            redeliveries,
                            &mut breakers[tenant],
                            tracer.as_mut().map(|(tb, _)| tb),
                        );
                        let plan_cost = cacheable.as_ref().map(|(_, _, c)| *c);
                        if cache_enabled {
                            if let Some(payload) = cacheable {
                                caches
                                    .get_mut(&tenant)
                                    .expect("cache ensured at probe")
                                    .put(key, payload);
                            }
                        }
                        (disposition, plan_cost)
                    }
                };
                Completion {
                    id,
                    worker: Some(worker),
                    session: None,
                    plan_cost,
                    disposition,
                }
            }
            Work::Turn { session, utterance } => {
                let session = *session;
                let span = tracer.as_mut().map(|(tb, _)| {
                    let s = tb.open("turn");
                    tb.annotate(s, "session", session.to_string());
                    s
                });
                // Faults are consulted *before* the manager runs, so a
                // retried turn has mutated nothing: each dialogue turn
                // executes at most once.
                let ride = ride_out_faults(hook, metrics, id, 0, redeliveries);
                if let (Some((tb, _)), Some(s)) = (tracer.as_mut(), span) {
                    ride.annotate(tb, s);
                }
                let disposition = if ride.proceed {
                    if let Entry::Vacant(slot) = sessions.entry((tenant, session)) {
                        let journaled = journal.turns(session);
                        if journaled.is_empty() {
                            slot.insert(ConversationSession::new(db, ctx, ManagerKind::Agent));
                        } else {
                            // Crash recovery: this session committed
                            // turns on a worker that has since died.
                            // Rebuild its state by exact replay of the
                            // journal, and prove the rebuild by
                            // comparing per-turn digests.
                            let rspan = tracer.as_mut().map(|(tb, _)| {
                                let s = tb.open("replay");
                                tb.annotate(s, "session", session.to_string());
                                tb.annotate(s, "turns_replayed", journaled.len().to_string());
                                tb.annotate(s, "remap_target", worker.to_string());
                                s
                            });
                            let (rebuilt, results) = ConversationSession::replay(
                                db,
                                ctx,
                                ManagerKind::Agent,
                                journaled.iter().map(|e| e.utterance.as_str()),
                            );
                            let diverged = results
                                .iter()
                                .zip(&journaled)
                                .filter(|(r, e)| r.digest() != e.outcome_digest)
                                .count() as u64;
                            metrics.add(|m| &m.sessions_recovered, 1);
                            metrics.add(|m| &m.turns_replayed, journaled.len() as u64);
                            metrics.add(|m| &m.replay_divergence, diverged);
                            if let (Some((tb, _)), Some(s)) = (tracer.as_mut(), rspan) {
                                tb.annotate(s, "divergence", diverged.to_string());
                                tb.close(s);
                            }
                            slot.insert(rebuilt);
                        }
                    }
                    let s = sessions
                        .get_mut(&(tenant, session))
                        .expect("session just ensured");
                    let r = s.turn(utterance);
                    metrics.add(|m| &m.session_turns, 1);
                    // Write-ahead commit: the turn enters the journal
                    // before its reply leaves the worker, so a crash
                    // any time after this line loses nothing.
                    journal.append(
                        session,
                        JournalEntry {
                            request_id: id,
                            tick: submit_tick,
                            utterance: utterance.clone(),
                            outcome_digest: r.digest(),
                        },
                    );
                    metrics.add(|m| &m.journal_turns, 1);
                    if let (Some((tb, _)), Some(sp)) = (tracer.as_mut(), span) {
                        tb.annotate(sp, "accepted", r.accepted.to_string());
                        tb.annotate(sp, "sql", if r.sql.is_some() { "yes" } else { "no" });
                    }
                    Disposition::SessionReply {
                        response: r.response,
                        sql: r.sql.map(|q| q.to_string()),
                        accepted: r.accepted,
                    }
                } else {
                    // Dialogue has no family ladder to fall down; a
                    // fatally-faulted turn is refused outright.
                    metrics.add(|m| &m.refused, 1);
                    if let (Some((tb, _)), Some(sp)) = (tracer.as_mut(), span) {
                        tb.annotate(sp, "fault", "fatal");
                    }
                    Disposition::Refused {
                        reason: "session manager unavailable (injected fault)".to_string(),
                    }
                };
                if let (Some((tb, _)), Some(sp)) = (tracer.as_mut(), span) {
                    tb.close(sp);
                }
                Completion {
                    id,
                    worker: Some(worker),
                    session: Some(session),
                    plan_cost: None,
                    disposition,
                }
            }
        }));
        let completion = match outcome {
            Ok(completion) => completion,
            Err(_) => {
                dead = true;
                // Free everything the corpse retained — every tenant's
                // sessions and caches: sessions are rebuilt elsewhere
                // from the journals, and caches that may have been
                // mid-mutation are not trusted again.
                sessions.clear();
                caches.clear();
                metrics.add(|m| &m.worker_deaths, 1);
                metrics.add(|m| &m.crashed_requests, 1);
                // The half-built trace is dropped, not recorded: the
                // request is not finished — it bounces back to the
                // submitter for re-admission, and whichever worker
                // finally serves it records its one trace.
                let _ = tracer.take();
                if completions.send(Delivery::Bounce { worker, job }).is_err() {
                    break;
                }
                continue;
            }
        };
        if let (Some(obs), Some((mut tb, root))) = (shared.obs.as_ref(), tracer.take()) {
            tb.annotate(root, "outcome", disposition_label(&completion.disposition));
            obs.record(tb.finish());
        }
        metrics.per_worker(worker);
        if completions.send(Delivery::Done(completion)).is_err() {
            // Submitter went away mid-flight; nothing left to report to.
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use nlidb_benchdata::retail_database;
    use nlidb_engine::Database;

    fn pipeline() -> Arc<NliPipeline> {
        let db: Database = retail_database(7);
        Arc::new(NliPipeline::standard(&db))
    }

    fn server(workers: usize, pipeline: &Arc<NliPipeline>) -> (Server, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let cfg = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        (
            Server::start_observed(
                Arc::clone(pipeline),
                cfg,
                clock.clone() as Arc<dyn Clock>,
                None,
                None,
            ),
            clock,
        )
    }

    #[test]
    fn answers_and_caches_repeats() {
        let p = pipeline();
        let (mut srv, _) = server(2, &p);
        let q = RequestSpec::single("how many customers are there");
        for _ in 0..3 {
            srv.submit(&q);
        }
        let done = srv.drain();
        assert_eq!(done.len(), 3);
        let answered: Vec<bool> = done
            .iter()
            .map(|c| match &c.disposition {
                Disposition::Answered { from_cache, .. } => *from_cache,
                other => panic!("expected answer, got {other:?}"),
            })
            .collect();
        assert_eq!(
            answered,
            vec![false, true, true],
            "first computes, rest hit"
        );
        let sigs: std::collections::HashSet<String> = done
            .iter()
            .map(|c| c.signature().split_once(' ').unwrap().1.to_string())
            .collect();
        assert_eq!(sigs.len(), 1, "hits replay the identical answer");
        let m = srv.shutdown();
        assert_eq!((m.interp_hits, m.interp_misses), (2, 1));
        assert_eq!(m.answered, 3);
    }

    #[test]
    fn refusals_are_reported_not_panicked() {
        let p = pipeline();
        let (mut srv, _) = server(1, &p);
        srv.submit(&RequestSpec::single(
            "colorless green ideas sleep furiously",
        ));
        let done = srv.drain();
        assert!(matches!(done[0].disposition, Disposition::Refused { .. }));
        assert_eq!(srv.metrics().refused, 1);
        srv.shutdown();
    }

    #[test]
    fn queue_full_sheds_deterministically() {
        let p = pipeline();
        let clock = Arc::new(ManualClock::new());
        let cfg = ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        };
        let mut srv =
            Server::start_observed(Arc::clone(&p), cfg, clock as Arc<dyn Clock>, None, None);
        let q = RequestSpec::single("how many customers are there");
        let a: Vec<Admission> = (0..4).map(|_| srv.submit(&q)).collect();
        assert!(matches!(a[0], Admission::Admitted { .. }));
        assert!(matches!(a[1], Admission::Admitted { .. }));
        assert!(matches!(a[2], Admission::Shed { .. }));
        assert!(matches!(a[3], Admission::Shed { .. }));
        let done = srv.drain();
        assert_eq!(done.len(), 4, "rejects surface as completions too");
        assert!(matches!(done[2].disposition, Disposition::Shed));
        // Credits returned: same submissions admit again.
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        srv.drain();
        let m = srv.shutdown();
        assert_eq!(m.shed_full, 2);
        assert_eq!(m.max_queue_depth, 2);
    }

    #[test]
    fn deadline_rejection_is_admission_time() {
        let p = pipeline();
        let clock = Arc::new(ManualClock::new());
        let cfg = ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        };
        let mut srv = Server::start_observed(
            Arc::clone(&p),
            cfg,
            clock.clone() as Arc<dyn Clock>,
            None,
            None,
        );
        let mut q = RequestSpec::single("how many customers are there");
        // Deadline 2 ticks out, one tick per request: the first two
        // fit (projected 1 and 2), the third does not (projected 3).
        q.deadline = Some(2);
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        assert!(matches!(srv.submit(&q), Admission::DeadlineExceeded { .. }));
        srv.drain();
        // A deadline already in the past rejects outright.
        clock.set(100);
        q.deadline = Some(99);
        assert!(matches!(srv.submit(&q), Admission::DeadlineExceeded { .. }));
        let done = srv.drain();
        assert!(matches!(done[0].disposition, Disposition::DeadlineExceeded));
        let m = srv.shutdown();
        assert_eq!(m.shed_deadline, 2);
    }

    #[test]
    fn session_turns_keep_state_on_one_worker() {
        let p = pipeline();
        let (mut srv, _) = server(3, &p);
        let turns = ["show orders", "only status shipped", "how many are there"];
        for t in turns {
            srv.submit(&RequestSpec {
                question: t.to_string(),
                session: Some(41),
                deadline: None,
            });
        }
        let done = srv.drain();
        assert_eq!(done.len(), 3);
        let workers: std::collections::HashSet<_> = done.iter().map(|c| c.worker).collect();
        assert_eq!(workers.len(), 1, "all turns of one session on one worker");
        assert!(done
            .iter()
            .all(|c| matches!(c.disposition, Disposition::SessionReply { .. })));
        let m = srv.shutdown();
        assert_eq!(m.session_turns, 3);
    }

    #[test]
    fn cache_hit_replay_teaches_the_overload_controller() {
        let p = pipeline();
        let clock = Arc::new(ManualClock::new());
        let cfg = ServerConfig {
            workers: 1,
            overload: Some(OverloadPolicy {
                high_watermark: 1,
                low_watermark: 0,
                cost_threshold: 0,
                early_warning: None,
            }),
            ..ServerConfig::default()
        };
        let mut srv =
            Server::start_observed(Arc::clone(&p), cfg, clock as Arc<dyn Clock>, None, None);
        let q = RequestSpec::single("how many customers are there");
        srv.submit(&q);
        let first = srv.drain();
        let learned = first[0].plan_cost.expect("miss computes the cost");
        assert_eq!(srv.plan_costs.len(), 1, "the miss taught the controller");
        // Forget the miss's lesson while the worker cache stays warm —
        // the next drain's only possible teacher is the cache hit.
        srv.plan_costs.clear();
        srv.submit(&q);
        let second = srv.drain();
        match &second[0].disposition {
            Disposition::Answered { from_cache, .. } => assert!(from_cache),
            other => panic!("expected cached answer, got {other:?}"),
        }
        assert_eq!(
            second[0].plan_cost,
            Some(learned),
            "the hit replays the exact cost the miss computed"
        );
        assert_eq!(
            srv.plan_costs.values().copied().collect::<Vec<u64>>(),
            vec![learned],
            "re-learned from the cache-hit completion alone"
        );
        assert!(
            !srv.is_overloaded(),
            "one request at a time never crosses high=1"
        );
        // And the replay-learned cost is live policy input: the offer
        // that finds pressure 1 opens the next episode and is shed as
        // learned-expensive, exactly as an execution-learned cost would.
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        assert!(matches!(srv.submit(&q), Admission::Shed { .. }));
        assert!(srv.is_overloaded());
        let done = srv.drain();
        assert!(matches!(done[1].disposition, Disposition::Shed));
        assert_eq!(done[1].plan_cost, Some(learned), "the shed quotes the cost");
        let m = srv.shutdown();
        assert_eq!(m.shed_overload, 1);
        assert_eq!(m.overload_entered, 1);
    }

    #[test]
    fn overload_controller_sheds_expensive_repeats_and_recovers_at_drain() {
        let p = pipeline();
        let clock = Arc::new(ManualClock::new());
        let cfg = ServerConfig {
            workers: 1,
            queue_capacity: 64,
            overload: Some(OverloadPolicy {
                high_watermark: 2,
                low_watermark: 0,
                cost_threshold: 0,
                early_warning: None,
            }),
            ..ServerConfig::default()
        };
        let mut srv =
            Server::start_observed(Arc::clone(&p), cfg, clock as Arc<dyn Clock>, None, None);
        let q = RequestSpec::single("how many customers are there");
        // Teach the controller the question's cost on a quiet pass.
        srv.submit(&q);
        srv.drain();
        assert!(!srv.is_overloaded(), "one request never crosses high=2");
        // Pressure 0 and 1 admit; the offer that finds pressure 2
        // opens the episode and is itself shed (learned-expensive).
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        assert!(!srv.is_overloaded());
        assert!(matches!(srv.submit(&q), Admission::Shed { .. }));
        assert!(srv.is_overloaded());
        // Unlearned standalones and dialogue turns still pass.
        let fresh = RequestSpec::single("show all customers");
        assert!(matches!(srv.submit(&fresh), Admission::Admitted { .. }));
        let turn = RequestSpec {
            question: "show orders".to_string(),
            session: Some(7),
            deadline: None,
        };
        assert!(matches!(srv.submit(&turn), Admission::Admitted { .. }));
        // Drain returns every credit: the episode closes (never
        // wedges) and the same repeat is admitted again.
        srv.drain();
        assert!(!srv.is_overloaded(), "drain-to-empty closes the episode");
        assert!(matches!(srv.submit(&q), Admission::Admitted { .. }));
        srv.drain();
        let m = srv.shutdown();
        assert_eq!(m.shed_overload, 1);
        assert_eq!(m.overload_entered, 1);
        assert_eq!(m.overload_recovered, 1);
        assert_eq!(m.shed_full, 0, "watermark fired well below capacity");
    }

    #[test]
    fn overload_shed_set_is_deterministic_and_empty_below_the_watermark() {
        let p = pipeline();
        let run = |high: usize| {
            let clock = Arc::new(ManualClock::new());
            let cfg = ServerConfig {
                workers: 1,
                overload: Some(OverloadPolicy {
                    high_watermark: high,
                    low_watermark: 0,
                    cost_threshold: 0,
                    early_warning: None,
                }),
                ..ServerConfig::default()
            };
            let mut srv =
                Server::start_observed(Arc::clone(&p), cfg, clock as Arc<dyn Clock>, None, None);
            let hot = RequestSpec::single("how many customers are there");
            let cold = RequestSpec::single("show all customers");
            srv.submit(&hot);
            srv.submit(&cold);
            srv.drain(); // learn both costs quietly
            let mut shed = Vec::new();
            for round in 0..3 {
                for (i, q) in [&hot, &cold, &hot, &hot, &cold].iter().enumerate() {
                    if matches!(srv.submit(q), Admission::Shed { .. }) {
                        shed.push((round, i));
                    }
                }
                srv.drain();
            }
            let m = srv.shutdown();
            (
                shed,
                m.shed_overload,
                m.overload_entered,
                m.overload_recovered,
            )
        };
        let (a, b) = (run(3), run(3));
        assert_eq!(a, b, "identical runs shed the identical set");
        assert!(!a.0.is_empty(), "high=3 must engage within a 5-burst");
        assert_eq!(a.0.len() as u64, a.1);
        assert_eq!(a.2, a.3, "every episode recovered");
        // With the watermark above the burst size the shed set is
        // empty: the controller is inert below its high watermark.
        let quiet = run(6);
        assert_eq!(quiet.0, Vec::new());
        assert_eq!(quiet.1, 0);
        assert_eq!(quiet.2, 0, "never entered");
    }

    #[test]
    fn overload_fair_share_trims_the_hog_tenant_not_the_quiet_one() {
        let p = pipeline();
        let clock = Arc::new(ManualClock::new());
        let quiet_p: Arc<NliPipeline> = {
            let db: Database = nlidb_benchdata::hr_database(7);
            Arc::new(NliPipeline::standard(&db))
        };
        let mut registry = TenantRegistry::new();
        registry.register("hog", Arc::clone(&p), TenantPolicy::default());
        registry.register("quiet", quiet_p, TenantPolicy::default());
        let cfg = ServerConfig {
            workers: 1,
            overload: Some(OverloadPolicy {
                high_watermark: 2,
                low_watermark: 0,
                // No learned-cost axis: isolate the fair-share axis.
                cost_threshold: u64::MAX,
                early_warning: None,
            }),
            ..ServerConfig::default()
        };
        let mut srv = Server::start_tenants(&registry, cfg, clock as Arc<dyn Clock>, None, None);
        let q = RequestSpec::single("how many customers are there");
        let [hog, quiet] = [0, 1].map(|t| registry.entries()[t].fingerprint());
        // Open the episode, then let the hog tenant hog it.
        srv.submit_to(hog, &q);
        srv.submit_to(hog, &q);
        assert!(!srv.is_overloaded());
        let mut hog_shed = 0;
        let mut hog_admitted = 0;
        for _ in 0..8 {
            match srv.submit_to(hog, &q) {
                Admission::Shed { .. } => hog_shed += 1,
                Admission::Admitted { .. } => hog_admitted += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(srv.is_overloaded());
        assert!(hog_shed > 0, "the hog must be trimmed");
        assert!(hog_admitted > 0, "trimmed to fair share, not starved");
        // The quiet tenant's traffic flows untouched mid-episode.
        assert!(matches!(
            srv.submit_to(quiet, &q),
            Admission::Admitted { .. }
        ));
        srv.drain();
        let m = srv.shutdown();
        assert_eq!(m.shed_overload, hog_shed);
    }

    #[test]
    fn routing_is_stable_and_normalized() {
        let p = pipeline();
        let (srv, _) = server(4, &p);
        let a = RequestSpec::single("Total Price by   Category");
        let b = RequestSpec::single("total price by category");
        assert_eq!(srv.route(&a), srv.route(&b));
        assert_eq!(
            normalize_question("  Total   Price\tby Category "),
            "total price by category"
        );
        srv.shutdown();
    }
}
