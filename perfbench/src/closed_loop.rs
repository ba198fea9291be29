//! The closed loop: one generator thread submits a round, advances the
//! logical clock, and drains. `Server` releases answers only at
//! `drain`, so a round is the unit a client waits for.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nlidb_obs::{Trace, TraceBuilder};
use nlidb_serve::{Completion, Disposition};

use crate::host::HostMark;
use crate::trace::WallClock;
use crate::workload::{Question, Request, Served};

/// When a serving phase stops: after `time`, or once `max_requests`
/// have been submitted, whichever comes first. Rounds are never cut.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time to keep starting rounds.
    pub time: Duration,
    /// Upper bound on requests submitted.
    pub max_requests: u64,
}

/// What a traced phase records with: the span clock, and where each
/// finished round trace goes.
pub type Tracer<'a> = (&'a Arc<WallClock>, &'a mut dyn FnMut(Trace));

/// Everything one serving phase observed.
#[derive(Debug, Default)]
pub struct ServeLog {
    /// Requests submitted.
    pub attempted: u64,
    /// Requests answered exactly once (a standalone answer or a
    /// dialogue reply).
    pub completed: u64,
    /// Requests lost, delivered twice, shed, refused, past their
    /// deadline, or served by a degraded family.
    pub failed: u64,
    /// Failures by kind, with the first reason seen for each.
    pub failure_kinds: BTreeMap<&'static str, (u64, String)>,
    /// Wall time from the first submit to the last drain's return.
    pub wall_s: f64,
    /// Process CPU seconds over the phase, all threads.
    pub cpu_s: f64,
    /// Host steal seconds over the phase.
    pub steal_s: f64,
    /// One latency sample per round: the round's first submit to the
    /// return of the drain that delivered it, in ms.
    pub round_ms: Vec<f64>,
    /// Interpretation-cache hits during the phase.
    pub cache_hits: u64,
    /// Interpretation-cache misses during the phase.
    pub cache_misses: u64,
    /// The first `sample_size` distinct standalone questions served,
    /// in stream order, with the first answer served for each.
    pub sample: Vec<(Arc<Question>, Disposition)>,
    /// Position in `sample` of each sampled question's text.
    sampled: HashMap<String, usize>,
    /// Later answers to a sampled question, each compared with the
    /// first one served for it.
    pub repeats_checked: u64,
    /// Of those, answers that differ.
    pub changed_answers: u64,
    /// Every dialogue turn served, by session, in turn order: the
    /// utterance and a digest of the reply.
    pub dialogues: BTreeMap<u64, Vec<(String, u64)>>,
    /// Mean over rounds of the busiest worker's share of the round
    /// divided by an even share (traced phases only).
    pub route_imbalance: f64,
}

impl ServeLog {
    fn fail(&mut self, kind: &'static str, reason: String) {
        self.failed += 1;
        self.failure_kinds.entry(kind).or_insert((0, reason)).0 += 1;
    }

    /// Failures other than pipeline refusals: requests the serving
    /// layer lost, delivered twice, or did not answer as asked.
    pub fn serving_failures(&self) -> u64 {
        self.failed - self.failure_kinds.get("refused").map_or(0, |k| k.0)
    }

    /// Completed requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }

    /// Record the answer to a standalone question. The first
    /// `sample_size` distinct questions are kept for the oracle, with
    /// their first answer; every later answer to a kept question must
    /// equal that one, or it counts as changed.
    pub fn record_single(
        &mut self,
        question: Arc<Question>,
        answer: &Disposition,
        sample_size: usize,
    ) {
        match self.sampled.get(question.text.as_str()) {
            Some(&i) => {
                self.repeats_checked += 1;
                if !same_answer(&self.sample[i].1, answer) {
                    self.changed_answers += 1;
                }
            }
            None if self.sample.len() < sample_size => {
                self.sampled
                    .insert(question.text.clone(), self.sample.len());
                self.sample.push((question, answer.clone()));
            }
            None => {}
        }
    }
}

/// Whether two dispositions show the caller the same answer: equal
/// apart from whether the interpretation cache served it.
pub fn same_answer(a: &Disposition, b: &Disposition) -> bool {
    match (a, b) {
        (
            Disposition::Answered { sql, rows, .. },
            Disposition::Answered {
                sql: sql_b,
                rows: rows_b,
                ..
            },
        ) => sql == sql_b && rows == rows_b,
        _ => a == b,
    }
}

/// A digest of a dialogue reply, so the check keeps a fixed-size
/// record per turn instead of the reply.
pub fn answer_digest(d: &Disposition) -> u64 {
    format!("{d:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Drive `served` with `requests` in rounds of `round_size` until the
/// budget runs out. With `tracer`, every round becomes one trace with a
/// span around each `submit` and the `drain`, and routing balance is
/// recorded.
pub fn run(
    served: &mut Served,
    requests: &mut dyn Iterator<Item = Request>,
    round_size: usize,
    budget: Budget,
    sample_size: usize,
    mut tracer: Option<Tracer<'_>>,
) -> ServeLog {
    let mut log = ServeLog::default();
    let workers = served.server.workers();
    let before = served.server.metrics();
    let mut imbalance_sum = 0.0;
    let host = HostMark::now();
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < budget.time && log.attempted < budget.max_requests {
        let left = (budget.max_requests - log.attempted).min(round_size as u64) as usize;
        let round: Vec<Request> = (0..left).map_while(|_| requests.next()).collect();
        let specs: Vec<_> = round.iter().map(Request::spec).collect();
        let mut tb = tracer
            .as_ref()
            .map(|(clock, _)| TraceBuilder::new(rounds, Arc::clone(clock) as _));
        if let Some(tb) = tb.as_mut() {
            let mut per_worker = vec![0usize; workers];
            for spec in &specs {
                per_worker[served.server.route(spec)] += 1;
            }
            let busiest = *per_worker.iter().max().expect("at least one worker");
            imbalance_sum += busiest as f64 * workers as f64 / specs.len() as f64;
            let root = tb.open("round");
            tb.annotate(root, "requests", specs.len().to_string());
        }
        let t0 = Instant::now();
        let mut first_id = None;
        for spec in &specs {
            let span = tb.as_mut().map(|tb| tb.open("submit"));
            let admission = served.server.submit(spec);
            if let (Some(tb), Some(span)) = (tb.as_mut(), span) {
                tb.close(span);
            }
            first_id.get_or_insert(admission.id());
        }
        served.clock.advance(1);
        let span = tb.as_mut().map(|tb| tb.open("drain"));
        let done = served.server.drain();
        if let (Some(tb), Some(span)) = (tb.as_mut(), span) {
            tb.close(span);
        }
        log.round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let (Some(tb), Some((_, record))) = (tb, tracer.as_mut()) {
            record(tb.finish());
        }
        rounds += 1;
        log.attempted += round.len() as u64;

        // Exactly one completion per submitted id.
        let first_id = first_id.unwrap_or(0);
        let mut by_slot: Vec<Option<&Completion>> = vec![None; round.len()];
        for c in &done {
            match c.id.checked_sub(first_id).map(|i| i as usize) {
                Some(i) if i < round.len() && by_slot[i].is_none() => by_slot[i] = Some(c),
                _ => log.fail("duplicate", format!("#{}", c.id)),
            }
        }
        for (request, slot) in round.into_iter().zip(by_slot) {
            let Some(c) = slot else {
                log.fail("lost", String::new());
                continue;
            };
            match (&request, &c.disposition) {
                (Request::Single(_), Disposition::Answered { .. })
                | (Request::Turn { .. }, Disposition::SessionReply { .. }) => log.completed += 1,
                (_, Disposition::Refused { reason }) => log.fail("refused", reason.clone()),
                (_, other) => log.fail("unexpected", format!("{other:?}")),
            }
            match request {
                Request::Single(q) => log.record_single(q, &c.disposition, sample_size),
                Request::Turn { session, utterance } => log
                    .dialogues
                    .entry(session)
                    .or_default()
                    .push((utterance, answer_digest(&c.disposition))),
            }
        }
    }
    log.wall_s = start.elapsed().as_secs_f64();
    (log.cpu_s, log.steal_s) = host.until(&HostMark::now());
    let after = served.server.metrics();
    log.cache_hits = after.interp_hits - before.interp_hits;
    log.cache_misses = after.interp_misses - before.interp_misses;
    if tracer.is_some() && rounds > 0 {
        log.route_imbalance = imbalance_sum / rounds as f64;
    }
    log
}
