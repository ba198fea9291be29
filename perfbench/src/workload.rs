//! The three workloads: how each builds its serving stack and its
//! seeded request stream.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use nlidb_bench::workloads::training_examples;
use nlidb_benchdata::{
    derive_slots, domain_database, long_session_stream, paraphrase, spider_like, zipfian_stream,
    RequestSpec, SlotSet,
};
use nlidb_core::pipeline::NliPipeline;
use nlidb_engine::{Database, Value};
use nlidb_nlp::Lexicon;
use nlidb_serve::{normalize_question, Clock, ManualClock, ServeObs, Server, ServerConfig};
use nlidb_sqlir::{ComplexityClass, Query};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// Worker threads in every served stack.
pub const WORKERS: usize = 2;
/// Interpretation-cache entries per worker.
const INTERP_CACHE: usize = 256;
/// WikiSQL-like examples the neural and hybrid models train on.
const TRAIN_EXAMPLES: usize = 50;
/// Distinct questions in the `hot` pool.
const HOT_POOL: usize = 32;
/// Zipf exponent of `hot` question popularity.
const HOT_ZIPF: f64 = 1.2;
/// `hot` requests between reshuffles of which question holds which
/// popularity rank.
const HOT_RESHUFFLE: usize = 4096;
/// Live dialogues in `novel`'s conversational quarter.
const SESSIONS: usize = 8;
/// Minimum turns per `novel` dialogue.
const SESSION_MIN_TURNS: usize = 16;
/// How many times `analytics` grows the `orders` table (to 2,800
/// rows), so execution is most of pipeline time.
const ORDERS_GROWTH: i64 = 20;

/// One seeded traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every standalone question is new: each misses the cache and the
    /// pipeline runs; a quarter of requests are dialogue turns.
    Novel,
    /// A small Zipf pool warmed into the cache: every request hits.
    Hot,
    /// Aggregation, join and nested questions over a grown `orders`
    /// table: execution dominates.
    Analytics,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Novel, Workload::Hot, Workload::Analytics];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Novel => "novel",
            Workload::Hot => "hot",
            Workload::Analytics => "analytics",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per closed-loop round: two outstanding per worker, or
    /// 512 on `hot`, where a request costs microseconds and smaller
    /// rounds would measure thread wake-ups instead of the serve path.
    pub fn round_size(self) -> usize {
        match self {
            Workload::Hot => 512,
            Workload::Novel | Workload::Analytics => 2 * WORKERS,
        }
    }

    /// Distinct standalone questions the correctness check re-asks and
    /// `answer_accuracy` covers: the first ones served, in stream order.
    pub fn sample_size(self) -> usize {
        match self {
            Workload::Novel => 512,
            Workload::Hot => HOT_POOL,
            Workload::Analytics => 128,
        }
    }
}

/// Time spent setting a stack up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Process CPU time of the whole set-up, all threads.
    pub cpu_s: f64,
    /// Wall time of the whole set-up.
    pub wall_s: f64,
    /// Wall time of `NliPipeline::standard` (schema context, ontology,
    /// indices).
    pub context_s: f64,
    /// Wall time of `NliPipeline::train_neural`.
    pub train_s: f64,
}

/// A standalone question with the gold SQL it was generated from.
#[derive(Debug, Clone)]
pub struct Question {
    /// The (possibly paraphrased) question text.
    pub text: String,
    /// Gold SQL.
    pub gold: Query,
}

/// One generated request: a standalone question or a dialogue turn.
#[derive(Debug, Clone)]
pub enum Request {
    /// A standalone question.
    Single(Arc<Question>),
    /// The next turn of dialogue `session`.
    Turn {
        /// Session id.
        session: u64,
        /// The user's utterance.
        utterance: String,
    },
}

impl Request {
    /// The spec the server is offered.
    pub fn spec(&self) -> RequestSpec {
        match self {
            Request::Single(q) => RequestSpec::single(q.text.clone()),
            Request::Turn { session, utterance } => RequestSpec {
                question: utterance.clone(),
                session: Some(*session),
                deadline: None,
            },
        }
    }
}

/// The trained, immutable half of a stack, shared by every server the
/// run starts.
pub struct Trained {
    /// Template slots derived from the served database.
    pub slots: SlotSet,
    /// The trained pipeline (owns the served database).
    pub pipeline: Arc<NliPipeline>,
    /// The `hot` pool, in popularity order (empty otherwise).
    pub pool: Vec<Arc<Question>>,
}

impl Trained {
    /// Build the database, schema context and trained models for
    /// `workload` at `seed`, timing the context and training steps.
    pub fn build(workload: Workload, seed: u64) -> (Trained, SetupTimes) {
        let mut db = domain_database("retail", seed);
        if workload == Workload::Analytics {
            grow_orders(&mut db, ORDERS_GROWTH);
        }
        let slots = derive_slots(&db);
        let t = Instant::now();
        let mut pipeline = NliPipeline::standard(&db);
        let context_s = t.elapsed().as_secs_f64();
        let train = training_examples(
            &slots,
            seed.wrapping_add(101),
            TRAIN_EXAMPLES,
            &[0, 1, 2, 3],
        );
        let t = Instant::now();
        pipeline.train_neural(&train, seed.wrapping_add(202));
        let train_s = t.elapsed().as_secs_f64();
        let pool = if workload == Workload::Hot {
            hot_pool(&slots)
        } else {
            Vec::new()
        };
        let trained = Trained {
            slots,
            pipeline: Arc::new(pipeline),
            pool,
        };
        let times = SetupTimes {
            context_s,
            train_s,
            ..SetupTimes::default()
        };
        (trained, times)
    }

    /// Start a server over the trained pipeline. `queue_capacity`
    /// admits a whole round on one worker, so the closed loop never
    /// sheds.
    pub fn start_server(&self, workload: Workload, obs: Option<ServeObs>) -> Served {
        let clock = Arc::new(ManualClock::new());
        let config = ServerConfig {
            workers: WORKERS,
            queue_capacity: workload.round_size(),
            interp_cache: INTERP_CACHE,
            ..ServerConfig::default()
        };
        let server = Server::start_observed(
            Arc::clone(&self.pipeline),
            config,
            clock.clone() as Arc<dyn Clock>,
            None,
            obs,
        );
        Served { server, clock }
    }

    /// The workload's request stream at `seed`, generated lazily.
    pub fn requests(
        &self,
        workload: Workload,
        seed: u64,
    ) -> Box<dyn Iterator<Item = Request> + '_> {
        match workload {
            Workload::Novel => {
                let mut singles = QuestionGen::new(&self.slots, seed, &ComplexityClass::all());
                let mut turns =
                    long_session_stream(&self.slots, seed, usize::MAX, SESSIONS, SESSION_MIN_TURNS);
                Box::new((0u64..).map(move |i| {
                    if i % 4 == 3 {
                        let spec = turns.next().expect("unbounded dialogue stream");
                        Request::Turn {
                            session: spec.session.expect("dialogue turns carry a session"),
                            utterance: spec.question,
                        }
                    } else {
                        Request::Single(singles.next_question())
                    }
                }))
            }
            Workload::Analytics => {
                let classes = [
                    ComplexityClass::SingleTableAggregation,
                    ComplexityClass::MultiTableJoin,
                    ComplexityClass::NestedSubquery,
                ];
                let mut singles = QuestionGen::new(&self.slots, seed, &classes);
                Box::new(std::iter::from_fn(move || {
                    Some(Request::Single(singles.next_question()))
                }))
            }
            Workload::Hot => {
                // Zipf popularity over the pool, with the question at
                // each rank reshuffled every HOT_RESHUFFLE requests. A
                // cache hit copies the cached rows, so with fixed ranks
                // one seed's head answer would set the cost of a third
                // of all requests.
                let by_text: HashMap<&str, &Arc<Question>> =
                    self.pool.iter().map(|q| (q.text.as_str(), q)).collect();
                let mut ranked: Vec<String> = self.pool.iter().map(|q| q.text.clone()).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                Box::new(
                    std::iter::repeat_with(move || {
                        ranked.shuffle(&mut rng);
                        zipfian_stream(ranked.clone(), rng.next_u64(), HOT_RESHUFFLE, HOT_ZIPF)
                    })
                    .flatten()
                    .map(move |spec| Request::Single(Arc::clone(by_text[spec.question.as_str()]))),
                )
            }
        }
    }
}

/// A running server and the logical clock its closed loop advances.
pub struct Served {
    /// The server.
    pub server: Server,
    /// Its injected clock.
    pub clock: Arc<ManualClock>,
}

/// Append `factor - 1` copies of every `orders` row under fresh ids,
/// so the table holds `factor` times its generated rows.
fn grow_orders(db: &mut Database, factor: i64) {
    let rows = db.table("orders").expect("retail has orders").rows.clone();
    let n = rows.len() as i64;
    for k in 1..factor {
        for row in &rows {
            let mut copy = row.clone();
            let Value::Int(id) = copy[0] else {
                panic!("orders.id is an integer key")
            };
            copy[0] = Value::Int(id + k * n);
            db.insert("orders", copy)
                .expect("grown order ids are fresh");
        }
    }
}

/// The `hot` pool: the first [`HOT_POOL`] distinct canonical questions
/// of a Spider-like suite drawn with a fixed template seed, so every
/// seed's pool asks the same kinds of question of its own database. A
/// cache hit copies the cached rows, so with templates drawn per seed
/// the pool's mean answer size moved CPU per request 3.9–7.1 µs
/// between seeds.
fn hot_pool(slots: &SlotSet) -> Vec<Arc<Question>> {
    const TEMPLATE_SEED: u64 = 0x4854_504f_4f4c;
    let mut seen = HashSet::new();
    spider_like(slots, TEMPLATE_SEED, HOT_POOL * 4)
        .into_iter()
        .filter(|p| seen.insert(normalize_question(&p.question)))
        .take(HOT_POOL)
        .map(|p| {
            Arc::new(Question {
                text: p.question,
                gold: p.sql,
            })
        })
        .collect()
}

/// Spider-like questions of the given rungs, paraphrased at a level
/// cycling 0–3, never repeating a normalized question: an unbounded
/// stream of cache misses.
struct QuestionGen<'a> {
    slots: &'a SlotSet,
    seed: u64,
    classes: Vec<ComplexityClass>,
    lexicon: Lexicon,
    seen: HashSet<String>,
    ready: VecDeque<Question>,
    chunk: u64,
    drawn: u64,
}

impl<'a> QuestionGen<'a> {
    /// Spider-like suites generated per refill.
    const CHUNK: usize = 64;
    /// Consecutive refills that may add nothing before the generator
    /// declares the template space exhausted.
    const MAX_DRY_REFILLS: u32 = 64;

    fn new(slots: &'a SlotSet, seed: u64, classes: &[ComplexityClass]) -> QuestionGen<'a> {
        QuestionGen {
            slots,
            seed,
            classes: classes.to_vec(),
            lexicon: Lexicon::business_default(),
            seen: HashSet::new(),
            ready: VecDeque::new(),
            chunk: 0,
            drawn: 0,
        }
    }

    fn next_question(&mut self) -> Arc<Question> {
        let mut dry = 0;
        while self.ready.is_empty() {
            assert!(
                dry < Self::MAX_DRY_REFILLS,
                "question generator ran out of distinct questions"
            );
            dry += 1;
            let chunk_seed = self.seed ^ self.chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.chunk += 1;
            for pair in spider_like(self.slots, chunk_seed, Self::CHUNK) {
                if !self.classes.contains(&pair.class) {
                    continue;
                }
                let level = (self.drawn % 4) as u8;
                self.drawn += 1;
                let text = paraphrase(
                    &pair.question,
                    &pair.protected,
                    level,
                    &self.lexicon,
                    chunk_seed ^ self.drawn.wrapping_mul(0x2545_f491_4f6c_dd1d),
                );
                if self.seen.insert(normalize_question(&text)) {
                    self.ready.push_back(Question {
                        text,
                        gold: pair.sql,
                    });
                }
            }
        }
        Arc::new(self.ready.pop_front().expect("refilled above"))
    }
}
