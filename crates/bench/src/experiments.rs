//! The reproduction experiments E1–E21 (see `EXPERIMENTS.md`).
//!
//! The paper is a tutorial: it publishes claims, not tables. Each
//! experiment here operationalizes one claim into a measured table;
//! the mapping from claim to experiment is recorded in `DESIGN.md` §3.

use std::collections::HashMap;

use nlidb_benchdata::{
    all_domains, cosql_like, dataset_stats, derive_slots, paper_reference, sparc_like, spider_like,
    wikisql_like, SessionKind, DOMAIN_NAMES,
};
use nlidb_core::clarify;
use nlidb_core::interpretation::InterpreterKind;
use nlidb_dialogue::{bootstrap_from_ontology, ConversationSession, IntentClassifier, ManagerKind};
use nlidb_engine::{execute, execute_with_stats, explain, ResultSet};
use nlidb_evalkit::table::pct;
use nlidb_evalkit::{execution_match, EvalOutcome, Table};
use nlidb_nlp::Lexicon;
use nlidb_sqlir::ComplexityClass;

use crate::workloads::{evaluate, paraphrased, setup_domain, DomainSetup};

/// All experiment identifiers, in order.
pub const EXPERIMENT_IDS: [&str; 21] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21",
];

/// One-line description per experiment, in [`EXPERIMENT_IDS`] order
/// (the `--list` output of the `experiments` binary).
pub const EXPERIMENT_SUMMARIES: [(&str, &str); 21] = [
    (
        "e1",
        "capability matrix: family accuracy per §3 complexity rung",
    ),
    (
        "e2",
        "paraphrase brittleness: accuracy under rewording intensity",
    ),
    ("e3", "learning curve: neural accuracy vs training-set size"),
    ("e4", "hybrid ranker: best-of-both over grammar and neural"),
    (
        "e5",
        "dialogue managers: follow-up accuracy per §5 strategy",
    ),
    (
        "e6",
        "decomposition: nested-query accuracy with/without splitting",
    ),
    (
        "e7",
        "benchmark statistics: synthetic suites vs published shapes",
    ),
    (
        "e8",
        "nested detection: classifier precision/recall on §3 rungs",
    ),
    (
        "e9",
        "clarification: ambiguity dialogue payoff per §5 claim",
    ),
    ("e10", "ontology bootstrap: coverage from schema vs curated"),
    (
        "e11",
        "answer denotation: WTQ-style lax metric vs execution match",
    ),
    (
        "e12",
        "serving runtime: concurrency/cache equivalence + backpressure",
    ),
    (
        "e13",
        "fault injection: deterministic retry/degrade/breaker regimes",
    ),
    (
        "e14",
        "observability: byte-identical traces, attributed fault evidence",
    ),
    (
        "e15",
        "crash recovery: journaled sessions replay, lost work re-admits",
    ),
    (
        "e16",
        "trace profiler: critical-path attribution, reproducible exports",
    ),
    (
        "e17",
        "multi-tenant sharding: N domains, one runtime ≡ N isolated runs",
    ),
    (
        "e18",
        "engine cost: ticks charged vs EXPLAIN estimates per rung",
    ),
    (
        "e19",
        "candidate validation: rerank+validate precision vs pick-first",
    ),
    (
        "e20",
        "soak open loop: overload shed/recover, bounded memory, trajectory",
    ),
    (
        "e21",
        "windowed SLO: burn-rate health events, reconciled, early warning",
    ),
];

/// Run one experiment by id; `None` for unknown ids.
pub fn run_experiment(id: &str, seed: u64) -> Option<Table> {
    match id {
        "e1" => Some(e1_capability_matrix(seed)),
        "e2" => Some(e2_paraphrase_robustness(seed)),
        "e3" => Some(e3_learning_curve(seed)),
        "e4" => Some(e4_hybrid_best_of_both(seed)),
        "e5" => Some(e5_dialogue_managers(seed)),
        "e6" => Some(e6_decomposition(seed)),
        "e7" => Some(e7_benchmark_statistics(seed)),
        "e8" => Some(e8_nested_detection(seed)),
        "e9" => Some(e9_clarification(seed)),
        "e10" => Some(e10_ontology_bootstrap(seed)),
        "e11" => Some(e11_answer_denotation(seed)),
        "e12" => Some(e12_serving_runtime(seed)),
        "e13" => Some(e13_fault_injection(seed)),
        "e14" => Some(e14_observability(seed)),
        "e15" => Some(e15_crash_recovery(seed)),
        "e16" => Some(e16_trace_profile(seed)),
        "e17" => Some(e17_multi_tenant(seed)),
        "e18" => Some(e18_engine_cost(seed)),
        "e19" => Some(e19_candidate_validation(seed)),
        "e20" => Some(e20_soak(seed)),
        "e21" => Some(e21_windowed_slo(seed)),
        _ => None,
    }
}

/// E1 — §3 capability matrix: execution accuracy of each interpreter
/// family per complexity rung, across all six domains.
pub fn e1_capability_matrix(seed: u64) -> Table {
    let mut per: HashMap<(InterpreterKind, ComplexityClass), EvalOutcome> = HashMap::new();
    for (i, name) in DOMAIN_NAMES.iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 160);
        let suite = spider_like(&setup.slots, seed.wrapping_add(1000 + i as u64), 48);
        for kind in InterpreterKind::all() {
            for class in ComplexityClass::all() {
                let class_suite: Vec<_> =
                    suite.iter().filter(|p| p.class == class).cloned().collect();
                let out = evaluate(&setup, kind, &class_suite);
                per.entry((kind, class)).or_default().merge(out);
            }
        }
    }
    let mut t = Table::new(["interpreter", "select", "aggregate", "join", "nested"])
        .title("E1 — capability matrix (execution accuracy per §3 rung)");
    for kind in InterpreterKind::all() {
        let cells: Vec<String> = ComplexityClass::all()
            .iter()
            .map(|c| pct(per[&(kind, *c)].recall()))
            .collect();
        t.row([
            kind.label().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    t
}

/// E2 — paraphrase brittleness: accuracy under increasing paraphrase
/// intensity (WikiSQL-regime questions so all families compete on the
/// same ground).
pub fn e2_paraphrase_robustness(seed: u64) -> Table {
    let kinds = [
        InterpreterKind::Entity,
        InterpreterKind::Neural,
        InterpreterKind::Hybrid,
    ];
    let mut per: HashMap<(InterpreterKind, u8), EvalOutcome> = HashMap::new();
    for (i, name) in ["retail", "hr", "library"].iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 240);
        let base = wikisql_like(&setup.slots, seed.wrapping_add(500 + i as u64), 48);
        for level in 0..=3u8 {
            let suite = paraphrased(&base, level, seed.wrapping_add(level as u64 * 97));
            for kind in kinds {
                let out = evaluate(&setup, kind, &suite);
                per.entry((kind, level)).or_default().merge(out);
            }
        }
    }
    let mut t = Table::new([
        "interpreter",
        "level 0",
        "level 1",
        "level 2",
        "level 3",
        "drop 0→3",
    ])
    .title("E2 — accuracy under paraphrase intensity (§4.1 brittleness claim)");
    for kind in kinds {
        let accs: Vec<f64> = (0..=3u8).map(|l| per[&(kind, l)].recall()).collect();
        t.row([
            kind.label().to_string(),
            pct(accs[0]),
            pct(accs[1]),
            pct(accs[2]),
            pct(accs[3]),
            format!("{:+.1}pp", (accs[3] - accs[0]) * 100.0),
        ]);
    }
    t
}

/// E3 — training-data hunger and cross-domain transfer gap of the
/// neural family.
pub fn e3_learning_curve(seed: u64) -> Table {
    let mut t = Table::new([
        "train size",
        "in-domain acc",
        "NN-baseline acc",
        "cross-domain acc",
        "gap",
    ])
    .title("E3 — neural learning curve + transfer gap (§4.2 data-hunger claim)");
    let eval_domain = setup_domain("hr", seed.wrapping_add(7), 0); // foreign schema
    for &n in &[25usize, 50, 100, 200, 400] {
        let setup = setup_domain("retail", seed, n);
        let in_suite = wikisql_like(&setup.slots, seed.wrapping_add(3000), 60);
        let in_acc = evaluate(&setup, InterpreterKind::Neural, &in_suite).recall();
        // Monolithic nearest-neighbor ablation (Seq2SQL-vs-SQLNet):
        // same training data, no sketch structure.
        let nn = nlidb_core::neural::NearestNeighborBaseline::train(
            &crate::workloads::training_examples(
                &setup.slots,
                seed.wrapping_add(101),
                n,
                &[0, 1, 2, 3],
            ),
        );
        let mut nn_out = EvalOutcome::default();
        for pair in &in_suite {
            match nn.predict(&pair.question) {
                Some((sql, _)) => nn_out.record(true, execution_match(&setup.db, &pair.sql, &sql)),
                None => nn_out.record(false, false),
            }
        }
        // Same trained model, pointed at the HR schema.
        let hr_suite = wikisql_like(&eval_domain.slots, seed.wrapping_add(4000), 60);
        let mut cross = EvalOutcome::default();
        for pair in &hr_suite {
            let pred = setup
                .pipeline
                .interpreter(InterpreterKind::Neural)
                .best(&pair.question, eval_domain.pipeline.context());
            match pred {
                Some(p) => cross.record(true, execution_match(&eval_domain.db, &pair.sql, &p.sql)),
                None => cross.record(false, false),
            }
        }
        t.row([
            n.to_string(),
            pct(in_acc),
            pct(nn_out.recall()),
            pct(cross.recall()),
            format!("{:+.1}pp", (cross.recall() - in_acc) * 100.0),
        ]);
    }
    t
}

/// E4 — hybrid precision/recall: the §4.3 best-of-both claim, on a
/// mixed suite (all rungs, paraphrase levels 0–3 mixed).
pub fn e4_hybrid_best_of_both(seed: u64) -> Table {
    let kinds = [
        InterpreterKind::Entity,
        InterpreterKind::Neural,
        InterpreterKind::Hybrid,
    ];
    let mut per: HashMap<InterpreterKind, EvalOutcome> = HashMap::new();
    for (i, name) in DOMAIN_NAMES.iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 200);
        let base = spider_like(&setup.slots, seed.wrapping_add(600 + i as u64), 40);
        // Mix paraphrase levels question-by-question.
        let mut suite = Vec::new();
        for (j, p) in base.iter().enumerate() {
            let level = (j % 4) as u8;
            suite.extend(paraphrased(std::slice::from_ref(p), level, seed ^ j as u64));
        }
        for kind in kinds {
            per.entry(kind)
                .or_default()
                .merge(evaluate(&setup, kind, &suite));
        }
    }
    let mut t = Table::new(["interpreter", "coverage", "precision", "recall", "F1"])
        .title("E4 — hybrid best-of-both (§4.3) on mixed complexity × paraphrase");
    for kind in kinds {
        let o = per[&kind];
        t.row([
            kind.label().to_string(),
            pct(o.coverage()),
            pct(o.precision()),
            pct(o.recall()),
            pct(o.f1()),
        ]);
    }
    t
}

/// E5 — the §5 dialogue-management flexibility ladder: session
/// completion per manager × session shape.
pub fn e5_dialogue_managers(seed: u64) -> Table {
    let mut per: HashMap<(ManagerKind, SessionKind), (usize, usize)> = HashMap::new();
    let mut turn_acc: HashMap<ManagerKind, EvalOutcome> = HashMap::new();
    for (i, name) in ["retail", "hr", "clinic"].iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 0);
        let ctx = setup.pipeline.context();
        let sessions = sparc_like(&setup.slots, seed.wrapping_add(50 + i as u64), 12);
        for manager in ManagerKind::all() {
            for s in &sessions {
                let mut conv = ConversationSession::new(&setup.db, ctx, manager);
                let mut all_ok = true;
                for turn in &s.turns {
                    let r = conv.turn(&turn.utterance);
                    let gold_rs = execute(&setup.db, &turn.gold).expect("gold executes");
                    let ok = r.accepted
                        && r.result
                            .as_ref()
                            .map(|rs| {
                                if turn.gold.order_by.is_empty() {
                                    gold_rs.unordered_eq(rs)
                                } else {
                                    gold_rs.ordered_eq(rs)
                                }
                            })
                            .unwrap_or(false);
                    turn_acc.entry(manager).or_default().record(r.accepted, ok);
                    all_ok &= ok;
                }
                let e = per.entry((manager, s.kind)).or_default();
                e.1 += 1;
                if all_ok {
                    e.0 += 1;
                }
            }
        }
    }
    let mut t = Table::new([
        "manager",
        "scripted",
        "slot-refill",
        "user-initiative",
        "turn acc",
    ])
    .title("E5 — session completion per dialogue-management regime (§5)");
    for manager in ManagerKind::all() {
        let cell = |kind: SessionKind| {
            let (ok, n) = per.get(&(manager, kind)).copied().unwrap_or((0, 0));
            if n == 0 {
                "n/a".to_string()
            } else {
                pct(ok as f64 / n as f64)
            }
        };
        t.row([
            manager.label().to_string(),
            cell(SessionKind::Scripted),
            cell(SessionKind::SlotRefill),
            cell(SessionKind::UserInitiative),
            pct(turn_acc[&manager].recall()),
        ]);
    }
    t
}

/// E6 — decomposition: which complex questions can be answered as a
/// sequence of simple ones (§5 ¶1), and which cannot.
pub fn e6_decomposition(seed: u64) -> Table {
    let mut t = Table::new([
        "question family",
        "one-shot acc",
        "decomposed acc",
        "verdict",
    ])
    .title("E6 — one-shot vs sequence-of-simple-questions (§5 decomposition claim)");

    let mut filtered_count_one = EvalOutcome::default();
    let mut filtered_count_multi = EvalOutcome::default();
    let mut above_avg_one = EvalOutcome::default();
    let mut above_avg_multi = EvalOutcome::default();
    let mut without_one = EvalOutcome::default();
    let mut without_multi = EvalOutcome::default();

    for (i, name) in ["retail", "hr", "library"].iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 0);
        let ctx = setup.pipeline.context();

        // Family 1: filter + count — decomposable via a scripted session.
        for s in sparc_like(&setup.slots, seed.wrapping_add(10 + i as u64), 9)
            .into_iter()
            .filter(|s| s.kind == SessionKind::Scripted)
        {
            let final_gold = &s.turns.last().unwrap().gold;
            let gold_rs = execute(&setup.db, final_gold).unwrap();
            // One shot: splice the turns into a single question.
            let narrow = &s.turns[1].utterance; // "only those with m over t"
            let base = &s.turns[0].utterance; // "show X in V"
            let one_shot = format!(
                "how many {} {}",
                base.trim_start_matches("show "),
                narrow.trim_start_matches("only those ")
            );
            record_question(&setup, &one_shot, &gold_rs, &mut filtered_count_one);
            // Multi-turn via the agent manager.
            let mut conv = ConversationSession::new(&setup.db, ctx, ManagerKind::Agent);
            let mut last = None;
            for turn in &s.turns {
                last = conv.turn(&turn.utterance).result;
            }
            let ok = last.map(|rs| gold_rs.unordered_eq(&rs)).unwrap_or(false);
            filtered_count_multi.record(true, ok);
        }

        // Families 2–3: nested questions.
        let suite = spider_like(&setup.slots, seed.wrapping_add(20 + i as u64), 60);
        for pair in suite
            .iter()
            .filter(|p| p.class == ComplexityClass::NestedSubquery)
        {
            let gold_rs = execute(&setup.db, &pair.sql).unwrap();
            let is_avg = pair.id.contains("n_above_avg");
            let is_without = pair.id.contains("n_without");
            if is_avg {
                record_question(&setup, &pair.question, &gold_rs, &mut above_avg_one);
                // Two-step decomposition: ask for the average, read the
                // number, ask the comparison with the literal value.
                let ok = decompose_above_avg(&setup, pair, &gold_rs);
                above_avg_multi.record(true, ok);
            } else if is_without {
                record_question(&setup, &pair.question, &gold_rs, &mut without_one);
                // No sequence of simple (non-nested) dialogue acts can
                // express an anti-join: every act adds positive filters
                // or aggregates. Attempt the closest simple session and
                // score it honestly.
                let mut conv = ConversationSession::new(&setup.db, ctx, ManagerKind::Agent);
                let plural = pair.question.split_whitespace().next().unwrap_or("");
                let r1 = conv.turn(&format!("show all {plural}"));
                let ok = r1
                    .result
                    .map(|rs| gold_rs.unordered_eq(&rs))
                    .unwrap_or(false);
                without_multi.record(true, ok);
            }
        }
    }

    t.row([
        "filter + count".to_string(),
        pct(filtered_count_one.recall()),
        pct(filtered_count_multi.recall()),
        "decomposable".to_string(),
    ]);
    t.row([
        "above average (nested scalar)".to_string(),
        pct(above_avg_one.recall()),
        pct(above_avg_multi.recall()),
        "decomposable w/ value transfer".to_string(),
    ]);
    t.row([
        "without related (anti-join)".to_string(),
        pct(without_one.recall()),
        pct(without_multi.recall()),
        "NOT decomposable".to_string(),
    ]);
    t
}

fn record_question(
    setup: &DomainSetup,
    question: &str,
    gold_rs: &nlidb_engine::ResultSet,
    out: &mut EvalOutcome,
) {
    let pred = setup
        .pipeline
        .interpreter(InterpreterKind::Entity)
        .best(question, setup.pipeline.context());
    match pred {
        Some(p) => {
            let ok = execute(&setup.db, &p.sql)
                .map(|rs| gold_rs.unordered_eq(&rs))
                .unwrap_or(false);
            out.record(true, ok);
        }
        None => out.record(false, false),
    }
}

/// Oracle two-step decomposition of an "above/below average" question:
/// turn 1 asks for the average, turn 2 re-asks with the literal value.
fn decompose_above_avg(
    setup: &DomainSetup,
    pair: &nlidb_benchdata::QaPair,
    gold_rs: &nlidb_engine::ResultSet,
) -> bool {
    // Parse "X with M above average" from the canonical question.
    let words: Vec<&str> = pair.question.split_whitespace().collect();
    let Some(with_pos) = words.iter().position(|w| *w == "with") else {
        return false;
    };
    let plural = words[..with_pos].join(" ");
    let Some(dir_pos) = words.iter().position(|w| *w == "above" || *w == "below") else {
        return false;
    };
    let measure = words[with_pos + 1..dir_pos].join(" ");
    let step1 = format!("average {measure} of {plural}");
    let Some(avg_interp) = setup
        .pipeline
        .interpreter(InterpreterKind::Entity)
        .best(&step1, setup.pipeline.context())
    else {
        return false;
    };
    let Ok(avg_rs) = execute(&setup.db, &avg_interp.sql) else {
        return false;
    };
    let Some(avg) = avg_rs
        .rows
        .first()
        .and_then(|r| r.first())
        .and_then(|v| v.as_f64())
    else {
        return false;
    };
    let cmp = if words[dir_pos] == "above" {
        "over"
    } else {
        "under"
    };
    let step2 = format!("show {plural} with {measure} {cmp} {avg}");
    let Some(final_interp) = setup
        .pipeline
        .interpreter(InterpreterKind::Entity)
        .best(&step2, setup.pipeline.context())
    else {
        return false;
    };
    execute(&setup.db, &final_interp.sql)
        .map(|rs| gold_rs.unordered_eq(&rs))
        .unwrap_or(false)
}

/// E7 — benchmark statistics: our synthetic suites vs the numbers the
/// paper reports for the public datasets (§6 Benchmarks).
pub fn e7_benchmark_statistics(seed: u64) -> Table {
    let mut wikisql_pairs = Vec::new();
    let mut wtq_count = 0usize;
    let mut spider_pairs = Vec::new();
    let mut sparc_sessions = Vec::new();
    let mut cosql_sessions = Vec::new();
    for (i, db) in all_domains(seed).iter().enumerate() {
        let slots = derive_slots(db);
        wikisql_pairs.extend(wikisql_like(&slots, seed.wrapping_add(i as u64), 672));
        wtq_count +=
            nlidb_benchdata::wtq_like(db, &slots, seed.wrapping_add(60 + i as u64), 184).len();
        spider_pairs.extend(spider_like(&slots, seed.wrapping_add(90 + i as u64), 200));
        sparc_sessions.extend(sparc_like(&slots, seed.wrapping_add(80 + i as u64), 33));
        cosql_sessions.extend(cosql_like(&slots, seed.wrapping_add(70 + i as u64), 25));
    }
    let mut wtq_stats = dataset_stats("WTQ-like (ours)", &[], &[]);
    wtq_stats.questions = wtq_count;
    wtq_stats.tables = 15;
    wtq_stats.domains = DOMAIN_NAMES.len();
    let ours = [
        dataset_stats("WikiSQL-like (ours)", &wikisql_pairs, &[]),
        wtq_stats,
        dataset_stats("Spider-like (ours)", &spider_pairs, &[]),
        dataset_stats("SParC-like (ours)", &[], &sparc_sessions),
        dataset_stats("CoSQL-like (ours)", &[], &cosql_sessions),
    ];
    let mut t = Table::new([
        "dataset",
        "questions",
        "tables",
        "domains",
        "sequences",
        "turns",
        "turns/seq",
    ])
    .title("E7 — benchmark shape: paper-reported vs generated (≈1/20 scale)");
    for s in paper_reference().iter().chain(ours.iter()) {
        t.row([
            s.name.clone(),
            s.questions.to_string(),
            s.tables.to_string(),
            s.domains.to_string(),
            s.sequences.to_string(),
            s.turns.to_string(),
            format!("{:.1}", s.turns_per_sequence()),
        ]);
    }
    t
}

/// E8 — nested-query *detection* (§6 open challenge): does the system
/// even recognize that a question needs a sub-query?
pub fn e8_nested_detection(seed: u64) -> Table {
    let kinds = [
        InterpreterKind::Pattern,
        InterpreterKind::Entity,
        InterpreterKind::Neural,
        InterpreterKind::Hybrid,
    ];
    // (true positives, false positives, false negatives) per kind.
    let mut counts: HashMap<InterpreterKind, (usize, usize, usize)> = HashMap::new();
    for (i, name) in DOMAIN_NAMES.iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 160);
        let suite = spider_like(&setup.slots, seed.wrapping_add(800 + i as u64), 48);
        for pair in &suite {
            let gold_nested = pair.class == ComplexityClass::NestedSubquery;
            for kind in kinds {
                let predicted_nested = setup
                    .pipeline
                    .interpreter(kind)
                    .best(&pair.question, setup.pipeline.context())
                    .map(|p| p.sql.has_subquery())
                    .unwrap_or(false);
                let e = counts.entry(kind).or_default();
                match (gold_nested, predicted_nested) {
                    (true, true) => e.0 += 1,
                    (false, true) => e.1 += 1,
                    (true, false) => e.2 += 1,
                    (false, false) => {}
                }
            }
        }
    }
    let mut t = Table::new(["interpreter", "precision", "recall", "F1"])
        .title("E8 — nested-query detection (§6 sub-queries challenge)");
    for kind in kinds {
        let (tp, fp, fneg) = counts[&kind];
        let p = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let r = if tp + fneg == 0 {
            0.0
        } else {
            tp as f64 / (tp + fneg) as f64
        };
        let f1 = if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        };
        t.row([kind.label().to_string(), pct(p), pct(r), pct(f1)]);
    }
    t
}

/// E9 — value of one round of multi-choice clarification
/// (NaLIR/DialSQL interaction): a genuinely ambiguous suite (value
/// strings that exist in two different columns) plus typo-heavy
/// paraphrase suites.
pub fn e9_clarification(seed: u64) -> Table {
    let mut t = Table::new(["suite", "baseline acc", "clarified acc", "questions asked"])
        .title("E9 — clarification lift (NaLIR/DialSQL-style multi-choice)");

    // --- Ambiguous-value suite: clinic city names exist on both
    // patients.city and doctors.city; "visits in Austin" has two
    // legitimate readings. Convention: the gold reading goes through
    // the patient (the survey's NaLIR example is exactly this kind of
    // mapping ambiguity, resolved by asking).
    {
        let setup = setup_domain("clinic", seed, 0);
        let patients = setup.db.table("patients").expect("clinic schema");
        let doctors = setup.db.table("doctors").expect("clinic schema");
        let shared: Vec<String> = patients
            .distinct_values("city")
            .into_iter()
            .filter_map(|v| match v {
                nlidb_engine::Value::Str(s) => Some(s),
                _ => None,
            })
            .filter(|c| {
                doctors
                    .distinct_values("city")
                    .iter()
                    .any(|d| matches!(d, nlidb_engine::Value::Str(s) if s == c))
            })
            .collect();
        let mut baseline = EvalOutcome::default();
        let mut clarified = EvalOutcome::default();
        let mut asks = 0usize;
        for city in &shared {
            let question = format!("show visits in {city}");
            let gold = nlidb_sqlir::parse_query(&format!(
                "SELECT * FROM visits JOIN patients ON visits.patient_id = patients.id \
                 WHERE patients.city = '{city}'"
            ))
            .expect("gold parses");
            let cands = setup
                .pipeline
                .candidates(&question, InterpreterKind::Entity);
            match cands.first() {
                Some(p) => baseline.record(true, execution_match(&setup.db, &gold, &p.sql)),
                None => baseline.record(false, false),
            }
            if clarify::needs_clarification(&cands, 0.15) {
                asks += 1;
            }
            let resolved = clarify::resolve_with_oracle(&cands, 0.15, |cand| {
                execution_match(&setup.db, &gold, &cand.sql)
            });
            match resolved {
                Some(p) => clarified.record(true, execution_match(&setup.db, &gold, &p.sql)),
                None => clarified.record(false, false),
            }
        }
        t.row([
            "clinic / ambiguous values".to_string(),
            pct(baseline.recall()),
            pct(clarified.recall()),
            asks.to_string(),
        ]);
    }

    // --- Typo-heavy paraphrase suites: clarification can only help
    // when the correct reading survives into the candidate list.
    for (i, name) in ["retail", "library"].iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 0);
        let base = spider_like(&setup.slots, seed.wrapping_add(40 + i as u64), 60);
        let suite = paraphrased(&base, 3, seed.wrapping_add(999));
        let mut baseline = EvalOutcome::default();
        let mut clarified = EvalOutcome::default();
        let mut asks = 0usize;
        for pair in &suite {
            let cands = setup
                .pipeline
                .candidates(&pair.question, InterpreterKind::Entity);
            match cands.first() {
                Some(p) => baseline.record(true, execution_match(&setup.db, &pair.sql, &p.sql)),
                None => baseline.record(false, false),
            }
            if clarify::needs_clarification(&cands, 0.15) {
                asks += 1;
            }
            let resolved = clarify::resolve_with_oracle(&cands, 0.15, |cand| {
                execution_match(&setup.db, &pair.sql, &cand.sql)
            });
            match resolved {
                Some(p) => clarified.record(true, execution_match(&setup.db, &pair.sql, &p.sql)),
                None => clarified.record(false, false),
            }
        }
        t.row([
            format!("{name} / level-3 paraphrase"),
            pct(baseline.recall()),
            pct(clarified.recall()),
            asks.to_string(),
        ]);
    }
    t
}

/// E10 — ontology-driven bootstrap (§5, Quamar et al.): intent
/// classification from generated artifacts vs a minimal hand-authored
/// baseline.
pub fn e10_ontology_bootstrap(seed: u64) -> Table {
    let lexicon = Lexicon::business_default();
    let mut t = Table::new([
        "domain",
        "intents",
        "examples",
        "entities",
        "bootstrap acc",
        "minimal acc",
    ])
    .title("E10 — ontology-driven conversation bootstrap (§5)");
    for (i, name) in DOMAIN_NAMES.iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 0);
        let ctx = setup.pipeline.context();
        let artifacts = bootstrap_from_ontology(&setup.db, ctx);
        // Minimal baseline: one example per intent (what a developer
        // might hand-author on day one).
        let mut minimal = artifacts.clone();
        for intent in &mut minimal.intents {
            intent.examples.truncate(1);
        }
        let full_clf = IntentClassifier::train(&artifacts, seed);
        let min_clf = IntentClassifier::train(&minimal, seed);
        // Held-out eval: paraphrased versions of the generated examples.
        let mut eval_pairs = Vec::new();
        for intent in &artifacts.intents {
            for (j, e) in intent.examples.iter().enumerate().take(3) {
                let para = nlidb_benchdata::paraphrase(
                    e,
                    &[],
                    1,
                    &lexicon,
                    seed.wrapping_add(5000 + j as u64),
                );
                eval_pairs.push((para, intent.name.clone()));
            }
        }
        t.row([
            name.to_string(),
            artifacts.intents.len().to_string(),
            artifacts.example_count().to_string(),
            artifacts.entities.len().to_string(),
            pct(full_clf.accuracy(&eval_pairs)),
            pct(min_clf.accuracy(&eval_pairs)),
        ]);
    }
    t
}

/// One E12 serving pass: build a fresh cached pipeline over `domain`,
/// replay `passes` rounds of the same seeded request stream in
/// closed-loop batches, and return (signatures, metrics, join-cache
/// stats).
#[allow(clippy::too_many_arguments)]
fn e12_serve_run(
    domain: &str,
    seed: u64,
    n: usize,
    session_share: f64,
    workers: usize,
    queue_capacity: usize,
    interp_cache: usize,
    passes: usize,
    deadlines: Option<(usize, u64)>,
    batch: usize,
) -> (
    Vec<String>,
    nlidb_serve::MetricsSnapshot,
    nlidb_ontology::JoinCacheStats,
) {
    use nlidb_core::pipeline::{NliPipeline, SchemaContext};
    use nlidb_ontology::JoinPathCache;
    use nlidb_serve::{run_closed_loop, with_deadlines, Clock, ManualClock, Server, ServerConfig};
    use std::sync::Arc;

    let db = nlidb_benchdata::domain_database(domain, seed);
    let slots = derive_slots(&db);
    let join_cache = Arc::new(JoinPathCache::new(128));
    let mut ctx = SchemaContext::build(&db);
    ctx.graph = ctx.graph.clone().with_cache(Arc::clone(&join_cache));
    let pipeline = Arc::new(NliPipeline::with_context(&db, ctx));
    let mut stream = nlidb_benchdata::request_stream(&slots, seed, n, session_share);
    if let Some((period, budget)) = deadlines {
        stream = with_deadlines(stream, period, budget, batch);
    }
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        pipeline,
        ServerConfig {
            workers,
            queue_capacity,
            interp_cache,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );
    let mut sigs = Vec::with_capacity(n * passes);
    for _ in 0..passes {
        sigs.extend(run_closed_loop(&mut server, &clock, &stream, batch).signatures());
    }
    let metrics = server.shutdown();
    (sigs, metrics, join_cache.stats())
}

/// E12 — serving equivalence & cache efficacy: the §7 "NLIs must grow
/// into multi-user systems" challenge, operationalized. A concurrent
/// worker pool must (a) answer *identically* to a serial run — the
/// per-request signature streams are compared and asserted equal, at
/// any worker count, with caches hot or disabled — and (b) make repeat
/// traffic cheap: interpretation-cache and join-path-cache hit rates
/// per workload. Backpressure rows show deterministic shed/deadline
/// accounting under a tight queue bound.
pub fn e12_serving_runtime(seed: u64) -> Table {
    let mut t = Table::new([
        "workload",
        "workers",
        "requests",
        "answered",
        "turns",
        "shed",
        "deadline",
        "interp hit",
        "join hit",
        "== serial",
    ])
    .title("E12 — serving equivalence & cache efficacy (retail, seeded stream)");
    const N: usize = 120;
    const BATCH: usize = 16;
    let mixed = |workers| e12_serve_run("retail", seed, N, 0.25, workers, N, 256, 1, None, BATCH);
    let (serial_sigs, m1, j1) = mixed(1);
    let mut row = |label: &str,
                   workers: usize,
                   sigs: &[String],
                   m: &nlidb_serve::MetricsSnapshot,
                   j: &nlidb_ontology::JoinCacheStats,
                   baseline: Option<&[String]>| {
        let equiv = match baseline {
            None => "(base)".to_string(),
            Some(base) => {
                assert_eq!(base, sigs, "E12: {label} diverged from the serial baseline");
                "yes".to_string()
            }
        };
        let interp_cell = if m.cache_disabled {
            "off".to_string()
        } else {
            pct(m.interp_hit_rate())
        };
        t.row([
            label.to_string(),
            workers.to_string(),
            m.submitted.to_string(),
            m.answered.to_string(),
            m.session_turns.to_string(),
            m.shed_full.to_string(),
            m.shed_deadline.to_string(),
            interp_cell,
            pct(j.hit_rate()),
            equiv,
        ]);
    };
    row("mixed 25% sessions", 1, &serial_sigs, &m1, &j1, None);
    for workers in [2, 4] {
        let (sigs, m, j) = mixed(workers);
        row(
            "mixed 25% sessions",
            workers,
            &sigs,
            &m,
            &j,
            Some(&serial_sigs),
        );
    }
    // Interp cache off: same answers; lookups are still counted as
    // misses but the snapshot carries the explicit disabled flag.
    let (sigs, m, j) = e12_serve_run("retail", seed, N, 0.25, 4, N, 0, 1, None, BATCH);
    assert!(m.cache_disabled, "interp_cache=0 must flag the snapshot");
    assert_eq!(m.interp_hits, 0, "disabled cache can never hit");
    assert!(m.interp_misses > 0, "lookups are counted even when off");
    row("mixed, interp off", 4, &sigs, &m, &j, Some(&serial_sigs));
    // Hot replay: a second identical pass over a warm server.
    let (sigs2, m, j) = e12_serve_run("retail", seed, N, 0.0, 2, N, 256, 2, None, BATCH);
    let (serial2, _, _) = e12_serve_run("retail", seed, N, 0.0, 1, N, 256, 2, None, BATCH);
    row("singles ×2 (warm)", 2, &sigs2, &m, &j, Some(&serial2));
    // Backpressure: tight queues + periodic deadlines, large batches.
    let (_, m, j) = e12_serve_run("retail", seed, N, 0.0, 2, 8, 256, 1, Some((5, 2)), 48);
    t.row([
        "backpressure q=8".to_string(),
        "2".to_string(),
        m.submitted.to_string(),
        m.answered.to_string(),
        m.session_turns.to_string(),
        m.shed_full.to_string(),
        m.shed_deadline.to_string(),
        pct(m.interp_hit_rate()),
        pct(j.hit_rate()),
        "n/a".to_string(),
    ]);
    assert!(
        m.shed_full + m.shed_deadline > 0,
        "E12 backpressure row must actually shed"
    );
    t
}

/// The retail serving pass E13–E16 and E21 replay and `perfgate`
/// renders: E12's seeded mixed stream (`n` requests, a quarter of them
/// dialogue turns), submitted `copies` times back to back in
/// closed-loop batches of 16, through a 2-worker server with `plan` as
/// its request hook and `obs`, when given, attached. Returns the run's
/// report and final metrics.
pub fn retail_serve_run(
    seed: u64,
    n: usize,
    copies: usize,
    plan: nlidb_benchdata::FaultPlan,
    obs: Option<nlidb_serve::ServeObs>,
) -> (nlidb_serve::LoadReport, nlidb_serve::MetricsSnapshot) {
    use nlidb_core::pipeline::NliPipeline;
    use nlidb_serve::{fault_plan_hook, run_closed_loop, Clock, ManualClock, Server, ServerConfig};
    use std::sync::Arc;

    let db = nlidb_benchdata::domain_database("retail", seed);
    let slots = derive_slots(&db);
    let pipeline = Arc::new(NliPipeline::standard(&db));
    let stream = nlidb_benchdata::request_stream(&slots, seed, n, 0.25);
    let stream: Vec<_> = std::iter::repeat_n(stream, copies).flatten().collect();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        pipeline,
        ServerConfig {
            workers: 2,
            queue_capacity: stream.len(),
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        obs,
    );
    let report = run_closed_loop(&mut server, &clock, &stream, 16);
    (report, server.shutdown())
}

/// Ids of the requests a run answered fresh — not from cache — i.e.
/// the requests that actually reached the fault hook.
fn fresh_answers(report: &nlidb_serve::LoadReport) -> Vec<u64> {
    report
        .completions
        .iter()
        .filter(|c| {
            matches!(
                c.disposition,
                nlidb_serve::Disposition::Answered {
                    from_cache: false,
                    ..
                }
            )
        })
        .map(|c| c.id)
        .collect()
}

/// E13 — deterministic fault injection & graceful degradation: the §4
/// "families fail differently" claim under serving-path failure. Every
/// regime is run twice and asserted bit-identical in both its
/// signature stream and its metrics snapshot; transient faults inside
/// the retry budget must additionally leave the stream byte-identical
/// to the unfaulted run (the robustness layer is transparent when it
/// has absorbed the fault). Fatal faults degrade down the family
/// ladder, bursts trip circuit breakers, and a worker panic is
/// contained — the run still completes, with the losses surfaced as
/// refusals.
pub fn e13_fault_injection(seed: u64) -> Table {
    use nlidb_benchdata::{FaultKind, FaultPlan, FaultRates};
    nlidb_serve::silence_worker_panics();
    let mut t = Table::new([
        "fault regime",
        "answered",
        "degraded",
        "refused",
        "retries",
        "backoff",
        "trips",
        "deaths",
        "crashed",
        "== clean",
    ])
    .title("E13 — deterministic fault injection & graceful degradation (retail, seeded stream)");
    const N: usize = 120;
    // The clean pass identifies which requests actually reach the
    // fault hook: fresh singles (cache hits replay a stored answer and
    // touch no backend; session turns take the session path). Pinning
    // the guarantee-carrying faults on fresh ids makes every regime's
    // assertion hold at *any* seed — a faulted run's cache contents
    // are always a subset of the clean run's (faults only ever prevent
    // caching), so a clean-run fresh single stays fresh under faults.
    let (clean, clean_m) = retail_serve_run(seed, N, 1, FaultPlan::none(), None);
    let (clean_sigs, fresh) = (clean.signatures(), fresh_answers(&clean));
    assert!(
        fresh.len() >= 14,
        "E13 needs fresh singles to pin faults on ({} found)",
        fresh.len()
    );
    // An outage window: every id from the first fresh single through
    // the twelfth faults fatally at rung 0. Pinning the whole window
    // (cache hits never consult the hook, so the extra pins are inert
    // on replayed answers) means no healthy request can reach rung 0
    // inside it and reset a breaker's failure streak: with ≥12 rung-0
    // failures across 2 workers, one worker sees ≥6 consecutive,
    // clearing the trip threshold of 3 at any seed.
    let burst = {
        let mut p = FaultPlan::none();
        for id in fresh[0]..=fresh[11] {
            p = p.with(id, FaultKind::Fatal { depth: 1 });
        }
        p
    };
    let regimes: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        (
            "transient 20% (in budget)",
            FaultPlan::seeded(
                seed,
                N as u64,
                &FaultRates {
                    transient: 0.2,
                    fatal: 0.0,
                    ..FaultRates::default()
                },
            )
            .with(fresh[12], FaultKind::Transient { failures: 2 }),
        ),
        (
            "mixed 10%/5% + pinned fatal",
            FaultPlan::seeded(seed, N as u64, &FaultRates::default())
                .with(fresh[12], FaultKind::Fatal { depth: 1 }),
        ),
        ("fatal outage window", burst),
        (
            "mixed + pinned worker panic",
            FaultPlan::seeded(seed, N as u64, &FaultRates::default())
                .with(fresh[13], FaultKind::WorkerPanic),
        ),
    ];
    for (label, plan) in regimes {
        let (run, m) = retail_serve_run(seed, N, 1, plan.clone(), None);
        let (run2, m2) = retail_serve_run(seed, N, 1, plan, None);
        let sigs = run.signatures();
        assert_eq!(
            sigs,
            run2.signatures(),
            "E13 {label}: signature stream must replay bit-identically"
        );
        assert_eq!(
            m, m2,
            "E13 {label}: metrics snapshot must replay bit-identically"
        );
        match label {
            "none" => assert_eq!(sigs, clean_sigs, "E13 baseline must equal itself"),
            "transient 20% (in budget)" => {
                assert_eq!(
                    sigs, clean_sigs,
                    "E13: absorbed transients must be invisible in the stream"
                );
                assert!(m.retries > 0, "E13: transient regime must actually retry");
                assert_eq!(m.degraded, 0, "E13: in-budget transients never degrade");
            }
            "mixed 10%/5% + pinned fatal" => {
                // The pinned fresh request cannot come back full
                // fidelity: it either degrades down the ladder or the
                // ladder exhausts and it refuses.
                assert!(
                    m.degraded > 0 || m.refused > clean_m.refused,
                    "E13: a fatal fault on a fresh request must degrade or refuse"
                )
            }
            "fatal outage window" => {
                assert!(m.breaker_trips > 0, "E13: the outage must trip a breaker")
            }
            "mixed + pinned worker panic" => {
                assert!(m.worker_deaths >= 1, "E13: the panic must be recorded");
                assert!(m.crashed_requests >= 1, "E13: crash losses must surface");
            }
            _ => unreachable!(),
        }
        t.row([
            label.to_string(),
            m.answered.to_string(),
            m.degraded.to_string(),
            m.refused.to_string(),
            m.retries.to_string(),
            m.retry_backoff_ticks.to_string(),
            m.breaker_trips.to_string(),
            m.worker_deaths.to_string(),
            m.crashed_requests.to_string(),
            if sigs == clean_sigs { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// E14 — deterministic observability: the open "explain yourself"
/// challenge (§7) made a measurable property of the serving path.
/// Every request — including E13's faulted ones — finishes as a span
/// tree stamped with logical ticks only, so the *entire* exported
/// trace stream is byte-identical run over run; and every retry,
/// backoff tick, breaker trip/skip, and degradation in the metrics is
/// attributable to a specific span carrying the evidence. The table
/// reports per-stage cost (in trace ticks — span-event sequence
/// deltas, a deterministic work proxy) under the faulted regime.
pub fn e14_observability(seed: u64) -> Table {
    use nlidb_benchdata::FaultPlan;
    const N: usize = 120;
    let traced = |plan| {
        let obs = nlidb_serve::ServeObs::new(N);
        let (report, m) = retail_serve_run(seed, N, 1, plan, Some(obs.clone()));
        (report.signatures(), m, obs)
    };
    let (clean, _) = retail_serve_run(seed, N, 1, FaultPlan::none(), None);

    // Clean regime: tracing is invisible and bit-reproducible.
    let (t_sigs, t_m, t_obs) = traced(FaultPlan::none());
    let (t_sigs2, t_m2, t_obs2) = traced(FaultPlan::none());
    assert_eq!(t_sigs, t_sigs2, "E14: traced stream must replay");
    assert_eq!(t_m, t_m2, "E14: traced metrics must replay");
    assert_eq!(
        t_obs.sink.export_jsonl(),
        t_obs2.sink.export_jsonl(),
        "E14: clean trace export must be byte-identical run over run"
    );
    assert_eq!(
        t_sigs,
        clean.signatures(),
        "E14: tracing must not perturb the answer stream"
    );

    // Faulted regime: E13's transient rate plus its fatal outage
    // window, traced. The export must still be byte-identical, and
    // the span trees must account for every piece of fault evidence
    // the metrics counted.
    let plan = faulted_regime_plan(seed, N);
    let (f_sigs, f_m, f_obs) = traced(plan.clone());
    let (f_sigs2, f_m2, f_obs2) = traced(plan);
    assert_eq!(f_sigs, f_sigs2, "E14: faulted stream must replay");
    assert_eq!(f_m, f_m2, "E14: faulted metrics must replay");
    assert_eq!(
        f_obs.sink.export_jsonl(),
        f_obs2.sink.export_jsonl(),
        "E14: faulted trace export must be byte-identical run over run"
    );
    assert!(
        f_m.retries > 0 && f_m.breaker_trips > 0 && f_m.degraded > 0,
        "E14: the faulted regime must exercise retry, breaker, and ladder"
    );
    let traces = f_obs.sink.traces();
    assert_eq!(traces.len(), N, "E14: one trace per request");
    let (mut retries, mut backoff, mut trips, mut skips, mut degraded) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for trace in &traces {
        let root = trace.root().expect("every trace has a root span");
        if root.attr("outcome") == Some("degraded") {
            degraded += 1;
        }
        for s in &trace.spans {
            if let Some(r) = s.attr("retries") {
                retries += r.parse::<u64>().expect("retries attr is a count");
            }
            if let Some(b) = s.attr("backoff") {
                backoff += b.parse::<u64>().expect("backoff attr is ticks");
            }
            match s.attr("breaker") {
                Some("tripped") => trips += 1,
                Some("open") => skips += 1,
                _ => {}
            }
        }
    }
    assert_eq!(retries, f_m.retries, "E14: every retry has a span");
    assert_eq!(backoff, f_m.retry_backoff_ticks, "E14: backoff attributed");
    assert_eq!(trips, f_m.breaker_trips, "E14: every trip has a span");
    assert_eq!(skips, f_m.breaker_skips, "E14: every skip has a span");
    assert_eq!(degraded, f_m.degraded, "E14: every degradation has a span");

    // The serving counters join the per-stage histograms in one
    // registry; the table reads the histogram side.
    f_m.export_into(&f_obs.registry);
    let report = f_obs.registry.report();
    assert_eq!(report.counter("serve.retries"), Some(f_m.retries));
    let mut t = Table::new(["stage", "spans", "p50", "p95", "max", "total"]).title(
        "E14 — traced serving: per-stage cost in trace ticks (faulted regime, retail, N=120)",
    );
    for (name, h) in &report.histograms {
        if let Some(stage) = name.strip_prefix("span.") {
            t.row([
                stage.to_string(),
                h.count.to_string(),
                h.p50.to_string(),
                h.p95.to_string(),
                h.max.to_string(),
                h.sum.to_string(),
            ]);
        }
    }
    t
}

/// E15 — deterministic crash recovery: no dialogue state dies with a
/// worker. E13 showed a panic is *contained*; E15 shows it is
/// *absorbed*: every committed dialogue turn is journaled before its
/// reply is released, a dead worker's queued work bounces back for
/// re-admission to live workers, and its sessions are rebuilt there by
/// exact replay of their journaled turns. The measurable claim: a
/// pure-panic regime produces the same answer stream as a run that
/// never crashed (lost work ≡ replayed work), and under mixed drawn
/// faults every *session turn* still answers exactly as the same
/// fault schedule answers without the crash. Every regime is run
/// twice and asserted bit-identical.
pub fn e15_crash_recovery(seed: u64) -> Table {
    use nlidb_benchdata::{
        request_stream, session_turn_ids, sessions_with_min_turns, FaultKind, FaultPlan, FaultRates,
    };
    nlidb_serve::silence_worker_panics();
    const N: usize = 120;
    let mut t = Table::new([
        "crash regime",
        "answered",
        "turns",
        "refused",
        "deaths",
        "crashed",
        "readmitted",
        "recovered",
        "replayed",
        "diverged",
        "== baseline",
    ])
    .title("E15 — deterministic crash recovery (retail, seeded stream, 2 workers)");
    // Victim selection is data-driven off the very stream the server
    // replays: a conversation with ≥3 turns has committed state before
    // its middle turn and more turns after it — exactly what replay
    // must carry across the crash. `mixed` drawn faults must not be
    // overwritten by the pin (the baseline run would then see a fault
    // the crashed run doesn't), so the pinned turn is chosen fault-free
    // under the drawn schedule.
    let db = nlidb_benchdata::domain_database("retail", seed);
    let slots = derive_slots(&db);
    let stream = request_stream(&slots, seed, N, 0.25);
    let candidates = sessions_with_min_turns(&stream, 3);
    assert!(
        !candidates.is_empty(),
        "E15 needs a ≥3-turn conversation in the stream"
    );
    let mixed = || FaultPlan::seeded(seed, N as u64, &FaultRates::default());
    let mid_turn = session_turn_ids(&stream, candidates[0])[1];
    let mixed_victim = candidates
        .iter()
        .find_map(|&s| {
            let ids = session_turn_ids(&stream, s);
            // First turn fault-free → it commits to the journal, so
            // the crash on the second turn has state to replay.
            (mixed().fault_for(ids[0]).is_none() && mixed().fault_for(ids[1]).is_none())
                .then_some(ids[1])
        })
        .expect(
            "E15: a conversation whose first two turns are fault-free under the drawn schedule",
        );
    // A fresh single for the single-crash regime, found as in E13/E14.
    let (clean, clean_m) = retail_serve_run(seed, N, 1, FaultPlan::none(), None);
    let fresh = fresh_answers(&clean);
    assert!(!fresh.is_empty(), "E15 needs a fresh single to panic on");
    let clean = clean.completions;
    let (mixed_base, mixed_base_m) = retail_serve_run(seed, N, 1, mixed(), None);
    let mixed_base = mixed_base.completions;
    let sig = |cs: &[nlidb_serve::Completion]| -> Vec<String> {
        cs.iter().map(|c| c.signature()).collect()
    };
    // (label, plan, baseline completions, whole-stream equality expected)
    let regimes: Vec<(&str, FaultPlan, &Vec<nlidb_serve::Completion>, bool)> = vec![
        ("none", FaultPlan::none(), &clean, true),
        (
            "panic on a fresh single",
            FaultPlan::none().with(fresh[0], FaultKind::WorkerPanic),
            &clean,
            true,
        ),
        (
            "panic mid-conversation",
            FaultPlan::none().with(mid_turn, FaultKind::WorkerPanic),
            &clean,
            true,
        ),
        ("mixed 10%/5% (no crash)", mixed(), &mixed_base, true),
        (
            "mixed + panic mid-conversation",
            mixed().with(mixed_victim, FaultKind::WorkerPanic),
            &mixed_base,
            false,
        ),
    ];
    for (label, plan, baseline, whole_stream) in regimes {
        let (done, m) = retail_serve_run(seed, N, 1, plan.clone(), None);
        let (done2, m2) = retail_serve_run(seed, N, 1, plan, None);
        let (done, done2) = (done.completions, done2.completions);
        assert_eq!(
            sig(&done),
            sig(&done2),
            "E15 {label}: completion stream must replay bit-identically"
        );
        assert_eq!(m, m2, "E15 {label}: metrics must replay bit-identically");
        assert_eq!(done.len(), N, "E15 {label}: every request completes");
        if whole_stream {
            // Recovery is invisible: the crashed run answers exactly
            // like its never-crashed baseline, request for request.
            assert_eq!(
                sig(&done),
                sig(baseline),
                "E15 {label}: recovered stream must equal the no-crash baseline"
            );
        } else {
            // Under drawn faults a lost cache can expose singles to
            // faults a hit would have skipped; the recovery claim is
            // about dialogue state, and *every turn* must still answer
            // as the crash-free schedule answers it.
            for (c, b) in done.iter().zip(baseline.iter()) {
                assert_eq!(c.id, b.id);
                if stream[c.id as usize].session.is_some() {
                    assert_eq!(
                        c.signature(),
                        b.signature(),
                        "E15 {label}: turn {} must survive the crash unchanged",
                        c.id
                    );
                }
            }
        }
        match label {
            "none" => assert_eq!(m, clean_m, "E15 baseline must equal itself"),
            "mixed 10%/5% (no crash)" => {
                assert_eq!(m, mixed_base_m, "E15 mixed baseline must equal itself")
            }
            _ => {
                assert!(m.worker_deaths >= 1, "E15 {label}: the panic must land");
                assert!(m.readmitted >= 1, "E15 {label}: bounced work re-admits");
                assert_eq!(
                    m.readmit_refused, 0,
                    "E15 {label}: nothing may be lost to recovery"
                );
            }
        }
        if label.contains("mid-conversation") {
            assert!(m.sessions_recovered >= 1, "E15 {label}: session rebuilt");
            assert!(m.turns_replayed >= 1, "E15 {label}: journal replayed");
        }
        assert_eq!(m.replay_divergence, 0, "E15 {label}: replay is exact");
        let baseline_sig = sig(baseline);
        let matches = sig(&done)
            .iter()
            .zip(&baseline_sig)
            .filter(|(a, b)| a == b)
            .count();
        t.row([
            label.to_string(),
            m.answered.to_string(),
            m.session_turns.to_string(),
            m.refused.to_string(),
            m.worker_deaths.to_string(),
            m.crashed_requests.to_string(),
            m.readmitted.to_string(),
            m.sessions_recovered.to_string(),
            m.turns_replayed.to_string(),
            m.replay_divergence.to_string(),
            if matches == N {
                "yes".to_string()
            } else {
                format!("{matches}/{N}")
            },
        ]);
    }
    t
}

/// The E14/E16 faulted regime for the seeded retail stream: E13's
/// transient rate plus a fatal outage window pinned on clean-run
/// fresh singles (faults are only consulted on cache misses, so the
/// window must land on fresh ids to fault at any seed). Public so the
/// `perfgate` drift-baseline binary measures exactly the regime E16
/// asserts on.
pub fn faulted_regime_plan(seed: u64, n: usize) -> nlidb_benchdata::FaultPlan {
    use nlidb_benchdata::{FaultKind, FaultPlan, FaultRates};
    let fresh = fresh_answers(&retail_serve_run(seed, n, 1, FaultPlan::none(), None).0);
    assert!(
        fresh.len() >= 12,
        "the faulted regime needs fresh singles to pin faults on ({} found)",
        fresh.len()
    );
    let mut p = FaultPlan::seeded(
        seed,
        n as u64,
        &FaultRates {
            transient: 0.2,
            fatal: 0.0,
            ..FaultRates::default()
        },
    );
    for id in fresh[0]..=fresh[11] {
        p = p.with(id, FaultKind::Fatal { depth: 1 });
    }
    p
}

/// E16 — trace profiling & critical-path attribution: the analysis
/// layer over E14's byte-reproducible traces. Both regimes (clean and
/// E13's faulted plan) are profiled twice and every artifact — the
/// per-stage profile, the Chrome Trace export, the folded stacks —
/// asserted byte-identical run over run; the exported JSONL re-imports
/// to exactly the recorded corpus (what `tracetool` operates on). The
/// cost accounting must balance exactly: per-stage self costs
/// partition the root cost, critical-path self costs partition the
/// critical cost, and the tail attribution accounts for every tail
/// trace. The clean-vs-faulted diff isolates what the faults cost,
/// and the table reports where the faulted regime's critical-path
/// time went.
pub fn e16_trace_profile(seed: u64) -> Table {
    use nlidb_benchdata::FaultPlan;
    use nlidb_obs::{
        chrome_trace_json, folded_stacks, parse_jsonl, tail_attribution, Profile, ProfileDiff,
    };
    const N: usize = 120;
    let plan = faulted_regime_plan(seed, N);

    let traced = |plan| {
        let obs = nlidb_serve::ServeObs::new(N);
        let (_, m) = retail_serve_run(seed, N, 1, plan, Some(obs.clone()));
        (m, obs)
    };
    let (_, c_obs) = traced(FaultPlan::none());
    let (_, c_obs2) = traced(FaultPlan::none());
    let (f_m, f_obs) = traced(plan.clone());
    let (_, f_obs2) = traced(plan);
    for (a, b, label) in [(&c_obs, &c_obs2, "clean"), (&f_obs, &f_obs2, "faulted")] {
        let (ta, tb) = (a.sink.traces(), b.sink.traces());
        assert_eq!(
            Profile::from_traces(&ta).export_text(),
            Profile::from_traces(&tb).export_text(),
            "E16 {label}: profile must be byte-identical run over run"
        );
        assert_eq!(
            chrome_trace_json(&ta),
            chrome_trace_json(&tb),
            "E16 {label}: Chrome Trace export must be byte-identical"
        );
        assert_eq!(
            folded_stacks(&ta),
            folded_stacks(&tb),
            "E16 {label}: folded stacks must be byte-identical"
        );
    }
    let f_traces = f_obs.sink.traces();
    assert_eq!(
        parse_jsonl(&f_obs.sink.export_jsonl()).expect("E16: canonical export parses"),
        f_traces,
        "E16: the JSONL export must re-import to the recorded corpus"
    );

    // The books must balance: self costs partition the root cost,
    // critical-path self costs partition the critical cost, and the
    // hot spine never costs more than the roots it spans.
    let f_profile = Profile::from_traces(&f_traces);
    let clean_profile = Profile::from_traces(&c_obs.sink.traces());
    assert_eq!(f_profile.traces, N as u64, "E16: one trace per request");
    assert_eq!(
        f_profile.stages.iter().map(|s| s.self_cost).sum::<u64>(),
        f_profile.root_cost,
        "E16: per-stage self costs must partition the root cost"
    );
    assert_eq!(
        f_profile
            .stages
            .iter()
            .map(|s| s.crit_self_cost)
            .sum::<u64>(),
        f_profile.crit_cost,
        "E16: critical-path self costs must partition the critical cost"
    );
    assert!(f_profile.crit_cost <= f_profile.root_cost);

    let tail = tail_attribution(&f_traces, 95.0).expect("E16: a served corpus has a tail");
    assert!(tail.tail_traces >= 1);
    assert_eq!(
        tail.dominant.iter().map(|(_, n)| n).sum::<u64>(),
        tail.tail_traces,
        "E16: every tail trace has a dominant stage"
    );
    assert_eq!(
        tail.split.iter().map(|(_, n)| n).sum::<u64>(),
        tail.tail_traces,
        "E16: every tail trace lands in a rung/family bucket"
    );

    // The diff isolates what the faults cost: positive overhead, and
    // the retries the metrics counted surface as extra rung spans.
    let diff = ProfileDiff::between(&clean_profile, &f_profile);
    assert!(
        diff.overhead() > 0,
        "E16: the faulted regime must cost more than the clean one"
    );
    assert!(f_m.retries > 0, "E16: the faulted regime must retry");
    let rungs = |p: &Profile| p.stage("rung").map_or(0, |s| s.spans);
    assert!(
        rungs(&f_profile) > rungs(&clean_profile),
        "E16: retries and degradations must add rung spans"
    );

    let mut t = Table::new([
        "stage",
        "spans",
        "total",
        "self",
        "crit spans",
        "crit self",
        "crit share",
    ])
    .title("E16 — per-stage critical-path attribution (faulted regime, retail, N=120)");
    for s in &f_profile.stages {
        t.row([
            s.name.clone(),
            s.spans.to_string(),
            s.total_cost.to_string(),
            s.self_cost.to_string(),
            s.crit_spans.to_string(),
            s.crit_self_cost.to_string(),
            pct(s.crit_self_cost as f64 / f_profile.crit_cost as f64),
        ]);
    }
    t
}

/// E11 — WTQ-style answer-denotation accuracy (§6): "given the
/// question and the table, the task is to answer the question based on
/// the table". The laxest metric: any SQL that denotes the right
/// answer counts, which is how heterogeneous system families were ever
/// comparable on WikiTableQuestions.
pub fn e11_answer_denotation(seed: u64) -> Table {
    let mut t = Table::new(["domain", "denotation acc", "execution acc", "laxness gain"])
        .title("E11 — answer-denotation vs execution accuracy (WTQ metric, §6)");
    for (i, name) in DOMAIN_NAMES.iter().enumerate() {
        let setup = setup_domain(name, seed.wrapping_add(i as u64), 0);
        let examples = nlidb_benchdata::wtq_like(
            &setup.db,
            &setup.slots,
            seed.wrapping_add(300 + i as u64),
            48,
        );
        let lexicon = Lexicon::business_default();
        let mut denot = EvalOutcome::default();
        let mut exec = EvalOutcome::default();
        for (j, ex) in examples.iter().enumerate() {
            // Mild paraphrase: systems answer differently-shaped SQL,
            // which is where the denotation metric's laxness matters.
            let question = nlidb_benchdata::paraphrase(
                &ex.question,
                &ex.protected,
                1,
                &lexicon,
                seed ^ j as u64,
            );
            let pred = setup
                .pipeline
                .interpreter(InterpreterKind::Entity)
                .best(&question, setup.pipeline.context());
            match pred {
                Some(p) => {
                    let rs = execute(&setup.db, &p.sql).ok();
                    denot.record(
                        true,
                        rs.as_ref()
                            .map(|rs| nlidb_benchdata::answer_match(&ex.answer, rs))
                            .unwrap_or(false),
                    );
                    exec.record(true, execution_match(&setup.db, &ex.gold_sql, &p.sql));
                }
                None => {
                    denot.record(false, false);
                    exec.record(false, false);
                }
            }
        }
        t.row([
            name.to_string(),
            pct(denot.recall()),
            pct(exec.recall()),
            format!("{:+.1}pp", (denot.recall() - exec.recall()) * 100.0),
        ]);
    }
    t
}

/// What one multi-tenant E17 pass produced: the global completion
/// stream, which tenant owns each request id, and per-tenant
/// metrics/journal digests.
struct E17Run {
    sigs: Vec<String>,
    /// Request id → owning tenant index (ids are submission order, so
    /// this is exactly the interleaved stream's ownership sequence).
    owner: Vec<usize>,
    per_tenant: Vec<nlidb_serve::MetricsSnapshot>,
    journals: Vec<Vec<(u64, usize)>>,
    global: nlidb_serve::MetricsSnapshot,
}

const E17_REQUESTS_PER_TENANT: usize = 48;
const E17_WORKERS: usize = 4;
const E17_BATCH: usize = 16;

/// One multi-tenant serving pass: the first `tenants` benchdata
/// domains registered over one shared join-path cache, their seeded
/// streams interleaved deterministically, driven closed-loop through a
/// single [`nlidb_serve::Server`]. `budgets[i]` (where present)
/// becomes tenant i's admission budget.
fn e17_multi_run(seed: u64, tenants: usize, budgets: &[Option<u64>]) -> E17Run {
    use nlidb_ontology::JoinPathCache;
    use nlidb_serve::{
        run_closed_loop_tenants, tenant_pipeline, Clock, ManualClock, Server, ServerConfig,
        TenantPolicy, TenantRegistry,
    };
    use std::sync::Arc;

    let cache = Arc::new(JoinPathCache::new(256));
    let mut registry = TenantRegistry::new();
    let mut fps = Vec::with_capacity(tenants);
    let mut streams = Vec::with_capacity(tenants);
    for (i, name) in DOMAIN_NAMES.iter().take(tenants).enumerate() {
        let db = nlidb_benchdata::domain_database(name, seed.wrapping_add(i as u64));
        let slots = derive_slots(&db);
        let (fp, pipeline) = tenant_pipeline(&db, &cache);
        registry.register(
            *name,
            pipeline,
            TenantPolicy {
                admission_budget: budgets.get(i).copied().flatten(),
            },
        );
        streams.push((
            fp,
            nlidb_benchdata::request_stream(
                &slots,
                seed.wrapping_add(i as u64),
                E17_REQUESTS_PER_TENANT,
                0.25,
            ),
        ));
        fps.push(fp);
    }
    let interleaved = nlidb_benchdata::interleave_streams(seed, streams);
    let owner: Vec<usize> = interleaved
        .iter()
        .map(|(fp, _)| fps.iter().position(|f| f == fp).expect("registered"))
        .collect();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_tenants(
        &registry,
        ServerConfig {
            workers: E17_WORKERS,
            queue_capacity: interleaved.len(),
            interp_cache: 256,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );
    let sigs = run_closed_loop_tenants(&mut server, &clock, &interleaved, E17_BATCH).signatures();
    let per_tenant = fps
        .iter()
        .map(|&fp| server.tenant_metrics(fp).expect("registered"))
        .collect();
    let journals = fps
        .iter()
        .map(|&fp| {
            let j = server.tenant_journal(fp).expect("registered");
            j.sessions().iter().map(|&s| (s, j.turn_count(s))).collect()
        })
        .collect();
    E17Run {
        sigs,
        owner,
        per_tenant,
        journals,
        global: server.shutdown(),
    }
}

/// One isolated single-tenant pass over domain `i`: the same stream,
/// config, and closed-loop cadence as the multi-tenant run, on a
/// private [`nlidb_serve::Server`]. E17's baseline.
fn e17_isolated_run(
    seed: u64,
    i: usize,
    queue_capacity: usize,
) -> (Vec<String>, nlidb_serve::MetricsSnapshot, Vec<(u64, usize)>) {
    use nlidb_core::pipeline::{NliPipeline, SchemaContext};
    use nlidb_ontology::JoinPathCache;
    use nlidb_serve::{run_closed_loop, Clock, ManualClock, Server, ServerConfig};
    use std::sync::Arc;

    let db = nlidb_benchdata::domain_database(DOMAIN_NAMES[i], seed.wrapping_add(i as u64));
    let slots = derive_slots(&db);
    let join_cache = Arc::new(JoinPathCache::new(256));
    let mut ctx = SchemaContext::build(&db);
    ctx.graph = ctx.graph.clone().with_cache(Arc::clone(&join_cache));
    let pipeline = Arc::new(NliPipeline::with_context(&db, ctx));
    let stream = nlidb_benchdata::request_stream(
        &slots,
        seed.wrapping_add(i as u64),
        E17_REQUESTS_PER_TENANT,
        0.25,
    );
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        pipeline,
        ServerConfig {
            workers: E17_WORKERS,
            queue_capacity,
            interp_cache: 256,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );
    let sigs = run_closed_loop(&mut server, &clock, &stream, E17_BATCH).signatures();
    let journal: Vec<(u64, usize)> = {
        let j = server.journal();
        j.sessions().iter().map(|&s| (s, j.turn_count(s))).collect()
    };
    (sigs, server.shutdown(), journal)
}

/// Rewrite a signature's request id to the per-tenant rank `rank`: a
/// tenant's k-th completion in the shared runtime carries a global id,
/// while the isolated baseline numbered the same request k — the rest
/// of the digest must match byte for byte.
fn e17_relabel(sig: &str, rank: usize) -> String {
    let rest = sig.split_once(' ').map(|(_, r)| r).unwrap_or("");
    format!("#{rank} {rest}")
}

/// Every placement-independent counter of a snapshot, for cross-run
/// equality (`max_queue_depth` and `per_worker` legitimately differ
/// between a shared and an isolated pool).
fn e17_scalars(m: &nlidb_serve::MetricsSnapshot) -> [u64; 22] {
    [
        m.submitted,
        m.admitted,
        m.shed_full,
        m.shed_deadline,
        m.quota_refused,
        m.answered,
        m.refused,
        m.session_turns,
        m.interp_hits,
        m.interp_misses,
        m.retries,
        m.retry_backoff_ticks,
        m.breaker_trips,
        m.breaker_skips,
        m.degraded,
        m.worker_deaths,
        m.crashed_requests,
        m.readmitted,
        m.readmit_refused,
        m.sessions_recovered,
        m.turns_replayed,
        m.replay_divergence,
    ]
}

/// E17 — multi-tenant sharding isolation: the §7 enterprise challenge
/// of one NLI runtime fronting many databases. A shared
/// [`nlidb_serve::Server`] over N benchdata domains must be
/// *indistinguishable*, per tenant, from N isolated single-tenant
/// servers: after rewriting global request ids to per-tenant ranks,
/// every tenant's completion stream, placement-independent counters,
/// and journal digest are asserted equal to its isolated baseline —
/// and the whole shared run replays byte-identically. The quota rows
/// show per-tenant admission budgets refusing deterministically
/// without perturbing co-tenants.
pub fn e17_multi_tenant(seed: u64) -> Table {
    e17_multi_tenant_with(seed, 6)
}

/// [`e17_multi_tenant`] over the first `tenants` benchdata domains
/// (2..=6; the committed table uses all six).
pub fn e17_multi_tenant_with(seed: u64, tenants: usize) -> Table {
    assert!(
        (2..=DOMAIN_NAMES.len()).contains(&tenants),
        "E17 needs 2..=6 tenants"
    );
    let mut t = Table::new([
        "tenant",
        "requests",
        "answered",
        "turns",
        "quota refused",
        "interp hit",
        "vs isolated",
    ])
    .title(format!(
        "E17 — multi-tenant sharding ({tenants} tenants, one runtime vs isolated runs)"
    ));
    let run = e17_multi_run(seed, tenants, &[]);
    // The headline invariant, part 2: the shared run replays
    // byte-identically — stream, counters, everything.
    let rerun = e17_multi_run(seed, tenants, &[]);
    assert_eq!(run.sigs, rerun.sigs, "E17: rerun diverged");
    assert_eq!(run.global, rerun.global, "E17: rerun metrics diverged");
    let total = tenants * E17_REQUESTS_PER_TENANT;
    // Part 1: each tenant's slice of the shared run is its isolated run.
    for (i, name) in DOMAIN_NAMES.iter().take(tenants).enumerate() {
        let tenant_sigs: Vec<String> = run
            .sigs
            .iter()
            .enumerate()
            .filter(|&(id, _)| run.owner[id] == i)
            .enumerate()
            .map(|(rank, (_, sig))| e17_relabel(sig, rank))
            .collect();
        let (iso_sigs, iso_m, iso_j) = e17_isolated_run(seed, i, total);
        assert_eq!(
            tenant_sigs, iso_sigs,
            "E17: {name} answered differently shared vs isolated"
        );
        let m = &run.per_tenant[i];
        assert_eq!(
            e17_scalars(m),
            e17_scalars(&iso_m),
            "E17: {name} counters diverged shared vs isolated"
        );
        assert_eq!(
            run.journals[i], iso_j,
            "E17: {name} journal diverged shared vs isolated"
        );
        t.row([
            name.to_string(),
            m.submitted.to_string(),
            m.answered.to_string(),
            m.session_turns.to_string(),
            m.quota_refused.to_string(),
            pct(m.interp_hit_rate()),
            "identical".to_string(),
        ]);
    }
    t.row([
        "all (one runtime)".to_string(),
        run.global.submitted.to_string(),
        run.global.answered.to_string(),
        run.global.session_turns.to_string(),
        run.global.quota_refused.to_string(),
        pct(run.global.interp_hit_rate()),
        "rerun byte-identical".to_string(),
    ]);
    // Quota regime: halve tenant 0's budget; its overflow is refused
    // deterministically while every co-tenant's stream is untouched.
    let budget = (E17_REQUESTS_PER_TENANT / 2) as u64;
    let budgeted = e17_multi_run(seed, tenants, &[Some(budget)]);
    let b0 = &budgeted.per_tenant[0];
    assert_eq!(b0.admitted, budget, "E17: budget not enforced");
    assert_eq!(
        b0.quota_refused,
        E17_REQUESTS_PER_TENANT as u64 - budget,
        "E17: overflow not refused as quota"
    );
    for (i, name) in DOMAIN_NAMES.iter().take(tenants).enumerate().skip(1) {
        let slice = |r: &E17Run| -> Vec<String> {
            r.sigs
                .iter()
                .enumerate()
                .filter(|&(id, _)| r.owner[id] == i)
                .map(|(_, s)| s.clone())
                .collect()
        };
        assert_eq!(
            slice(&run),
            slice(&budgeted),
            "E17: {name}'s stream perturbed by a co-tenant's quota"
        );
    }
    t.row([
        format!("{} (budget {budget})", DOMAIN_NAMES[0]),
        b0.submitted.to_string(),
        b0.answered.to_string(),
        b0.session_turns.to_string(),
        b0.quota_refused.to_string(),
        pct(b0.interp_hit_rate()),
        "budget enforced".to_string(),
    ]);
    let co_submitted: u64 = budgeted.per_tenant[1..].iter().map(|m| m.submitted).sum();
    let co_answered: u64 = budgeted.per_tenant[1..].iter().map(|m| m.answered).sum();
    let co_turns: u64 = budgeted.per_tenant[1..]
        .iter()
        .map(|m| m.session_turns)
        .sum();
    t.row([
        "co-tenants under quota".to_string(),
        co_submitted.to_string(),
        co_answered.to_string(),
        co_turns.to_string(),
        "0".to_string(),
        "-".to_string(),
        "unchanged".to_string(),
    ]);
    t
}

/// Per-rung tick and estimate accounting for one E18 corpus pass,
/// plus every result and `EXPLAIN` rendering in corpus order, so a
/// second pass can be compared wholesale for byte-identity.
#[derive(PartialEq)]
pub struct EnginePass {
    /// Gold queries executed per §3 rung ([`ComplexityClass::all`] order).
    pub queries: [u64; 4],
    /// Logical ticks charged per rung.
    pub ticks: [u64; 4],
    /// Summed `EXPLAIN` `est_cost` per rung.
    pub est_cost: [u64; 4],
    /// Every result, in corpus order.
    pub results: Vec<ResultSet>,
    /// Every plan rendering, concatenated in corpus order.
    pub explains: String,
}

/// Execute the full spider-like gold corpus (six domains × 48 queries),
/// accumulating per complexity rung the logical ticks charged and the
/// `EXPLAIN` estimate made before execution. Shared by E18 and the
/// perf-drift gate.
pub fn engine_corpus_pass(seed: u64) -> EnginePass {
    let mut pass = EnginePass {
        queries: [0; 4],
        ticks: [0; 4],
        est_cost: [0; 4],
        results: Vec::new(),
        explains: String::new(),
    };
    for (i, db) in all_domains(seed).iter().enumerate() {
        let slots = derive_slots(db);
        for pair in spider_like(&slots, seed.wrapping_add(1000 + i as u64), 48) {
            let plan = explain(db, &pair.sql);
            let (rs, stats) = execute_with_stats(db, &pair.sql)
                .unwrap_or_else(|e| panic!("E18: gold query {} failed: {e}", pair.id));
            let k = ComplexityClass::all()
                .iter()
                .position(|c| *c == pair.class)
                .expect("spider_like classifies every query");
            pass.queries[k] += 1;
            pass.ticks[k] += stats.ticks;
            pass.est_cost[k] += plan.est_cost;
            pass.results.push(rs);
            pass.explains.push_str(&plan.render());
        }
    }
    pass
}

/// E18 — what the engine's work costs against what `EXPLAIN` promised.
/// Every gold query of the full spider-like corpus executes; per §3
/// rung the table sets the logical ticks charged beside the summed
/// catalog-only estimate that admission acts on. A second full pass
/// (results, tick totals, and every `EXPLAIN` rendering) is asserted
/// byte-identical to the first.
pub fn e18_engine_cost(seed: u64) -> Table {
    let pass = engine_corpus_pass(seed);
    let rerun = engine_corpus_pass(seed);
    assert!(pass == rerun, "E18: rerun diverged");
    let mut t = Table::new(["rung", "queries", "ticks", "est_cost", "ticks/est"])
        .title("E18 — engine cost (ticks charged vs EXPLAIN estimate per §3 rung)");
    let ratio = |ticks: u64, est: u64| format!("{:.2}×", ticks as f64 / est as f64);
    for (k, class) in ComplexityClass::all().iter().enumerate() {
        t.row([
            class.label().to_string(),
            pass.queries[k].to_string(),
            pass.ticks[k].to_string(),
            pass.est_cost[k].to_string(),
            ratio(pass.ticks[k], pass.est_cost[k]),
        ]);
    }
    let (q, ticks, est) = (
        pass.queries.iter().sum::<u64>(),
        pass.ticks.iter().sum::<u64>(),
        pass.est_cost.iter().sum::<u64>(),
    );
    t.row([
        "all".to_string(),
        q.to_string(),
        ticks.to_string(),
        est.to_string(),
        ratio(ticks, est),
    ]);
    t
}

/// E19 — the candidate-validation payoff (the §6 guardrail claim:
/// interpretations should be *proposed, checked, and approved*, not
/// executed on faith). On the E4 regime (six domains, mixed
/// complexity × paraphrase), each family answers every question two
/// ways: pick-first (execute the top-confidence interpretation) and
/// approved ([`nlidb_core::pipeline::NliPipeline::ask_approved`]:
/// rerank the candidate set, validate each candidate against schema,
/// grounding, shape, and cost *before* execution, execute the first
/// survivor). Precision is over answered questions, so the lift comes
/// from two effects: vetoing every candidate of an unanswerable
/// reading (the answer becomes a refusal instead of a wrong table) and
/// rescuing a lower-ranked valid reading ("rescued"). The whole pass
/// runs twice and is asserted byte-identical.
pub fn e19_candidate_validation(seed: u64) -> Table {
    use nlidb_core::InterpretError;

    #[derive(Default, Clone, Copy)]
    struct Tally {
        questions: usize,
        candidates: usize,
        rescued: usize,
        vetoed: usize,
    }
    let build = || {
        let mut pick: HashMap<InterpreterKind, EvalOutcome> = HashMap::new();
        let mut appr: HashMap<InterpreterKind, EvalOutcome> = HashMap::new();
        let mut tally: HashMap<InterpreterKind, Tally> = HashMap::new();
        for (i, name) in DOMAIN_NAMES.iter().enumerate() {
            let setup = setup_domain(name, seed.wrapping_add(i as u64), 200);
            let base = spider_like(&setup.slots, seed.wrapping_add(600 + i as u64), 40);
            // Mix paraphrase levels question-by-question, as E4 does.
            let mut suite = Vec::new();
            for (j, p) in base.iter().enumerate() {
                let level = (j % 4) as u8;
                suite.extend(paraphrased(std::slice::from_ref(p), level, seed ^ j as u64));
            }
            // Unanswerable probes — the §6 guardrail case: every 4th
            // question re-asked with its protected value swapped for a
            // quoted string the database does not hold. There is no
            // right answer; a family that executes anyway pays
            // precision, while validation vetoes the ungrounded
            // literal and refuses. Gold stays the original query, so
            // an executed probe can never count as correct.
            let probes: Vec<_> = base
                .iter()
                .enumerate()
                .filter(|(j, p)| {
                    j % 4 == 0
                        && p.protected
                            .first()
                            .is_some_and(|v| p.question.contains(v.as_str()))
                })
                .map(|(j, p)| {
                    let v = p.protected.first().expect("filtered on a value");
                    let mut q = p.clone();
                    q.question = q.question.replace(v.as_str(), &format!("'zorblatt{j}'"));
                    q
                })
                .collect();
            suite.extend(probes);
            for kind in InterpreterKind::all() {
                pick.entry(kind)
                    .or_default()
                    .merge(evaluate(&setup, kind, &suite));
                let a = appr.entry(kind).or_default();
                let t = tally.entry(kind).or_default();
                for pair in &suite {
                    t.questions += 1;
                    match setup
                        .pipeline
                        .ask_approved(&pair.question, kind, None, None)
                    {
                        Ok(ap) => {
                            let ok = execution_match(&setup.db, &pair.sql, &ap.answer.query);
                            a.record(true, ok);
                            t.candidates += ap.report.candidate_count;
                            t.vetoed += ap.report.vetoed_count();
                            if ap.report.chosen_rank > 0 {
                                t.rescued += 1;
                            }
                        }
                        Err(InterpretError::AllCandidatesRejected { count, .. }) => {
                            a.record(false, false);
                            t.candidates += count;
                            t.vetoed += count;
                        }
                        Err(_) => a.record(false, false),
                    }
                }
            }
        }
        let mut t = Table::new([
            "interpreter",
            "cands/q",
            "pick-first prec",
            "approved prec",
            "Δ prec",
            "rescued",
            "rejected",
        ])
        .title("E19 — candidate validation (§6 guardrails) vs pick-first execution");
        for kind in InterpreterKind::all() {
            let (p, a, y) = (pick[&kind], appr[&kind], tally[&kind]);
            t.row([
                kind.label().to_string(),
                format!("{:.2}", y.candidates as f64 / y.questions as f64),
                pct(p.precision()),
                pct(a.precision()),
                format!("{:+.1}pp", (a.precision() - p.precision()) * 100.0),
                y.rescued.to_string(),
                y.vetoed.to_string(),
            ]);
        }
        t
    };
    let (first, rerun) = (build(), build());
    assert_eq!(
        first.to_string(),
        rerun.to_string(),
        "E19: rerun must be byte-identical"
    );
    first
}

/// The soak scale E20 runs at: large enough that any per-request
/// accumulation in the open-loop driver would be unmissable, small
/// enough that the doubled (determinism) runs keep the harness fast.
const E20_REQUESTS: usize = 100_000;

/// E20 — soak-scale open loop: the §7 "NLIs must grow into
/// multi-user systems" challenge taken to its operational limit.
/// Five seeded load shapes (zipfian popularity skew, flash-crowd
/// bursts, long CoSQL-shaped sessions, a tenant-skewed mix, and a
/// schedule that deliberately outruns the overload watermark) each
/// stream 10⁵ requests through the open-loop driver, which folds
/// completions into a bounded [`nlidb_serve::SoakReport`] as they
/// drain. Every regime runs twice and the summaries — counters,
/// latency sketch percentiles, rolling signature digest — are
/// asserted byte-identical. The overload regime additionally proves
/// robustness, not collapse: episodes open under pressure and every
/// one closes at a drain; shedding targets learned-expensive repeats;
/// and an audited replay shows each *served* answer byte-identical to
/// an unloaded closed-loop oracle — overload changes which requests
/// get answered, never what an answer says.
pub fn e20_soak(seed: u64) -> Table {
    e20_soak_with(seed, E20_REQUESTS)
}

/// [`e20_soak`] at an explicit request count — the `--soak-requests`
/// knob of the `experiments` binary; CI smokes the regime at 10⁴.
pub fn e20_soak_with(seed: u64, requests: usize) -> Table {
    use crate::soak::{run_soak_shape, SOAK_SHAPES};

    let mut t = Table::new([
        "shape",
        "requests",
        "served",
        "shed",
        "p50",
        "p95",
        "p99",
        "served/ktick",
        "episodes",
        "repeat ==",
    ])
    .title("E20 — soak-scale open loop: throughput/latency trajectory & overload robustness");
    for shape in SOAK_SHAPES {
        let first = run_soak_shape(shape, seed, requests);
        let rerun = run_soak_shape(shape, seed, requests);
        assert_eq!(
            first.summary_line(),
            rerun.summary_line(),
            "E20 {shape}: soak rerun must be byte-identical"
        );
        let r = &first.report;
        let m = &first.metrics;
        assert_eq!(
            r.served() + r.refused + r.shed + r.deadline_exceeded,
            r.requests,
            "E20 {shape}: every request is accounted for"
        );
        if shape == "overload" {
            assert!(m.overload_entered > 0, "E20: pressure must open episodes");
            assert_eq!(
                m.overload_entered, m.overload_recovered,
                "E20: every overload episode must close at a drain"
            );
            assert!(m.shed_overload > 0, "E20: learned repeats must be shed");
            assert_eq!(r.shed, m.shed_overload, "E20: overload is the only shedder");
        } else {
            assert_eq!(r.shed, 0, "E20 {shape}: no shedding without pressure");
            assert_eq!(r.refused, 0, "E20 {shape}: no refusals in a clean regime");
        }
        if let Some((stored, sampled_out)) = first.spans {
            assert!(
                stored <= 64,
                "E20 {shape}: sampled sink must hold its bound, stored {stored}"
            );
            assert!(
                sampled_out > 0,
                "E20 {shape}: soak-scale tracing must actually sample"
            );
        }
        let p = |q: f64| {
            r.latency
                .percentile(q)
                .map_or("-".into(), |v| v.to_string())
        };
        t.row([
            shape.to_string(),
            r.requests.to_string(),
            r.served().to_string(),
            r.shed.to_string(),
            p(50.0),
            p(95.0),
            p(99.0),
            (r.served() * 1000 / r.ticks.max(1)).to_string(),
            m.overload_entered.to_string(),
            "yes".to_string(),
        ]);
    }
    // The fidelity audit: the overload regime's served subset is
    // answer-identical to the unloaded oracle, request by request.
    let (served, shed, n) = crate::soak::overload_prefix_audit(seed, requests);
    t.row([
        "overload audit".to_string(),
        n.to_string(),
        served.to_string(),
        shed.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "≡ oracle".to_string(),
    ]);
    t
}

/// The health configuration every E21 regime runs under: 4-tick
/// windows in the hub's fixed 64-window ring (no regime outruns it, so
/// eviction is zero and retained sums must equal totals outright), its
/// fixed 99.0% availability and 95.0% / 8-tick latency objectives,
/// burn over its 2-window short span and a 4-window long span, firing
/// at 300 milli.
/// The fire threshold is sized to the faulted regime's arithmetic
/// floor: one refusal anywhere in the 4-window long span (at most
/// 256 completions) yields ⌊1000/256⌋ = 3 milli of bad share, i.e. a
/// burn of 300 against the 10-milli budget — so a single refusal is
/// guaranteed to fire, at any seed.
fn e21_health_config() -> nlidb_serve::HealthConfig {
    nlidb_serve::HealthConfig {
        window_ticks: 4,
        long_windows: 4,
        fire_burn_milli: 300,
    }
}

/// What one E21 regime pass produced: the cumulative counters it must
/// reconcile against, the hub renderings it must replay byte-for-byte,
/// and the table row ingredients.
struct E21Pass {
    metrics: nlidb_serve::MetricsSnapshot,
    /// `HealthHub::render_all()` — window matrix + event log.
    health_render: String,
    /// JSONL export of the *health* traces only (ids ≥
    /// [`nlidb_obs::HEALTH_TRACE_BASE`]). Health traces are stamped at
    /// drain ticks by the single-threaded submitter, so they replay
    /// byte-identically even under the open loop, where request span
    /// ticks depend on when a worker reads the advancing clock (which
    /// is why E20 bounds the sink but never byte-compares it — only
    /// the closed loop's request traces are byte-stable, E14's claim).
    health_jsonl: String,
    /// The trace sink's full JSONL export (requests + health traces);
    /// byte-compared only for the closed-loop faulted regime.
    trace_jsonl: String,
    /// Per-window merged series (throughput / p99 / burn).
    windows: Vec<nlidb_serve::WindowSample>,
    /// (fired, cleared) health-event counts.
    events: (u64, u64),
    obs: nlidb_serve::ServeObs,
}

impl E21Pass {
    fn capture(obs: nlidb_serve::ServeObs, metrics: nlidb_serve::MetricsSnapshot) -> E21Pass {
        let hub = obs.health.clone().expect("E21 runs with a health hub");
        let mut fired = 0;
        let mut cleared = 0;
        for (_, event) in hub.events() {
            match event.kind {
                nlidb_obs::HealthEventKind::Fired => fired += 1,
                nlidb_obs::HealthEventKind::Cleared => cleared += 1,
            }
        }
        let health_jsonl: String = obs
            .sink
            .traces()
            .iter()
            .filter(|t| t.id >= nlidb_obs::HEALTH_TRACE_BASE)
            .map(|t| format!("{}\n", t.to_json()))
            .collect();
        E21Pass {
            metrics,
            health_render: hub.render_all(),
            health_jsonl,
            trace_jsonl: obs.sink.export_jsonl(),
            windows: hub.window_series(),
            events: (fired, cleared),
            obs,
        }
    }

    /// The acceptance invariant: per-window sums reconcile *exactly*
    /// with the cumulative serve counters — for every series,
    /// retained window deltas + evicted spill == the windowed total
    /// == the atomic counter the server kept independently.
    fn reconcile(&self, label: &str) {
        let hub = self.obs.health.clone().expect("hub");
        let scope = hub
            .scope_snapshot("default")
            .expect("single-tenant regimes feed the `default` scope");
        let m = &self.metrics;
        let expect = [
            ("answered", m.answered),
            ("session", m.session_turns),
            ("degraded", m.degraded),
            ("refused", m.refused),
            ("shed", m.shed_full + m.shed_overload),
            ("deadline", m.shed_deadline),
        ];
        for (name, want) in expect {
            let counter = scope.counter_ref(name);
            let total = counter.map_or(0, |c| c.total());
            assert_eq!(
                total, want,
                "E21 {label}: windowed `{name}` total must equal the cumulative counter"
            );
            if let Some(c) = counter {
                assert_eq!(
                    c.retained_sum() + c.evicted(),
                    c.total(),
                    "E21 {label}: `{name}` ring must account for every recorded unit"
                );
            }
        }
        let served = m.answered + m.session_turns + m.degraded;
        let sojourn = scope.histogram_ref("sojourn");
        assert_eq!(
            sojourn.map_or(0, |h| h.total_count()),
            served,
            "E21 {label}: every served completion records exactly one sojourn"
        );
        if let Some(h) = sojourn {
            assert_eq!(
                h.retained_count() + h.evicted_count(),
                h.total_count(),
                "E21 {label}: sojourn ring must account for every sample"
            );
        }
        let from_windows: u64 = self.windows.iter().map(|w| w.served).sum();
        assert_eq!(
            from_windows, served,
            "E21 {label}: the merged window series must sum to the served count"
        );
    }

    fn burn_max(&self) -> u64 {
        self.windows.iter().map(|w| w.burn_milli).max().unwrap_or(0)
    }
}

/// The E21 clean regime: the zipfian open loop (arrivals decoupled
/// from drains, sojourns 1–4 ticks) with zero refusals and zero
/// sheds — burn must stay at exactly 0 and no health event may fire.
fn e21_clean_run(seed: u64) -> (E21Pass, u64) {
    use nlidb_serve::{run_open_loop, OpenLoopConfig, ServeObs};
    const N: usize = 2000;
    let obs = ServeObs::with_health(N + 64, 1, e21_health_config());
    let (mut server, clock) = crate::soak::retail_server(seed, None, Some(obs.clone()));
    let stream = nlidb_benchdata::zipfian_stream(crate::soak::retail_pool(seed), seed, N, 1.2);
    let report = run_open_loop(
        &mut server,
        &clock,
        stream,
        OpenLoopConfig {
            arrivals_per_tick: 8,
            drain_every: 4,
        },
    );
    let metrics = server.shutdown();
    assert_eq!(report.requests, N as u64, "E21 clean: stream fully drained");
    (E21Pass::capture(obs, metrics), N as u64)
}

/// The E21 faulted regime: E13's seeded retail stream, submitted
/// *twice* (640 requests, ids 0–639), with `Fatal { depth: 4 }` —
/// ladder exhaustion, so a refusal — pinned on a dense window of
/// clean-run-fresh ids in the first copy. The refusal burst drives
/// availability burn over the fire threshold; the second, fault-free
/// copy starves the short window back to zero, so the engine must
/// fire *and* clear within the run, at any seed.
fn e21_faulted_run(seed: u64) -> (E21Pass, u64) {
    use nlidb_benchdata::{FaultKind, FaultPlan};
    use nlidb_serve::ServeObs;
    const N: usize = 320;

    // The clean pass pins the fault window on ids that actually reach
    // the hook (fresh singles) — the same freshness-transfer argument
    // E13 documents: faults only ever prevent caching, so a clean-run
    // fresh single stays fresh under faults.
    let fresh = fresh_answers(&retail_serve_run(seed, N, 1, FaultPlan::none(), None).0);
    assert!(
        fresh.len() >= 12,
        "E21 needs a dozen fresh singles to pin the outage on ({} found)",
        fresh.len()
    );
    let mut plan = FaultPlan::none();
    for id in fresh[0]..=fresh[11] {
        plan = plan.with(id, FaultKind::Fatal { depth: 4 });
    }

    let obs = ServeObs::with_health(2 * N + 64, 1, e21_health_config());
    let (report, metrics) = retail_serve_run(seed, N, 2, plan, Some(obs.clone()));
    assert_eq!(report.completions.len(), 2 * N, "E21 faulted: all drained");
    (E21Pass::capture(obs, metrics), 2 * N as u64)
}

/// The E21 overload regime: the E20 overload schedule with the
/// opt-in `early_warning` knob set — once the first shedding drain
/// pushes short-window availability burn past the threshold, every
/// later episode opens *below* the high watermark. Runs through the
/// signature audit, so every request the early-warning server still
/// serves is asserted answer-identical to the unloaded oracle.
fn e21_overload_run(seed: u64) -> (E21Pass, u64, u64) {
    use nlidb_serve::{OverloadPolicy, ServeObs};
    const N: usize = 2000;
    let obs = ServeObs::with_health(N + 64, 1, e21_health_config());
    let policy = OverloadPolicy {
        early_warning: Some(10_000),
        ..crate::soak::OVERLOAD_POLICY
    };
    let (served, shed, n, metrics) =
        crate::soak::overload_audit_observed(seed, N, policy, Some(obs.clone()));
    assert_eq!(served + shed, n, "E21 overload: audit accounts for all");
    assert!(
        metrics.overload_entered_early > 0,
        "E21: the burn signal must open episodes below the watermark"
    );
    assert!(
        metrics.overload_entered_early <= metrics.overload_entered,
        "E21: early openings are a subset of all openings"
    );
    assert_eq!(
        metrics.overload_entered, metrics.overload_recovered,
        "E21: every episode (early or not) must close at a drain"
    );
    (E21Pass::capture(obs, metrics), N as u64, shed as u64)
}

/// E21 — windowed telemetry & the deterministic SLO engine: §6's
/// "operate it, don't just answer" challenge made a replayable
/// property. Every drained completion lands in per-tenant fixed-width
/// logical-tick windows; an [`nlidb_obs::SloEngine`] computes rolling
/// error-budget burn over a short/long window pair and emits
/// fire/clear [`nlidb_obs::HealthEvent`]s into the same trace sink as
/// the requests. Three regimes (clean, faulted, overload with
/// `early_warning`) each run twice: window sums must reconcile
/// exactly with the cumulative serve counters, the health log, window
/// matrix, and full trace export must replay byte-identically, and
/// the early-warning controller must shed no request the unloaded
/// oracle answers differently.
pub fn e21_windowed_slo(seed: u64) -> Table {
    let mut t = Table::new([
        "regime",
        "requests",
        "served",
        "bad",
        "windows",
        "burn max",
        "fired",
        "cleared",
        "early",
        "repeat ==",
    ])
    .title("E21 — windowed telemetry & deterministic SLO burn-rate health");

    type RegimeRunner = fn(u64) -> (E21Pass, u64);
    let regimes: [(&str, RegimeRunner); 3] = [
        ("clean", e21_clean_run),
        ("faulted", e21_faulted_run),
        ("overload+early", |s| {
            let (pass, n, _) = e21_overload_run(s);
            (pass, n)
        }),
    ];
    for (label, run) in regimes {
        let (first, requests) = run(seed);
        let (rerun, _) = run(seed);
        assert_eq!(
            first.health_render, rerun.health_render,
            "E21 {label}: window matrix + health log must replay byte-identically"
        );
        assert_eq!(
            first.health_jsonl, rerun.health_jsonl,
            "E21 {label}: health traces in the sink must replay byte-identically"
        );
        if label == "faulted" {
            // The closed loop never advances the clock while a worker
            // holds a request, so even the *request* span ticks are
            // byte-stable — the full sink export must replay.
            assert_eq!(
                first.trace_jsonl, rerun.trace_jsonl,
                "E21 {label}: the full trace export must replay byte-identically"
            );
        }
        first.reconcile(label);

        let m = &first.metrics;
        let served = m.answered + m.session_turns + m.degraded;
        let bad = m.refused + m.shed_full + m.shed_overload + m.shed_deadline;
        let (fired, cleared) = first.events;
        match label {
            "clean" => {
                assert_eq!(bad, 0, "E21 clean: nothing sheds or refuses");
                assert_eq!(first.burn_max(), 0, "E21 clean: burn stays at zero");
                assert_eq!((fired, cleared), (0, 0), "E21 clean: no health events");
            }
            "faulted" => {
                assert!(m.refused >= 12, "E21 faulted: the pinned window refuses");
                assert!(fired >= 1, "E21 faulted: the refusal burst must fire");
                assert!(cleared >= 1, "E21 faulted: the clean tail must clear");
                let hub = first.obs.health.clone().expect("hub");
                assert!(
                    !hub.is_firing("default", "availability"),
                    "E21 faulted: availability must end the run healthy"
                );
            }
            "overload+early" => {
                assert!(bad > 0, "E21 overload: the schedule must shed");
                assert!(fired >= 1, "E21 overload: sustained burn must fire");
            }
            _ => unreachable!(),
        }
        t.row([
            label.to_string(),
            requests.to_string(),
            served.to_string(),
            bad.to_string(),
            first.windows.len().to_string(),
            first.burn_max().to_string(),
            fired.to_string(),
            cleared.to_string(),
            m.overload_entered_early.to_string(),
            "yes".to_string(),
        ]);
    }
    t
}
