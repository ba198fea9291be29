//! The survey's load-bearing claims as assertions — a fast, reduced
//! version of the E1/E2/E8 experiments that guards the reproduction's
//! qualitative shape in CI.

use nlidb::benchdata::{derive_slots, paraphrase, spider_like, wikisql_like};
use nlidb::core::interpretation::InterpreterKind;
use nlidb::core::neural::TrainingExample;
use nlidb::evalkit::{execution_match, EvalOutcome};
use nlidb::nlp::Lexicon;
use nlidb::prelude::*;

fn accuracy(
    nli: &NliPipeline,
    db: &nlidb::engine::Database,
    kind: InterpreterKind,
    suite: &[nlidb::benchdata::QaPair],
) -> f64 {
    let mut out = EvalOutcome::default();
    for pair in suite {
        match nli.interpreter(kind).best(&pair.question, nli.context()) {
            Some(p) => out.record(true, execution_match(db, &pair.sql, &p.sql)),
            None => out.record(false, false),
        }
    }
    out.recall()
}

fn trained_pipeline(db: &nlidb::engine::Database) -> NliPipeline {
    let slots = derive_slots(db);
    let lexicon = Lexicon::business_default();
    let train: Vec<TrainingExample> = wikisql_like(&slots, 100, 160)
        .into_iter()
        .enumerate()
        .map(|(i, p)| TrainingExample {
            question: paraphrase(&p.question, &p.protected, (i % 4) as u8, &lexicon, i as u64),
            sql: p.sql,
        })
        .collect();
    let mut nli = NliPipeline::standard(db);
    nli.train_neural(&train, 3);
    nli
}

/// §3: the capability matrix's qualitative shape.
#[test]
fn claim_capability_ladder() {
    let db = nlidb::benchdata::retail_database(42);
    let slots = derive_slots(&db);
    let nli = trained_pipeline(&db);
    let suite = spider_like(&slots, 17, 48);
    let per = |kind, class: ComplexityClass| {
        let s: Vec<_> = suite.iter().filter(|p| p.class == class).cloned().collect();
        accuracy(&nli, &db, kind, &s)
    };
    use ComplexityClass::*;
    // Keyword: selection only.
    assert!(per(InterpreterKind::Keyword, SingleTableSelection) > 0.8);
    assert_eq!(per(InterpreterKind::Keyword, SingleTableAggregation), 0.0);
    assert_eq!(per(InterpreterKind::Keyword, MultiTableJoin), 0.0);
    // Pattern: + aggregation, still no joins.
    assert!(per(InterpreterKind::Pattern, SingleTableAggregation) > 0.8);
    assert_eq!(per(InterpreterKind::Pattern, MultiTableJoin), 0.0);
    // Entity: the whole ladder.
    assert!(per(InterpreterKind::Entity, MultiTableJoin) > 0.8);
    assert!(per(InterpreterKind::Entity, NestedSubquery) > 0.8);
    // Neural: competitive on the Spider-like selection rung only where
    // the WikiSQL sketch can express the query (the rung also contains
    // BETWEEN / IN-list / date-range templates the sketch cannot emit),
    // zero on joins/nesting.
    assert!(per(InterpreterKind::Neural, SingleTableSelection) > 0.3);
    assert_eq!(per(InterpreterKind::Neural, MultiTableJoin), 0.0);
    // Nested accuracy may be nonzero by luck (a semi-join gold whose
    // answer happens to equal SELECT *), never by capability.
    assert!(per(InterpreterKind::Neural, NestedSubquery) < 0.2);
    // On its home regime (WikiSQL-like suites) it is strong.
    let home = wikisql_like(&slots, 19, 40);
    assert!(
        accuracy(&nli, &db, InterpreterKind::Neural, &home) > 0.6,
        "neural must be strong in the WikiSQL regime"
    );
}

/// §4.1 vs §4.2: under heavy paraphrase, the learned model outperforms
/// the entity-based reading; both degrade from canonical phrasing.
#[test]
fn claim_paraphrase_brittleness() {
    let lexicon = Lexicon::business_default();
    let mut entity_l0 = 0.0;
    let mut entity_l3 = 0.0;
    let mut neural_l3 = 0.0;
    let mut n_domains = 0.0;
    for (d, db) in [
        nlidb::benchdata::retail_database(42),
        nlidb::benchdata::hr_database(43),
        nlidb::benchdata::library_database(44),
    ]
    .iter()
    .enumerate()
    {
        let slots = derive_slots(db);
        let nli = trained_pipeline(db);
        let base = wikisql_like(&slots, 21 + d as u64, 40);
        let at_level = |level: u8| -> Vec<nlidb::benchdata::QaPair> {
            base.iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut q = p.clone();
                    q.question =
                        paraphrase(&p.question, &p.protected, level, &lexicon, 7 + i as u64);
                    q
                })
                .collect()
        };
        entity_l0 += accuracy(&nli, db, InterpreterKind::Entity, &at_level(0));
        entity_l3 += accuracy(&nli, db, InterpreterKind::Entity, &at_level(3));
        neural_l3 += accuracy(&nli, db, InterpreterKind::Neural, &at_level(3));
        n_domains += 1.0;
    }
    let (entity_l0, entity_l3, neural_l3) = (
        entity_l0 / n_domains,
        entity_l3 / n_domains,
        neural_l3 / n_domains,
    );
    assert!(
        entity_l0 - entity_l3 > 0.1,
        "paraphrase must hurt the entity reading ({entity_l0:.2} → {entity_l3:.2})"
    );
    assert!(
        neural_l3 > entity_l3,
        "the learned model must hold up better under heavy paraphrase \
         (neural {neural_l3:.2} vs entity {entity_l3:.2})"
    );
}

/// §4, operationalized by the serving layer's degradation ladder: an
/// answer served by a fallback family can never exceed that family's
/// capability ceiling. Whatever question is asked, every family below
/// the hybrid on the ladder answers only inside its `Capabilities`
/// mask — degradation trades coverage for availability, never widens
/// capability.
#[test]
fn claim_degraded_answers_respect_capability_ceilings() {
    use nlidb::core::entity::Capabilities;
    use nlidb::core::fallback::DEGRADATION_LADDER;

    let db = nlidb::benchdata::retail_database(42);
    let slots = derive_slots(&db);
    let nli = trained_pipeline(&db);
    let suite = spider_like(&slots, 31, 48);
    let mut served = 0;
    for pair in &suite {
        for &kind in &DEGRADATION_LADDER[1..] {
            if let Ok(answer) = nli.ask_bounded(&pair.question, kind, None) {
                served += 1;
                let class = classify(&answer.query);
                assert!(
                    Capabilities::of(kind).permits(class),
                    "{kind:?} served {class:?} beyond its ceiling for {:?}",
                    pair.question
                );
            }
        }
    }
    assert!(
        served > 20,
        "the fallback families must actually serve ({served})"
    );
}

/// §6: nested-query detection — the neural family never detects
/// nesting; the entity family does.
#[test]
fn claim_nested_detection() {
    let db = nlidb::benchdata::retail_database(42);
    let slots = derive_slots(&db);
    let nli = trained_pipeline(&db);
    let suite = spider_like(&slots, 29, 48);
    let mut entity_tp = 0;
    let mut gold_nested = 0;
    for pair in &suite {
        let is_nested = pair.class == ComplexityClass::NestedSubquery;
        gold_nested += usize::from(is_nested);
        for kind in [InterpreterKind::Entity, InterpreterKind::Neural] {
            if let Some(p) = nli.interpreter(kind).best(&pair.question, nli.context()) {
                let predicted = p.sql.has_subquery();
                if kind == InterpreterKind::Neural {
                    assert!(!predicted, "the sketch family cannot emit sub-queries");
                } else if is_nested && predicted {
                    entity_tp += 1;
                }
            }
        }
    }
    assert!(gold_nested > 0);
    assert!(
        entity_tp as f64 / gold_nested as f64 > 0.8,
        "entity must detect most nesting ({entity_tp}/{gold_nested})"
    );
}
