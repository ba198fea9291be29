//! The hybrid interpreter (QUEST / MEANS class).
//!
//! §4.3: hybrids "combine entity- and learning-based query
//! understanding in a multi-step strategy, using one of the two
//! approaches as a filtering mechanism". This implementation:
//!
//! 1. runs the entity-based interpreter (high precision, higher query
//!    complexity);
//! 2. runs the neural sketch model when one is trained (high recall
//!    under paraphrase);
//! 3. uses an HMM token tagger — QUEST's entity-choice machinery,
//!    trained on the same (question, SQL) pairs — to estimate how much
//!    of the question carries schema/value information, re-weighting
//!    the two families' confidences;
//! 4. ranks the merged pool: agreement between families boosts
//!    confidence; entity leads when confident, the neural model covers
//!    the paraphrase-heavy long tail.

use nlidb_ml::Hmm;
use nlidb_nlp::{porter_stem, tokenize, TokenKind};
use nlidb_sqlir::ast::{Expr, Literal, Query, SelectItem};

use crate::entity::EntityInterpreter;
use crate::interpretation::{rank, Interpretation, Interpreter, InterpreterKind};
use crate::linking::PreparedQuestion;
use crate::neural::{NeuralInterpreter, TrainingExample};
use crate::pipeline::SchemaContext;

/// Entity-confidence threshold above which the entity reading leads
/// outright.
const ENTITY_LEAD: f64 = 0.80;

/// HMM tag set.
const TAG_SKIP: usize = 0;
const TAG_SCHEMA: usize = 1;
const TAG_VALUE: usize = 2;
const TAG_NUMBER: usize = 3;
const N_TAGS: usize = 4;

/// QUEST-class hybrid interpreter.
pub struct HybridInterpreter {
    entity: EntityInterpreter,
    neural: Option<NeuralInterpreter>,
    hmm: Option<Hmm>,
}

impl Default for HybridInterpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridInterpreter {
    /// Untrained hybrid: entity-only until [`HybridInterpreter::train`]
    /// or [`HybridInterpreter::set_neural`] is called.
    pub fn new() -> HybridInterpreter {
        HybridInterpreter {
            entity: EntityInterpreter::new(),
            neural: None,
            hmm: None,
        }
    }

    /// Install an externally trained neural model.
    pub fn set_neural(&mut self, neural: NeuralInterpreter) {
        self.neural = Some(neural);
    }

    /// Train both learned components from (question, SQL) pairs.
    pub fn train(&mut self, examples: &[TrainingExample], ctx: &SchemaContext, seed: u64) {
        self.neural = Some(NeuralInterpreter::train(examples, ctx, seed));
        self.hmm = Some(train_tagger(examples));
    }

    /// Is a neural component loaded?
    pub fn has_neural(&self) -> bool {
        self.neural
            .as_ref()
            .map(|n| n.is_trained())
            .unwrap_or(false)
    }
}

/// Token-tag training data derived from gold SQL: a token is SCHEMA if
/// its stem occurs in a referenced table/column name, VALUE if it
/// occurs inside a string literal, NUMBER if numeric, else SKIP.
fn train_tagger(examples: &[TrainingExample]) -> Hmm {
    let mut sequences = Vec::with_capacity(examples.len());
    for ex in examples {
        let (schema_stems, value_words) = sql_vocabulary(&ex.sql);
        let seq: Vec<(String, usize)> = tokenize(&ex.question)
            .into_iter()
            .map(|t| {
                let tag = match t.kind {
                    TokenKind::Number => TAG_NUMBER,
                    TokenKind::Quoted => TAG_VALUE,
                    TokenKind::Punct => TAG_SKIP,
                    TokenKind::Word => {
                        let stem = porter_stem(&t.norm);
                        if schema_stems.contains(&stem) {
                            TAG_SCHEMA
                        } else if value_words.contains(&t.norm) {
                            TAG_VALUE
                        } else {
                            TAG_SKIP
                        }
                    }
                };
                (t.norm, tag)
            })
            .collect();
        if !seq.is_empty() {
            sequences.push(seq);
        }
    }
    Hmm::train_supervised(&sequences, N_TAGS)
}

/// Collect (stemmed schema words, lowercased value words) from a query.
fn sql_vocabulary(sql: &Query) -> (Vec<String>, Vec<String>) {
    let mut schema = Vec::new();
    let mut values = Vec::new();
    fn visit_expr(e: &Expr, schema: &mut Vec<String>, values: &mut Vec<String>) {
        match e {
            Expr::Column(c) => {
                for part in c.column.split('_') {
                    schema.push(porter_stem(&part.to_lowercase()));
                }
            }
            Expr::Literal(Literal::Str(s)) => {
                for w in s.split_whitespace() {
                    values.push(w.to_lowercase());
                }
            }
            Expr::Binary { left, right, .. } => {
                visit_expr(left, schema, values);
                visit_expr(right, schema, values);
            }
            Expr::Unary { expr, .. } => visit_expr(expr, schema, values),
            Expr::Agg { arg: Some(a), .. } => visit_expr(a, schema, values),
            Expr::Between {
                expr, low, high, ..
            } => {
                visit_expr(expr, schema, values);
                visit_expr(low, schema, values);
                visit_expr(high, schema, values);
            }
            Expr::InList { expr, list, .. } => {
                visit_expr(expr, schema, values);
                for i in list {
                    visit_expr(i, schema, values);
                }
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => visit_expr(expr, schema, values),
            Expr::InSubquery { expr, subquery, .. } => {
                visit_expr(expr, schema, values);
                let (s, v) = sql_vocabulary(subquery);
                schema.extend(s);
                values.extend(v);
            }
            Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
                let (s, v) = sql_vocabulary(subquery);
                schema.extend(s);
                values.extend(v);
            }
            _ => {}
        }
    }
    if let Some(nlidb_sqlir::ast::TableSource::Table { name, .. }) = &sql.from {
        for part in name.split('_') {
            schema.push(porter_stem(&part.to_lowercase()));
        }
    }
    for j in &sql.joins {
        if let nlidb_sqlir::ast::TableSource::Table { name, .. } = &j.source {
            for part in name.split('_') {
                schema.push(porter_stem(&part.to_lowercase()));
            }
        }
        visit_expr(&j.on, &mut schema, &mut values);
    }
    for s in &sql.select {
        if let SelectItem::Expr { expr, .. } = s {
            visit_expr(expr, &mut schema, &mut values);
        }
    }
    if let Some(w) = &sql.where_clause {
        visit_expr(w, &mut schema, &mut values);
    }
    for g in &sql.group_by {
        visit_expr(g, &mut schema, &mut values);
    }
    if let Some(h) = &sql.having {
        visit_expr(h, &mut schema, &mut values);
    }
    for o in &sql.order_by {
        visit_expr(&o.expr, &mut schema, &mut values);
    }
    (schema, values)
}

impl Interpreter for HybridInterpreter {
    fn kind(&self) -> InterpreterKind {
        InterpreterKind::Hybrid
    }

    fn interpret(&self, question: &PreparedQuestion, ctx: &SchemaContext) -> Vec<Interpretation> {
        let mut entity = self.entity.interpret(question, ctx);
        let mut neural = self
            .neural
            .as_ref()
            .map(|n| n.interpret(question, ctx))
            .unwrap_or_default();

        // HMM informativeness: fraction of tokens tagged non-skip; a
        // question the tagger finds informative but the entity linker
        // produced nothing for is a paraphrase-gap case → lean neural.
        if let Some(hmm) = &self.hmm {
            let norms: Vec<&str> = question.tokens.iter().map(|t| t.norm.as_str()).collect();
            let (path, _) = hmm.viterbi(&norms);
            let informative =
                path.iter().filter(|&&s| s != TAG_SKIP).count() as f64 / path.len().max(1) as f64;
            let conf = hmm.path_confidence(&norms, &path);
            for i in &mut neural {
                i.confidence = (i.confidence * (0.8 + 0.4 * informative * (0.5 + conf))).min(1.0);
            }
        }

        // Agreement boost: identical SQL from both families.
        for e in &mut entity {
            if neural.iter().any(|n| n.sql == e.sql) {
                e.confidence = (e.confidence + 0.1).min(1.0);
                e.explanation.push("neural model agrees".to_string());
            }
        }

        // Cascade: confident entity leads; otherwise neural fills in.
        // Complexity routing: when the entity reading needs joins,
        // grouping, or nesting, it is outside the neural sketch's
        // reach entirely — a single-table neural reading cannot be
        // right, so the entity keeps the lead regardless of
        // confidence (§4.3's "filtering mechanism").
        let neural_top = neural.first().map(|n| n.confidence).unwrap_or(0.0);
        let entity_leads = entity
            .first()
            .map(|e| {
                e.confidence >= ENTITY_LEAD
                    || e.confidence >= neural_top
                    || !e.sql.joins.is_empty()
                    || e.sql.has_subquery()
                    || !e.sql.group_by.is_empty()
                    || !e.sql.order_by.is_empty()
            })
            .unwrap_or(false);
        let mut pool: Vec<Interpretation> = Vec::new();
        // The cascade is decisive: followers are capped strictly below
        // the leader's top confidence so ranking cannot re-promote them.
        let cap = |leader_top: f64| (leader_top - 0.01).max(0.0);
        if entity_leads {
            let top = entity.first().map(|e| e.confidence).unwrap_or(0.0);
            pool.extend(entity);
            pool.extend(neural.into_iter().map(|mut n| {
                n.confidence = (n.confidence * 0.9).min(cap(top));
                n
            }));
        } else {
            let top = neural.first().map(|n| n.confidence).unwrap_or(0.0);
            pool.extend(neural);
            pool.extend(entity.into_iter().map(|mut e| {
                e.confidence = (e.confidence * 0.9).min(cap(top));
                e
            }));
        }
        let mut out = Vec::with_capacity(pool.len());
        let mut seen = std::collections::HashSet::new();
        for mut i in pool {
            let key = i.sql.to_string();
            if seen.insert(key) {
                i.source = InterpreterKind::Hybrid;
                out.push(i);
            }
        }
        rank(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};
    use nlidb_sqlir::parse_query;

    fn ctx() -> SchemaContext {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("products")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("category", ColumnType::Text)
                .column("price", ColumnType::Float)
                .primary_key("id"),
        )
        .unwrap();
        for (id, n, c, p) in [(1, "Anvil", "tools", 10.0), (2, "Piano", "music", 500.0)] {
            db.insert(
                "products",
                vec![
                    Value::Int(id),
                    Value::from(n),
                    Value::from(c),
                    Value::Float(p),
                ],
            )
            .unwrap();
        }
        SchemaContext::build(&db)
    }

    fn training() -> Vec<TrainingExample> {
        [
            ("show all products", "SELECT * FROM products"),
            ("how many products", "SELECT COUNT(*) FROM products"),
            ("count the products", "SELECT COUNT(*) FROM products"),
            (
                "products in tools",
                "SELECT * FROM products WHERE category = 'tools'",
            ),
            (
                "average price of products",
                "SELECT AVG(price) FROM products",
            ),
        ]
        .iter()
        .map(|(q, s)| TrainingExample {
            question: q.to_string(),
            sql: parse_query(s).unwrap(),
        })
        .collect()
    }

    #[test]
    fn candidate_sets_are_retagged_hybrid_with_contiguous_ranks() {
        let ctx = ctx();
        let mut h = HybridInterpreter::new();
        h.train(&training(), &ctx, 7);
        let q = PreparedQuestion::new("products in tools", &ctx);
        let set = crate::candidates::gather(&h, &q, &ctx, 5);
        assert_eq!(set.family, InterpreterKind::Hybrid);
        assert!(!set.is_empty());
        for (i, c) in set.candidates.iter().enumerate() {
            assert_eq!(c.rank, i, "ranks mirror the merged pool order");
            assert_eq!(c.interpretation.source, InterpreterKind::Hybrid);
        }
        // The merged pool grounds the value mention like its entity
        // parent would.
        assert!(
            set.top()
                .unwrap()
                .provenance
                .iter()
                .any(|g| g.target == "value:products.category=tools"),
            "{:?}",
            set.top().unwrap().provenance
        );
    }

    #[test]
    fn entity_only_when_untrained() {
        let ctx = ctx();
        let h = HybridInterpreter::new();
        assert!(!h.has_neural());
        let i = h.best("products in tools", &ctx).unwrap();
        assert_eq!(i.source, InterpreterKind::Hybrid);
        assert_eq!(
            i.sql.to_string(),
            "SELECT * FROM products WHERE category = 'tools'"
        );
    }

    #[test]
    fn trained_hybrid_covers_entity_gap() {
        let ctx = ctx();
        let mut h = HybridInterpreter::new();
        h.train(&training(), &ctx, 11);
        assert!(h.has_neural());
        // "how many products" — both families can answer; merged pool
        // must contain the COUNT reading exactly once.
        let out = h.interpret(&PreparedQuestion::new("how many products", &ctx), &ctx);
        let count_readings: Vec<_> = out
            .iter()
            .filter(|i| i.sql.to_string() == "SELECT COUNT(*) FROM products")
            .collect();
        assert_eq!(count_readings.len(), 1, "dedup failed: {out:?}");
    }

    #[test]
    fn agreement_boosts_confidence() {
        let ctx = ctx();
        let mut h = HybridInterpreter::new();
        h.train(&training(), &ctx, 11);
        let hybrid_conf = h.best("products in tools", &ctx).unwrap().confidence;
        let entity_conf = EntityInterpreter::new()
            .best("products in tools", &ctx)
            .unwrap()
            .confidence;
        assert!(
            hybrid_conf >= entity_conf,
            "agreement should not lower confidence ({hybrid_conf} vs {entity_conf})"
        );
    }

    #[test]
    fn all_outputs_tagged_hybrid() {
        let ctx = ctx();
        let mut h = HybridInterpreter::new();
        h.train(&training(), &ctx, 11);
        let q = PreparedQuestion::new("average price of products", &ctx);
        for i in h.interpret(&q, &ctx) {
            assert_eq!(i.source, InterpreterKind::Hybrid);
        }
    }

    #[test]
    fn sql_vocabulary_extraction() {
        let q =
            parse_query("SELECT name FROM products WHERE category = 'hand tools' AND price > 5")
                .unwrap();
        let (schema, values) = sql_vocabulary(&q);
        assert!(schema.contains(&porter_stem("products")));
        assert!(schema.contains(&porter_stem("category")));
        assert!(values.contains(&"hand".to_string()));
        assert!(values.contains(&"tools".to_string()));
    }
}
