//! The hybrid interpreter (QUEST / MEANS class).
//!
//! §4.3: hybrids "combine entity- and learning-based query
//! understanding in a multi-step strategy, using one of the two
//! approaches as a filtering mechanism". This implementation:
//!
//! 1. runs the entity-based interpreter (high precision, higher query
//!    complexity);
//! 2. runs the neural sketch model when one is installed (high recall
//!    under paraphrase);
//! 3. ranks the merged pool: agreement between families boosts
//!    confidence; entity leads when confident, the neural model covers
//!    the paraphrase-heavy long tail.
//!
//! Both halves read the same [`PreparedQuestion`]: its tokens and
//! linked mentions. QUEST chooses entities with an HMM; here the
//! entity half's linker makes that choice, and the cascade below is
//! the only combination step.

use crate::entity::EntityInterpreter;
use crate::interpretation::{rank, Interpretation, Interpreter, InterpreterKind};
use crate::linking::PreparedQuestion;
use crate::neural::NeuralInterpreter;
use crate::pipeline::SchemaContext;

/// Entity-confidence threshold above which the entity reading leads
/// outright.
const ENTITY_LEAD: f64 = 0.80;

/// QUEST-class hybrid interpreter.
pub struct HybridInterpreter {
    entity: EntityInterpreter,
    neural: Option<NeuralInterpreter>,
}

impl Default for HybridInterpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridInterpreter {
    /// Untrained hybrid: entity-only until
    /// [`HybridInterpreter::set_neural`] is called.
    pub fn new() -> HybridInterpreter {
        HybridInterpreter {
            entity: EntityInterpreter::new(),
            neural: None,
        }
    }

    /// Install an externally trained neural model.
    pub fn set_neural(&mut self, neural: NeuralInterpreter) {
        self.neural = Some(neural);
    }
}

impl Interpreter for HybridInterpreter {
    fn kind(&self) -> InterpreterKind {
        InterpreterKind::Hybrid
    }

    fn interpret(&self, question: &PreparedQuestion, ctx: &SchemaContext) -> Vec<Interpretation> {
        let mut entity = self.entity.interpret(question, ctx);
        let neural = self
            .neural
            .as_ref()
            .map(|n| n.interpret(question, ctx))
            .unwrap_or_default();

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
    use crate::neural::TrainingExample;
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

    /// A hybrid whose neural half is trained on [`training`].
    fn trained(ctx: &SchemaContext, seed: u64) -> HybridInterpreter {
        let neural = NeuralInterpreter::train(&training(), ctx, seed);
        assert!(neural.is_trained());
        let mut h = HybridInterpreter::new();
        h.set_neural(neural);
        h
    }

    #[test]
    fn candidate_sets_are_retagged_hybrid_with_contiguous_ranks() {
        let ctx = ctx();
        let h = trained(&ctx, 7);
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
        let h = trained(&ctx, 11);
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
        let h = trained(&ctx, 11);
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
        let h = trained(&ctx, 11);
        let q = PreparedQuestion::new("average price of products", &ctx);
        for i in h.interpret(&q, &ctx) {
            assert_eq!(i.source, InterpreterKind::Hybrid);
        }
    }
}
