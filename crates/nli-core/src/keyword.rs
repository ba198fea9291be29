//! The keyword-lookup interpreter (SODA / Précis / QUICK class).
//!
//! §3: early systems "only consider each individual word for a
//! possible match in meta data or data instances. Such systems can
//! only handle simple filter queries but cannot detect other clauses
//! like GROUP BY and ORDER BY." The implementation is the shared
//! entity core with the selection-only capability mask: index lookups
//! and equality filters, nothing else.

use crate::entity::{interpret_with, Capabilities};
use crate::interpretation::{Interpretation, Interpreter, InterpreterKind};
use crate::linking::PreparedQuestion;
use crate::pipeline::SchemaContext;

/// SODA-class keyword interpreter.
#[derive(Debug, Default)]
pub struct KeywordInterpreter;

impl KeywordInterpreter {
    /// Construct.
    pub fn new() -> KeywordInterpreter {
        KeywordInterpreter
    }
}

impl Interpreter for KeywordInterpreter {
    fn kind(&self) -> InterpreterKind {
        InterpreterKind::Keyword
    }

    fn interpret(&self, question: &PreparedQuestion, ctx: &SchemaContext) -> Vec<Interpretation> {
        interpret_with(question, ctx, Capabilities::of(self.kind()), self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};
    use nlidb_sqlir::{classify, ComplexityClass};

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
        for (id, n, c, p) in [
            (1, "Anvil", "tools", 10.0),
            (2, "Rope", "tools", 5.0),
            (3, "Piano", "music", 500.0),
        ] {
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

    #[test]
    fn candidate_sets_carry_provenance_within_the_capability_ceiling() {
        let ctx = ctx();
        let q = PreparedQuestion::new("products in tools", &ctx);
        let set = crate::candidates::gather(&KeywordInterpreter::new(), &q, &ctx, 5);
        assert_eq!(set.family, InterpreterKind::Keyword);
        assert!(!set.is_empty());
        let top = set.top().unwrap();
        assert!(
            top.provenance
                .iter()
                .any(|g| g.target == "concept:products"),
            "{:?}",
            top.provenance
        );
        assert!(
            top.provenance
                .iter()
                .any(|g| g.target == "value:products.category=tools"),
            "{:?}",
            top.provenance
        );
        // The selection-only ceiling holds for every candidate, not
        // just the best one.
        for c in &set.candidates {
            assert!(!c.interpretation.sql.has_aggregation());
            assert!(!c.interpretation.sql.has_subquery());
        }
    }

    #[test]
    fn simple_filter_works() {
        let ctx = ctx();
        let i = KeywordInterpreter::new()
            .best("products in tools", &ctx)
            .unwrap();
        assert_eq!(
            i.sql.to_string(),
            "SELECT * FROM products WHERE category = 'tools'"
        );
        assert_eq!(classify(&i.sql), ComplexityClass::SingleTableSelection);
    }

    #[test]
    fn aggregation_out_of_scope() {
        let ctx = ctx();
        assert!(
            KeywordInterpreter::new()
                .best("total price by category", &ctx)
                .is_none(),
            "keyword systems cannot detect GROUP BY"
        );
    }

    #[test]
    fn ordering_out_of_scope() {
        let ctx = ctx();
        assert!(KeywordInterpreter::new()
            .best("top 3 products by price", &ctx)
            .is_none());
    }

    #[test]
    fn never_emits_beyond_selection() {
        let ctx = ctx();
        let questions = [
            "products in music",
            "piano",
            "products named Anvil",
            "show products",
        ];
        for q in questions {
            for i in KeywordInterpreter::new().interpret(&PreparedQuestion::new(q, &ctx), &ctx) {
                assert_eq!(
                    classify(&i.sql),
                    ComplexityClass::SingleTableSelection,
                    "keyword produced {:?} for {q}",
                    i.sql.to_string()
                );
            }
        }
    }
}
