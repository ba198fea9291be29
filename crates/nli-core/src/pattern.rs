//! The pattern-based interpreter (SQAK class).
//!
//! §3: "simple natural language patterns like 'by', 'total/average'
//! enable such systems to detect GROUP BY and aggregation,
//! respectively" — but "they are limited to those fixed patterns" and
//! stay on a single table. Implementation: the shared entity core with
//! the single-table-patterns capability mask.

use crate::entity::{interpret_with, Capabilities};
use crate::interpretation::{Interpretation, Interpreter, InterpreterKind};
use crate::linking::PreparedQuestion;
use crate::pipeline::SchemaContext;

/// SQAK-class pattern interpreter.
#[derive(Debug, Default)]
pub struct PatternInterpreter;

impl PatternInterpreter {
    /// Construct.
    pub fn new() -> PatternInterpreter {
        PatternInterpreter
    }
}

impl Interpreter for PatternInterpreter {
    fn kind(&self) -> InterpreterKind {
        InterpreterKind::Pattern
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
            TableSchema::new("sales")
                .column("id", ColumnType::Int)
                .column("region", ColumnType::Text)
                .column("revenue", ColumnType::Float)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("stores")
                .column("id", ColumnType::Int)
                .column("sale_id", ColumnType::Int)
                .primary_key("id")
                .foreign_key("sale_id", "sales", "id"),
        )
        .unwrap();
        for (id, r, v) in [(1, "west", 10.0), (2, "east", 20.0), (3, "west", 30.0)] {
            db.insert(
                "sales",
                vec![Value::Int(id), Value::from(r), Value::Float(v)],
            )
            .unwrap();
        }
        SchemaContext::build(&db)
    }

    #[test]
    fn candidate_sets_ground_aggregation_columns() {
        let ctx = ctx();
        let q = PreparedQuestion::new("total revenue by region", &ctx);
        let set = crate::candidates::gather(&PatternInterpreter::new(), &q, &ctx, 5);
        assert_eq!(set.family, InterpreterKind::Pattern);
        let top = set.top().unwrap();
        assert_eq!(top.rank, 0);
        assert!(
            top.provenance
                .iter()
                .any(|g| g.target == "column:sales.revenue"),
            "{:?}",
            top.provenance
        );
        assert!(
            top.provenance
                .iter()
                .any(|g| g.target == "column:sales.region"),
            "{:?}",
            top.provenance
        );
    }

    #[test]
    fn total_by_pattern() {
        let ctx = ctx();
        let i = PatternInterpreter::new()
            .best("total revenue by region", &ctx)
            .unwrap();
        assert_eq!(
            i.sql.to_string(),
            "SELECT region, SUM(revenue) FROM sales GROUP BY region"
        );
        assert_eq!(classify(&i.sql), ComplexityClass::SingleTableAggregation);
    }

    #[test]
    fn average_pattern() {
        let ctx = ctx();
        let i = PatternInterpreter::new()
            .best("average revenue of sales", &ctx)
            .unwrap();
        assert_eq!(i.sql.to_string(), "SELECT AVG(revenue) FROM sales");
    }

    #[test]
    fn count_per_pattern() {
        let ctx = ctx();
        let i = PatternInterpreter::new()
            .best("count of sales per region", &ctx)
            .unwrap();
        assert_eq!(
            i.sql.to_string(),
            "SELECT region, COUNT(*) FROM sales GROUP BY region"
        );
    }

    #[test]
    fn top_n_pattern() {
        let ctx = ctx();
        let i = PatternInterpreter::new()
            .best("top 2 sales by revenue", &ctx)
            .unwrap();
        assert!(i.sql.to_string().ends_with("ORDER BY revenue DESC LIMIT 2"));
    }

    #[test]
    fn selection_still_works() {
        let ctx = ctx();
        let i = PatternInterpreter::new()
            .best("sales in west", &ctx)
            .unwrap();
        assert_eq!(
            i.sql.to_string(),
            "SELECT * FROM sales WHERE region = 'west'"
        );
    }

    #[test]
    fn joins_out_of_scope() {
        let ctx = ctx();
        let q = PreparedQuestion::new("revenue of sales with stores", &ctx);
        for i in PatternInterpreter::new().interpret(&q, &ctx) {
            assert!(i.sql.joins.is_empty());
            assert!(!i.sql.has_subquery());
        }
    }

    #[test]
    fn nested_out_of_scope() {
        let ctx = ctx();
        assert!(PatternInterpreter::new()
            .best("sales without stores", &ctx)
            .is_none());
    }

    #[test]
    fn never_exceeds_aggregation_rung() {
        let ctx = ctx();
        let qs = [
            "total revenue by region",
            "sales in east",
            "top 2 sales by revenue",
            "count of sales",
        ];
        for q in qs {
            for i in PatternInterpreter::new().interpret(&PreparedQuestion::new(q, &ctx), &ctx) {
                assert!(
                    classify(&i.sql) <= ComplexityClass::SingleTableAggregation,
                    "{q} produced {}",
                    i.sql
                );
            }
        }
    }
}
