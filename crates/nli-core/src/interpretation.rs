//! The interpretation model shared by all interpreter families.

use nlidb_sqlir::Query;

use crate::linking::PreparedQuestion;
use crate::pipeline::SchemaContext;

/// Which family produced an interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterpreterKind {
    /// SODA-class keyword lookup.
    Keyword,
    /// SQAK-class pattern matching.
    Pattern,
    /// ATHENA/NaLIR-class ontology-driven interpretation.
    Entity,
    /// SQLNet-class learned sketch filling.
    Neural,
    /// QUEST-class hybrid.
    Hybrid,
}

impl InterpreterKind {
    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            InterpreterKind::Keyword => "keyword",
            InterpreterKind::Pattern => "pattern",
            InterpreterKind::Entity => "entity",
            InterpreterKind::Neural => "neural",
            InterpreterKind::Hybrid => "hybrid",
        }
    }

    /// All families in the survey's presentation order.
    pub fn all() -> [InterpreterKind; 5] {
        [
            InterpreterKind::Keyword,
            InterpreterKind::Pattern,
            InterpreterKind::Entity,
            InterpreterKind::Neural,
            InterpreterKind::Hybrid,
        ]
    }
}

impl std::fmt::Display for InterpreterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One candidate reading of a question.
#[derive(Debug, Clone, PartialEq)]
pub struct Interpretation {
    /// The generated SQL.
    pub sql: Query,
    /// Confidence in `[0, 1]`; used for ranking and clarification
    /// triggering.
    pub confidence: f64,
    /// Human-readable steps explaining how the reading was derived
    /// (entity links, patterns fired, model decisions).
    pub explanation: Vec<String>,
    /// Producing family.
    pub source: InterpreterKind,
}

impl Interpretation {
    /// Construct with a single explanation line.
    pub fn new(sql: Query, confidence: f64, source: InterpreterKind) -> Interpretation {
        Interpretation {
            sql,
            confidence,
            explanation: Vec::new(),
            source,
        }
    }

    /// Append an explanation step (builder style).
    pub fn explain(mut self, step: impl Into<String>) -> Interpretation {
        self.explanation.push(step.into());
        self
    }
}

/// An interpreter family: question in, ranked interpretations out.
///
/// `Send + Sync` is a supertrait so a trained interpreter can be shared
/// immutably across serving threads (`nlidb-serve` workers hold one
/// pipeline behind an `Arc`); interpretation itself is `&self` — all
/// mutation (training) happens before serving starts.
pub trait Interpreter: Send + Sync {
    /// Family identity.
    fn kind(&self) -> InterpreterKind;

    /// Produce ranked candidate interpretations (best first) of a
    /// question prepared once against `ctx`. An empty vector means the
    /// question is outside the family's competence — exactly the
    /// behaviour the survey's capability matrix measures.
    fn interpret(&self, question: &PreparedQuestion, ctx: &SchemaContext) -> Vec<Interpretation>;

    /// Convenience: prepare `question` and keep the single best
    /// interpretation.
    fn best(&self, question: &str, ctx: &SchemaContext) -> Option<Interpretation> {
        let prepared = PreparedQuestion::new(question, ctx);
        self.interpret(&prepared, ctx).into_iter().next()
    }
}

/// Sort interpretations by descending confidence, deterministically
/// tie-breaking on rendered SQL.
pub fn rank(mut interpretations: Vec<Interpretation>) -> Vec<Interpretation> {
    interpretations.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.sql.to_string().cmp(&b.sql.to_string()))
    });
    interpretations
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_sqlir::QueryBuilder;

    #[test]
    fn rank_orders_by_confidence_then_sql() {
        let q1 = QueryBuilder::from_table("a").build();
        let q2 = QueryBuilder::from_table("b").build();
        let i = rank(vec![
            Interpretation::new(q2.clone(), 0.5, InterpreterKind::Keyword),
            Interpretation::new(q1.clone(), 0.9, InterpreterKind::Entity),
            Interpretation::new(q1.clone(), 0.5, InterpreterKind::Keyword),
        ]);
        assert_eq!(i[0].confidence, 0.9);
        assert_eq!(i[1].sql, q1, "ties break on SQL text");
        assert_eq!(i[2].sql, q2);
    }

    #[test]
    fn explanation_builder() {
        let q = QueryBuilder::from_table("a").build();
        let i = Interpretation::new(q, 1.0, InterpreterKind::Pattern)
            .explain("matched pattern: total X by Y")
            .explain("bound X to amount");
        assert_eq!(i.explanation.len(), 2);
    }

    #[test]
    fn kind_labels_unique() {
        let labels: std::collections::HashSet<_> =
            InterpreterKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
