//! Ranked candidate sets with token-level provenance.
//!
//! Every interpreter family already returns its interpretations ranked
//! best-first ([`crate::interpretation::Interpreter::interpret`]); this
//! module wraps that pool into an explicit [`CandidateSet`] — the
//! "Ask" half of the Ask → Plan → Approve workflow. Each [`Candidate`]
//! carries the SQL-IR and confidence it always had, plus
//! **provenance**: which question tokens grounded which tables,
//! columns, and values of *that specific candidate's* SQL. Provenance
//! is derived deterministically by intersecting the prepared
//! question's mention spans ([`PreparedQuestion`]) with the schema references
//! the candidate's query actually makes, so two candidates from the
//! same pool can ground the same token differently (or not at all).
//!
//! The [`Candidate::provenance_digest`] is a stable FNV-1a fingerprint
//! over family, SQL, and groundings; the approved path reports the
//! winner's ([`crate::pipeline::ValidationReport`]), so two approvals
//! of one question can be compared digest to digest.

use nlidb_nlp::{fnv1a, FNV1A_OFFSET};
use nlidb_sqlir::Query;

use crate::interpretation::{Interpretation, Interpreter, InterpreterKind};
use crate::linking::{LinkKind, PreparedQuestion};
use crate::pipeline::SchemaContext;

/// Default candidate-set width: the top-k interpretations kept per
/// family. Five covers every pool the current families produce while
/// keeping validation work bounded.
pub const DEFAULT_TOP_K: usize = 5;

/// One question span grounded to a schema element of a candidate's SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grounding {
    /// First token index of the grounded span.
    pub start: usize,
    /// Number of tokens in the span.
    pub len: usize,
    /// The matched surface text (normalized).
    pub text: String,
    /// What the span grounded to, rendered deterministically:
    /// `concept:<table>`, `column:<table>.<column>`, or
    /// `value:<table>.<column>=<value>`.
    pub target: String,
}

impl std::fmt::Display for Grounding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}+{}] {:?} -> {}",
            self.start, self.len, self.text, self.target
        )
    }
}

/// One ranked interpretation with its provenance.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The interpretation (SQL-IR, confidence, explanation, source).
    pub interpretation: Interpretation,
    /// Position in the family's original confidence-ranked pool
    /// (0 = the pick-first baseline choice).
    pub rank: usize,
    /// Token spans that grounded this candidate's tables, columns, and
    /// values, sorted by span start.
    pub provenance: Vec<Grounding>,
}

impl Candidate {
    /// Rendered SQL text.
    pub fn sql_text(&self) -> String {
        self.interpretation.sql.to_string()
    }

    /// Stable FNV-1a digest over family, SQL text, and every
    /// grounding — the fingerprint an approval reports.
    /// Deterministic across runs and processes (no hasher seeds).
    pub fn provenance_digest(&self) -> u64 {
        // The byte 0x01 separates fields: it never appears in rendered
        // SQL.
        let label = self.interpretation.source.label();
        let mut h = fnv1a(fnv1a(FNV1A_OFFSET, label.as_bytes()), &[1]);
        h = fnv1a(h, self.sql_text().as_bytes());
        for g in &self.provenance {
            let grounding = format!("{}+{}{}->{}", g.start, g.len, g.text, g.target);
            h = fnv1a(fnv1a(h, &[1]), grounding.as_bytes());
        }
        h
    }
}

/// A family's ranked top-k candidates for one question.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// The family that produced it.
    pub family: InterpreterKind,
    /// Candidates in the family's own confidence order, truncated to
    /// top-k.
    pub candidates: Vec<Candidate>,
}

impl CandidateSet {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when the family produced nothing (out of competence).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The pick-first baseline choice, when any.
    pub fn top(&self) -> Option<&Candidate> {
        self.candidates.first()
    }
}

/// Build a family's [`CandidateSet`] for `question`: run the
/// interpreter, keep its top `k`, and derive per-candidate provenance
/// from the question's linked mentions.
pub fn gather(
    interp: &dyn Interpreter,
    question: &PreparedQuestion,
    ctx: &SchemaContext,
    k: usize,
) -> CandidateSet {
    let family = interp.kind();
    let pool = interp.interpret(question, ctx);
    let candidates = pool
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(rank, interpretation)| {
            let provenance = derive_provenance(&question.mentions, &interpretation.sql, ctx);
            Candidate {
                interpretation,
                rank,
                provenance,
            }
        })
        .collect();
    CandidateSet { family, candidates }
}

/// Intersect the linker's mentions with the schema elements `sql`
/// actually references. A mention survives only when its referent is
/// present in the query: a concept's table must be scanned, a
/// property's column must be referenced, a value must appear as a
/// string-equality literal on its column.
fn derive_provenance(
    mentions: &[crate::linking::LinkedMention],
    sql: &Query,
    ctx: &SchemaContext,
) -> Vec<Grounding> {
    let tables = sql.referenced_tables();
    let columns = sql.referenced_columns();
    let equalities = sql.string_equalities();
    let table_of =
        |concept: &str| -> Option<&str> { ctx.ontology.concept(concept).map(|c| c.table.as_str()) };
    let column_of = |concept: &str, property: &str| -> Option<&str> {
        ctx.ontology
            .property(concept, property)
            .map(|p| p.column.as_str())
    };
    let mut out = Vec::new();
    for m in mentions {
        let target = match &m.kind {
            LinkKind::Concept { concept } => table_of(concept)
                .filter(|t| tables.iter().any(|rt| rt == t))
                .map(|t| format!("concept:{t}")),
            LinkKind::Property { concept, property } => {
                match (table_of(concept), column_of(concept, property)) {
                    (Some(t), Some(c)) => {
                        let referenced = tables.iter().any(|rt| rt == t)
                            && columns.iter().any(|cr| {
                                cr.column == c && cr.table.as_deref().is_none_or(|q| q == t)
                            });
                        referenced.then(|| format!("column:{t}.{c}"))
                    }
                    _ => None,
                }
            }
            LinkKind::Value {
                concept,
                property,
                value,
            } => match (table_of(concept), column_of(concept, property)) {
                (Some(t), Some(c)) => equalities
                    .iter()
                    .any(|(cr, v)| {
                        cr.column == c
                            && cr.table.as_deref().is_none_or(|q| q == t)
                            && v.eq_ignore_ascii_case(value)
                    })
                    .then(|| format!("value:{t}.{c}={value}")),
                _ => None,
            },
        };
        if let Some(target) = target {
            out.push(Grounding {
                start: m.start,
                len: m.len,
                text: m.text.clone(),
                target,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::NliPipeline;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};

    /// The entity family's top-`k` set for `q`.
    fn entity_set(p: &NliPipeline, q: &str, k: usize) -> CandidateSet {
        let (entity, ctx) = (p.interpreter(InterpreterKind::Entity), p.context());
        gather(entity, &PreparedQuestion::new(q, ctx), ctx, k)
    }

    fn db() -> Database {
        let mut db = Database::new("shop");
        db.create_table(
            TableSchema::new("customers")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("city", ColumnType::Text),
        )
        .unwrap();
        for (i, (n, c)) in [("alice", "Austin"), ("bob", "Boston"), ("cara", "Austin")]
            .iter()
            .enumerate()
        {
            db.insert(
                "customers",
                vec![
                    Value::Int(i as i64),
                    Value::Str((*n).to_string()),
                    Value::Str((*c).to_string()),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn gather_preserves_family_order_and_derives_provenance() {
        let p = NliPipeline::standard(&db());
        let set = entity_set(&p, "customers with city 'Austin'", 5);
        assert_eq!(set.family, InterpreterKind::Entity);
        assert!(!set.is_empty(), "entity family should answer");
        let top = set.top().unwrap();
        assert_eq!(top.rank, 0);
        // Provenance must ground the concept and the filtered value.
        let targets: Vec<&str> = top.provenance.iter().map(|g| g.target.as_str()).collect();
        assert!(
            targets.contains(&"concept:customers"),
            "concept grounding missing: {targets:?}"
        );
        assert!(
            targets
                .iter()
                .any(|t| t.starts_with("value:customers.city=")),
            "value grounding missing: {targets:?}"
        );
        // Ranks mirror the pool order.
        for (i, c) in set.candidates.iter().enumerate() {
            assert_eq!(c.rank, i);
        }
    }

    #[test]
    fn provenance_digest_is_stable_and_discriminates() {
        let p = NliPipeline::standard(&db());
        let a = entity_set(&p, "customers in 'Austin'", 5);
        let b = entity_set(&p, "customers in 'Austin'", 5);
        let d1 = a.top().unwrap().provenance_digest();
        let d2 = b.top().unwrap().provenance_digest();
        assert_eq!(d1, d2, "same candidate -> same digest");
        let other = entity_set(&p, "customers in 'Boston'", 5);
        assert_ne!(
            d1,
            other.top().unwrap().provenance_digest(),
            "different grounding -> different digest"
        );
    }

    #[test]
    fn top_k_truncates_the_pool() {
        let p = NliPipeline::standard(&db());
        let full = p.candidates("customers in 'Austin'", InterpreterKind::Entity);
        let set = entity_set(&p, "customers in 'Austin'", 1);
        assert_eq!(set.len(), full.len().min(1));
    }
}
