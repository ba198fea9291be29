//! Graceful degradation down the §4 family ladder.
//!
//! The survey's central qualitative claim is that interpretation
//! families *fail differently*: the hybrid and entity-based readings
//! are the most capable but depend on the most machinery, while the
//! pattern and keyword families are progressively simpler and harder
//! to break. That ordering is exactly a degradation ladder — when the
//! preferred interpreter errors (an infrastructure fault, not a
//! semantic refusal), a production front-end can fall to the next
//! family down and still answer the subset of questions inside that
//! family's [`Capabilities`](crate::entity::Capabilities) mask, as
//! long as the answer is *marked* as degraded.
//!
//! Two invariants keep this paper-faithful:
//!
//! * The ladder only ever descends. A fallback family is strictly less
//!   capable, so a degraded answer can never exceed the ceiling E1
//!   measures for the family that produced it.
//! * Degradation is for *faults*, not refusals. If the preferred
//!   family is healthy and simply cannot interpret the question, the
//!   refusal stands — silently substituting a weaker family's reading
//!   for a healthy refusal would trade precision for coverage, the
//!   opposite of the survey's enterprise-adaption guidance.

use crate::error::InterpretError;
use crate::interpretation::InterpreterKind;
use crate::pipeline::{Answer, NliPipeline};

/// The §4 degradation ladder starting at (and including) `preferred`:
/// the order a serving layer tries families when the rungs above are
/// faulted. Hybrid → entity → pattern → keyword is the paper's
/// capability ordering; the neural family's nearest structural kin are
/// the single-table families below it.
pub fn degradation_ladder(preferred: InterpreterKind) -> &'static [InterpreterKind] {
    use InterpreterKind::*;
    match preferred {
        Hybrid => &[Hybrid, Entity, Pattern, Keyword],
        Entity => &[Entity, Pattern, Keyword],
        Neural => &[Neural, Pattern, Keyword],
        Pattern => &[Pattern, Keyword],
        Keyword => &[Keyword],
    }
}

/// An answer produced below the preferred family.
#[derive(Debug, Clone)]
pub struct Degraded {
    /// The executed answer.
    pub answer: Answer,
    /// The family that actually served it.
    pub served_by: InterpreterKind,
    /// Families tried (in ladder order) that could not serve the
    /// question, with the error each produced.
    pub skipped: Vec<(InterpreterKind, InterpretError)>,
}

impl NliPipeline {
    /// Answer `question` with the families *below* `failed` on the
    /// degradation ladder, in order, returning the first success. Call
    /// this when `failed` errored for infrastructure reasons; the
    /// result is explicitly marked with the family that served it.
    ///
    /// Errors with the last family's error when the whole ladder is
    /// exhausted (or `NoInterpretation` when `failed` has no ladder
    /// below it at all).
    pub fn ask_degraded(
        &self,
        question: &str,
        failed: InterpreterKind,
    ) -> Result<Degraded, InterpretError> {
        let mut skipped = Vec::new();
        for &kind in degradation_ladder(failed).iter().skip(1) {
            match self.ask_bounded(question, kind, None) {
                Ok(answer) => {
                    return Ok(Degraded {
                        answer,
                        served_by: kind,
                        skipped,
                    })
                }
                Err(e) => skipped.push((kind, e)),
            }
        }
        Err(skipped
            .pop()
            .map(|(_, e)| e)
            .unwrap_or_else(|| InterpretError::NoInterpretation(question.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Capabilities;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};
    use nlidb_sqlir::classify;

    fn db() -> Database {
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
            (2, "Piano", "music", 500.0),
            (3, "Hammer", "tools", 15.0),
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
        db
    }

    #[test]
    fn ladder_descends_strictly() {
        for preferred in InterpreterKind::all() {
            let ladder = degradation_ladder(preferred);
            assert_eq!(ladder[0], preferred, "ladder starts at the preferred");
            for w in ladder.windows(2) {
                // Each step down must not gain capability anywhere.
                let (hi, lo) = (Capabilities::of(w[0]), Capabilities::of(w[1]));
                assert!(!lo.aggregation || hi.aggregation, "{ladder:?}");
                assert!(!lo.joins || hi.joins, "{ladder:?}");
                assert!(!lo.nested || hi.nested, "{ladder:?}");
            }
        }
    }

    #[test]
    fn degraded_answer_is_marked_and_within_ceiling() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        // Simulate a hybrid fault on a question every family can serve.
        let d = nli
            .ask_degraded("show products in tools", InterpreterKind::Hybrid)
            .expect("entity serves the fallback");
        assert_eq!(d.served_by, InterpreterKind::Entity);
        assert!(Capabilities::of(d.served_by).permits(classify(&d.answer.query)));
        assert_eq!(
            d.answer.sql,
            "SELECT * FROM products WHERE category = 'tools'"
        );
    }

    #[test]
    fn fallbacks_never_exceed_their_mask() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        // An aggregation question: entity and pattern can serve it,
        // keyword cannot — so a keyword-only ladder must refuse.
        let q = "total price by category";
        let d = nli.ask_degraded(q, InterpreterKind::Entity).unwrap();
        assert_eq!(d.served_by, InterpreterKind::Pattern);
        assert!(Capabilities::of(d.served_by).permits(classify(&d.answer.query)));
        assert!(
            nli.ask_degraded(q, InterpreterKind::Pattern).is_err(),
            "keyword must not answer an aggregation"
        );
    }

    #[test]
    fn exhausted_ladder_reports_the_last_error() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        let err = nli
            .ask_degraded("colorless green ideas", InterpreterKind::Hybrid)
            .unwrap_err();
        assert!(matches!(err, InterpretError::NoInterpretation(_)));
        assert!(
            nli.ask_degraded("anything", InterpreterKind::Keyword)
                .is_err(),
            "keyword has no ladder below it"
        );
    }

    #[test]
    fn skipped_families_are_recorded_in_order() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        // "how many products" is an aggregation: entity serves it, but
        // force the walk lower by starting below entity.
        let d = nli
            .ask_degraded("how many products", InterpreterKind::Entity)
            .expect("pattern counts");
        assert_eq!(d.served_by, InterpreterKind::Pattern);
        assert!(d.skipped.is_empty());
    }
}
