//! Accuracy metrics.

use nlidb_engine::{execute, Database};
use nlidb_sqlir::Query;

/// Execution accuracy: both queries run and produce the same result
/// bag (sequence when the gold query orders its output). Execution
/// errors on either side count as a miss.
pub fn execution_match(db: &Database, gold: &Query, predicted: &Query) -> bool {
    let (Ok(g), Ok(p)) = (execute(db, gold), execute(db, predicted)) else {
        return false;
    };
    if gold.order_by.is_empty() {
        g.unordered_eq(&p)
    } else {
        g.ordered_eq(&p)
    }
}

/// Aggregated outcome of an evaluation run: how many questions were
/// attempted (`answered`), how many of those were right (`correct`),
/// out of how many posed (`total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Questions for which the system produced *some* query.
    pub answered: usize,
    /// Questions answered correctly (execution match).
    pub correct: usize,
    /// Questions posed.
    pub total: usize,
}

impl EvalOutcome {
    /// Record one question's outcome.
    pub fn record(&mut self, answered: bool, correct: bool) {
        self.total += 1;
        if answered {
            self.answered += 1;
        }
        if correct {
            debug_assert!(answered, "correct implies answered");
            self.correct += 1;
        }
    }

    /// Merge another outcome into this one.
    pub fn merge(&mut self, other: EvalOutcome) {
        self.answered += other.answered;
        self.correct += other.correct;
        self.total += other.total;
    }

    /// Precision: correct / answered (1.0 when nothing answered, by
    /// the convention that silence makes no errors).
    pub fn precision(&self) -> f64 {
        if self.answered == 0 {
            1.0
        } else {
            self.correct as f64 / self.answered as f64
        }
    }

    /// Recall (= end-to-end accuracy): correct / total.
    pub fn recall(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Coverage: answered / total.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.answered as f64 / self.total as f64
        }
    }
}

impl std::fmt::Display for EvalOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} correct ({} answered; P={:.2} R={:.2} F1={:.2})",
            self.correct,
            self.total,
            self.answered,
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, TableSchema, Value};
    use nlidb_sqlir::parse_query;

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("t")
                .column("a", ColumnType::Int)
                .column("b", ColumnType::Text),
        )
        .unwrap();
        for (a, b) in [(1, "x"), (2, "y"), (3, "x")] {
            db.insert("t", vec![Value::Int(a), Value::from(b)]).unwrap();
        }
        db
    }

    #[test]
    fn execution_match_tolerates_form_differences() {
        let db = db();
        let g = parse_query("SELECT a FROM t WHERE b = 'x'").unwrap();
        // Different SQL text, same denotation.
        let p = parse_query("SELECT a FROM t WHERE b IN ('x')").unwrap();
        assert_ne!(g.to_string(), p.to_string());
        assert!(execution_match(&db, &g, &p));
    }

    #[test]
    fn execution_match_respects_order_when_gold_orders() {
        let db = db();
        let g = parse_query("SELECT a FROM t ORDER BY a DESC").unwrap();
        let p = parse_query("SELECT a FROM t ORDER BY a ASC").unwrap();
        assert!(!execution_match(&db, &g, &p), "same bag, wrong order");
        let g2 = parse_query("SELECT a FROM t").unwrap();
        assert!(
            execution_match(&db, &g2, &p),
            "unordered gold accepts any order"
        );
    }

    #[test]
    fn execution_errors_are_misses() {
        let db = db();
        let g = parse_query("SELECT a FROM t").unwrap();
        let bad = parse_query("SELECT zzz FROM t").unwrap();
        assert!(!execution_match(&db, &g, &bad));
        assert!(!execution_match(&db, &bad, &g));
    }

    #[test]
    fn outcome_metrics() {
        let mut o = EvalOutcome::default();
        o.record(true, true);
        o.record(true, false);
        o.record(false, false);
        o.record(true, true);
        assert_eq!(o.total, 4);
        assert_eq!(o.answered, 3);
        assert_eq!(o.correct, 2);
        assert!((o.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((o.recall() - 0.5).abs() < 1e-12);
        assert!((o.coverage() - 0.75).abs() < 1e-12);
        assert!(o.f1() > 0.5 && o.f1() < 0.67);
    }

    #[test]
    fn outcome_edge_cases() {
        let o = EvalOutcome::default();
        assert_eq!(o.precision(), 1.0);
        assert_eq!(o.recall(), 0.0);
        assert_eq!(o.f1(), 0.0);
        assert_eq!(o.coverage(), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = EvalOutcome {
            answered: 1,
            correct: 1,
            total: 2,
        };
        a.merge(EvalOutcome {
            answered: 2,
            correct: 1,
            total: 3,
        });
        assert_eq!(
            a,
            EvalOutcome {
                answered: 3,
                correct: 2,
                total: 5
            }
        );
    }
}
