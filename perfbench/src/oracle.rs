//! The correctness check: served answers against the pipeline asked
//! directly, dialogues against an exact replay, and execution accuracy
//! against the gold SQL.

use nlidb_core::interpretation::InterpreterKind;
use nlidb_dialogue::{ConversationSession, ManagerKind};
use nlidb_engine::ResultSet;
use nlidb_evalkit::execution_match;
use nlidb_serve::Disposition;

use crate::closed_loop::{answer_digest, same_answer, ServeLog};
use crate::workload::Trained;

/// What the check found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Served answers that differ from the oracle's, or from the first
    /// answer served to the same question.
    pub mismatches: u64,
    /// Sampled standalone questions checked.
    pub sampled: usize,
    /// Of those, questions whose answer matches the gold SQL's rows.
    pub accurate: usize,
    /// Dialogue turns checked.
    pub turns: usize,
}

impl Verdict {
    /// Execution accuracy over the sample, in percent.
    pub fn accuracy_pct(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            100.0 * self.accurate as f64 / self.sampled as f64
        }
    }
}

/// Rows rendered the way the serve layer renders them: `col=value`
/// cells joined by `, `.
fn render_rows(result: &ResultSet) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .zip(&result.columns)
                .map(|(v, c)| format!("{c}={v}"))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect()
}

/// Re-ask every sampled standalone question through
/// `NliPipeline::ask_bounded(q, Hybrid, None)` and replay every
/// dialogue through `ConversationSession::replay`; count every served
/// answer that differs, and every later answer the serving phase saw
/// change.
pub fn verify(trained: &Trained, log: &ServeLog) -> Verdict {
    let pipeline = &trained.pipeline;
    let db = pipeline.database();
    let mut verdict = Verdict {
        mismatches: log.changed_answers,
        ..Verdict::default()
    };
    for (question, served) in &log.sample {
        verdict.sampled += 1;
        let oracle = pipeline.ask_bounded(&question.text, InterpreterKind::Hybrid, None);
        let expected = match &oracle {
            Ok(a) => Disposition::Answered {
                sql: a.sql.clone(),
                rows: render_rows(&a.result),
                from_cache: false,
            },
            Err(e) => Disposition::Refused {
                reason: e.to_string(),
            },
        };
        if !same_answer(&expected, served) {
            verdict.mismatches += 1;
        } else if oracle.is_ok_and(|a| execution_match(db, &question.gold, &a.query)) {
            verdict.accurate += 1;
        }
    }
    for turns in log.dialogues.values() {
        let (_, replayed) = ConversationSession::replay(
            db,
            pipeline.context(),
            ManagerKind::Agent,
            turns.iter().map(|(utterance, _)| utterance.as_str()),
        );
        for ((_, served), r) in turns.iter().zip(&replayed) {
            verdict.turns += 1;
            let expected = Disposition::SessionReply {
                response: r.response.clone(),
                sql: r.sql.as_ref().map(|q| q.to_string()),
                accepted: r.accepted,
            };
            if answer_digest(&expected) != *served {
                verdict.mismatches += 1;
            }
        }
    }
    verdict
}
