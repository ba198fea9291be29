//! A multi-turn conversation session over a database.

use nlidb_core::linking::PreparedQuestion;
use nlidb_core::pipeline::SchemaContext;
use nlidb_engine::{execute, Database, ResultSet};
use nlidb_nlp::{fnv1a, FNV1A_OFFSET};
use nlidb_sqlir::Query;

use crate::acts::{detect_act, DialogueAct};
use crate::manager::ManagerKind;
use crate::state::{DialogueState, TurnRecord};

/// The outcome of one turn.
#[derive(Debug, Clone)]
pub struct TurnResult {
    /// The detected act's label.
    pub act: &'static str,
    /// Whether the manager accepted and applied the act.
    pub accepted: bool,
    /// The SQL run after this turn (None when rejected / not ready).
    pub sql: Option<Query>,
    /// The result rows (None when rejected or execution failed).
    pub result: Option<ResultSet>,
    /// A user-facing response line.
    pub response: String,
}

impl TurnResult {
    /// A stable digest of the turn's visible outcome: act, acceptance,
    /// rendered SQL, and response line. `turn` is deterministic, so a
    /// replayed turn reproduces the digest of the original exactly;
    /// crash-recovery journals store it to detect divergence.
    pub fn digest(&self) -> u64 {
        let mut acc = String::new();
        acc.push_str(self.act);
        acc.push('\u{1f}');
        acc.push(if self.accepted { '+' } else { '-' });
        acc.push('\u{1f}');
        if let Some(sql) = &self.sql {
            acc.push_str(&sql.to_string());
        }
        acc.push('\u{1f}');
        acc.push_str(&self.response);
        fnv1a(FNV1A_OFFSET, acc.as_bytes())
    }
}

/// A running conversation: context + manager + database.
pub struct ConversationSession<'a> {
    db: &'a Database,
    ctx: &'a SchemaContext,
    manager: ManagerKind,
    state: DialogueState,
    script_stage: usize,
}

impl<'a> ConversationSession<'a> {
    /// Start a session under a management regime.
    pub fn new(db: &'a Database, ctx: &'a SchemaContext, manager: ManagerKind) -> Self {
        ConversationSession {
            db,
            ctx,
            manager,
            state: DialogueState::new(),
            script_stage: 0,
        }
    }

    /// Rebuild a session by exact replay of `utterances` — typically
    /// the journaled turns of a session whose worker crashed — against
    /// the same database and schema context. `turn` is a deterministic
    /// function of (db, ctx, manager, utterance sequence), so the
    /// rebuilt session is indistinguishable from the lost one: same
    /// state digest, same behavior on every subsequent turn. Each
    /// replayed turn's result is returned so callers can compare
    /// digests against what was journaled.
    pub fn replay<I, S>(
        db: &'a Database,
        ctx: &'a SchemaContext,
        manager: ManagerKind,
        utterances: I,
    ) -> (Self, Vec<TurnResult>)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut session = ConversationSession::new(db, ctx, manager);
        let results = utterances
            .into_iter()
            .map(|u| session.turn(u.as_ref()))
            .collect();
        (session, results)
    }

    /// The running state (read-only).
    pub fn state(&self) -> &DialogueState {
        &self.state
    }

    /// Digest of the current dialogue state (see [`DialogueState::digest`]).
    pub fn state_digest(&self) -> u64 {
        self.state.digest()
    }

    /// Which regime this session runs under.
    pub fn manager(&self) -> ManagerKind {
        self.manager
    }

    /// The next unfilled frame slot, in the frame's canonical order —
    /// what a frame-based system would prompt for.
    fn missing_slot(&self) -> Option<&'static str> {
        let oql = self.state.oql.as_ref()?;
        if oql.predicates.is_empty() {
            Some("filters")
        } else if oql.select.is_empty() {
            Some("summary (count, total, average)")
        } else if oql.group_by.is_empty() {
            Some("grouping")
        } else {
            None
        }
    }

    /// Process one user turn, prepared once for act detection and
    /// application.
    pub fn turn(&mut self, utterance: &str) -> TurnResult {
        let prepared = PreparedQuestion::new(utterance, self.ctx);
        let act = detect_act(&prepared, self.state.has_context());
        let label = act.label();
        let accepted = self
            .manager
            .accepts(&act, self.state.has_context(), self.script_stage);

        let applied = accepted && self.state.apply(&act, &prepared, self.ctx);
        self.state.history.push(TurnRecord {
            utterance: utterance.to_string(),
            act_label: label,
            accepted: applied,
        });
        if !applied {
            let response = if accepted {
                "I could not relate that to the current question.".to_string()
            } else {
                match self.manager {
                    ManagerKind::FiniteState => {
                        "Please follow the steps: question, then filters, then summaries."
                            .to_string()
                    }
                    // Frame-based systems "keep track of what
                    // information is required and ask questions
                    // accordingly" (§5): name the missing/expected slot.
                    ManagerKind::Frame => match self.missing_slot() {
                        Some(slot) => {
                            format!("I cannot change that. You could refine the {slot} instead.")
                        }
                        None => "I cannot handle that kind of request.".to_string(),
                    },
                    ManagerKind::Agent => "I cannot handle that kind of request.".to_string(),
                }
            };
            return TurnResult {
                act: label,
                accepted: false,
                sql: None,
                result: None,
                response,
            };
        }
        if self.manager == ManagerKind::FiniteState {
            if let DialogueAct::NewQuery = act {
                self.script_stage = 1;
            } else {
                // Advance past the stage just used.
                self.script_stage = match act {
                    DialogueAct::AddFilter => 2,
                    DialogueAct::SetAggregation => 3,
                    DialogueAct::SetTopN => 4,
                    _ => self.script_stage,
                };
            }
        }

        // Lower + execute.
        let oql = self
            .state
            .oql
            .as_ref()
            .expect("applied act implies context");
        match oql.to_sql(&self.ctx.ontology, &self.ctx.graph) {
            Ok(sql) => match execute(self.db, &sql) {
                Ok(result) => {
                    let response = format!("{} row(s).", result.rows.len());
                    TurnResult {
                        act: label,
                        accepted: true,
                        sql: Some(sql),
                        result: Some(result),
                        response,
                    }
                }
                Err(e) => TurnResult {
                    act: label,
                    accepted: true,
                    sql: Some(sql),
                    result: None,
                    response: format!("execution failed: {e}"),
                },
            },
            Err(e) => TurnResult {
                act: label,
                accepted: true,
                sql: None,
                result: None,
                response: format!("could not build a query: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("customers")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("city", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("orders")
                .column("id", ColumnType::Int)
                .column("customer_id", ColumnType::Int)
                .column("amount", ColumnType::Float)
                .primary_key("id")
                .foreign_key("customer_id", "customers", "id"),
        )
        .unwrap();
        for (id, n, c) in [
            (1, "Ada", "Austin"),
            (2, "Bob", "Boston"),
            (3, "Cy", "Austin"),
        ] {
            db.insert(
                "customers",
                vec![Value::Int(id), Value::from(n), Value::from(c)],
            )
            .unwrap();
        }
        for (id, cid, amt) in [(1, 1, 10.0), (2, 1, 90.0), (3, 2, 40.0)] {
            db.insert(
                "orders",
                vec![Value::Int(id), Value::Int(cid), Value::Float(amt)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn agent_session_full_flow() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut s = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        let r = s.turn("show customers in Austin");
        assert!(r.accepted);
        assert_eq!(r.result.unwrap().rows.len(), 2);
        let r = s.turn("what about Boston");
        assert!(r.accepted, "{}", r.response);
        assert_eq!(r.result.unwrap().rows.len(), 1);
        let r = s.turn("how many of those are there");
        assert!(r.accepted);
        assert_eq!(r.result.unwrap().rows[0][0], Value::Int(1));
    }

    #[test]
    fn finite_state_rejects_off_script() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut s = ConversationSession::new(&db, &ctx, ManagerKind::FiniteState);
        assert!(s.turn("show customers in Austin").accepted);
        let r = s.turn("what about Boston");
        assert!(!r.accepted, "FSM must reject slot refills");
        assert!(r.response.contains("steps"));
        // Forward move still fine.
        assert!(s.turn("how many of those are there").accepted);
    }

    #[test]
    fn frame_accepts_refill_rejects_structure() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut s = ConversationSession::new(&db, &ctx, ManagerKind::Frame);
        assert!(s.turn("show customers in Austin").accepted);
        assert!(s.turn("what about Boston").accepted);
        assert!(!s.turn("remove the filters please").accepted);
    }

    #[test]
    fn frame_prompts_for_missing_slots() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut s = ConversationSession::new(&db, &ctx, ManagerKind::Frame);
        assert!(s.turn("show customers in Austin").accepted);
        // A structural move the frame rejects: it should redirect the
        // user toward fillable slots instead of a bare refusal.
        let r = s.turn("remove the filters please");
        assert!(!r.accepted);
        assert!(r.response.contains("refine the"), "{}", r.response);
    }

    #[test]
    fn history_recorded() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut s = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        s.turn("show customers in Austin");
        s.turn("zzzz nonsense zzzz");
        assert_eq!(s.state().history.len(), 2);
        assert!(s.state().history[0].accepted);
        assert!(!s.state().history[1].accepted);
    }

    #[test]
    fn replay_reproduces_state_and_turn_digests() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let turns = [
            "show customers in Austin",
            "zzzz nonsense zzzz",
            "what about Boston",
        ];
        let mut live = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        let live_digests: Vec<u64> = turns.iter().map(|t| live.turn(t).digest()).collect();

        let (replayed, results) = ConversationSession::replay(&db, &ctx, ManagerKind::Agent, turns);
        let replay_digests: Vec<u64> = results.iter().map(|r| r.digest()).collect();
        assert_eq!(live_digests, replay_digests);
        assert_eq!(live.state_digest(), replayed.state_digest());
    }

    #[test]
    fn replayed_session_continues_identically() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let prefix = ["show customers in Austin", "what about Boston"];
        let mut live = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        for t in prefix {
            live.turn(t);
        }
        let (mut replayed, _) = ConversationSession::replay(&db, &ctx, ManagerKind::Agent, prefix);
        let next = "how many of those are there";
        assert_eq!(live.turn(next).digest(), replayed.turn(next).digest());
        assert_eq!(live.state_digest(), replayed.state_digest());
    }

    #[test]
    fn state_digest_distinguishes_histories() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut a = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        let mut b = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        a.turn("show customers in Austin");
        b.turn("show customers in Boston");
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn rejected_first_turn_keeps_no_context() {
        let db = db();
        let ctx = SchemaContext::build(&db);
        let mut s = ConversationSession::new(&db, &ctx, ManagerKind::Agent);
        let r = s.turn("total gibberish");
        assert!(!r.accepted);
        assert!(!s.state().has_context());
    }
}
