//! The one-call facade: build every index and interpreter for a
//! database, ask questions, get executed answers.

use nlidb_engine::{execute, explain, Database, ResultSet};
use nlidb_nlp::Lexicon;
use nlidb_obs::TraceBuilder;
use nlidb_ontology::{generate_ontology, JoinGraph, Ontology};
use nlidb_sqlir::Query;
use nlidb_vindex::Indices;

use crate::entity::EntityInterpreter;
use crate::error::InterpretError;
use crate::hybrid::HybridInterpreter;
use crate::interpretation::{Interpretation, Interpreter, InterpreterKind};
use crate::keyword::KeywordInterpreter;
use crate::linking::PreparedQuestion;
use crate::neural::{NeuralInterpreter, TrainingExample};
use crate::pattern::PatternInterpreter;

/// Everything interpreters need to know about one database: its
/// ontology, join graph, lexicon, and value/metadata indices.
#[derive(Debug)]
pub struct SchemaContext {
    /// The generated (or supplied) domain ontology.
    pub ontology: Ontology,
    /// Join graph over the ontology's relationships.
    pub graph: JoinGraph,
    /// Synonym/hypernym lexicon.
    pub lexicon: Lexicon,
    /// Value + metadata indices.
    pub indices: Indices,
}

impl SchemaContext {
    /// Build with the default business lexicon and a generated ontology.
    pub fn build(db: &Database) -> SchemaContext {
        Self::build_with_lexicon(db, Lexicon::business_default())
    }

    /// Build with a custom lexicon.
    pub fn build_with_lexicon(db: &Database, lexicon: Lexicon) -> SchemaContext {
        let ontology = generate_ontology(db);
        let graph = JoinGraph::from_ontology(&ontology);
        let indices = Indices::build(db, &ontology, &lexicon);
        SchemaContext {
            ontology,
            graph,
            lexicon,
            indices,
        }
    }
}

/// An executed answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The SQL that was run.
    pub sql: String,
    /// The query AST.
    pub query: Query,
    /// The result rows.
    pub result: ResultSet,
    /// The winning interpretation (confidence + explanation).
    pub interpretation: Interpretation,
}

/// Clarification margin the approved path uses to flag close
/// competitors (same margin E9's dialogue experiment asks at).
const CLARIFY_MARGIN: f64 = 0.15;

/// One candidate the validation loop rejected (or, when every reason
/// is [`crate::validate::Rejection::AmbiguousWithTop`], annotated as a
/// close competitor without being vetoed).
#[derive(Debug, Clone)]
pub struct RejectedCandidate {
    /// The candidate's rank in the family's original confidence order.
    pub rank: usize,
    /// Its rendered SQL.
    pub sql: String,
    /// Every rejection reason, in validation order.
    pub reasons: Vec<crate::validate::Rejection>,
}

impl RejectedCandidate {
    /// True when at least one reason is a veto (anything other than
    /// the ambiguity annotation).
    pub fn is_vetoed(&self) -> bool {
        self.reasons
            .iter()
            .any(|r| !matches!(r, crate::validate::Rejection::AmbiguousWithTop { .. }))
    }

    /// Its rejection labels joined by `+`, in validation order.
    pub fn labels(&self) -> String {
        let labels: Vec<&str> = self.reasons.iter().map(|r| r.label()).collect();
        labels.join("+")
    }
}

/// `#rank label+label` — the rendering refusal reasons list.
impl std::fmt::Display for RejectedCandidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {}", self.rank, self.labels())
    }
}

/// What the approve step decided: how many candidates were considered,
/// which one won, and why the losers lost.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The interpreter family asked.
    pub family: InterpreterKind,
    /// Candidates in the gathered set.
    pub candidate_count: usize,
    /// Original confidence-order rank of the approved candidate
    /// (0 = the pick-first baseline would have chosen the same).
    pub chosen_rank: usize,
    /// Losing candidates with structured reasons, ordered by rank.
    pub rejected: Vec<RejectedCandidate>,
    /// The approved candidate's provenance digest
    /// ([`crate::candidates::Candidate::provenance_digest`]).
    pub provenance_digest: u64,
}

impl ValidationReport {
    /// Candidates actually vetoed by validation (ambiguity annotations
    /// alone don't count).
    pub fn vetoed_count(&self) -> usize {
        self.rejected.iter().filter(|r| r.is_vetoed()).count()
    }
}

/// An [`Answer`] that passed pre-execution validation, with its
/// [`ValidationReport`].
#[derive(Debug, Clone)]
pub struct ApprovedAnswer {
    /// The executed answer.
    pub answer: Answer,
    /// The approve-step audit record.
    pub report: ValidationReport,
}

/// The full NLIDB stack for one database.
pub struct NliPipeline {
    db: Database,
    ctx: SchemaContext,
    keyword: KeywordInterpreter,
    pattern: PatternInterpreter,
    entity: EntityInterpreter,
    neural: NeuralInterpreter,
    hybrid: HybridInterpreter,
}

impl NliPipeline {
    /// Build the standard stack: generated ontology, business lexicon,
    /// all five interpreter families (the neural model starts
    /// untrained; see [`NliPipeline::train_neural`]).
    pub fn standard(db: &Database) -> NliPipeline {
        Self::with_context(db, SchemaContext::build(db))
    }

    /// Build from a pre-built [`SchemaContext`], such as one whose
    /// ontology the caller has edited, before the pipeline freezes it.
    pub fn with_context(db: &Database, ctx: SchemaContext) -> NliPipeline {
        NliPipeline {
            db: db.clone(),
            ctx,
            keyword: KeywordInterpreter::new(),
            pattern: PatternInterpreter::new(),
            entity: EntityInterpreter::new(),
            neural: NeuralInterpreter::untrained(),
            hybrid: HybridInterpreter::new(),
        }
    }

    /// The schema context (for direct interpreter experimentation).
    pub fn context(&self) -> &SchemaContext {
        &self.ctx
    }

    /// The wrapped database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Train the neural model once; the hybrid embeds a copy.
    pub fn train_neural(&mut self, examples: &[TrainingExample], seed: u64) {
        self.neural = NeuralInterpreter::train(examples, &self.ctx, seed);
        self.hybrid.set_neural(self.neural.clone());
    }

    /// Interpreter by family.
    pub fn interpreter(&self, kind: InterpreterKind) -> &dyn Interpreter {
        match kind {
            InterpreterKind::Keyword => &self.keyword,
            InterpreterKind::Pattern => &self.pattern,
            InterpreterKind::Entity => &self.entity,
            InterpreterKind::Neural => &self.neural,
            InterpreterKind::Hybrid => &self.hybrid,
        }
    }

    /// All candidate interpretations from one family (for clarification
    /// flows and experiments).
    pub fn candidates(&self, question: &str, kind: InterpreterKind) -> Vec<Interpretation> {
        let prepared = PreparedQuestion::new(question, &self.ctx);
        self.interpreter(kind).interpret(&prepared, &self.ctx)
    }

    /// Ask with the default (hybrid) interpreter and execute.
    pub fn ask(&self, question: &str) -> Result<Answer, InterpretError> {
        self.ask_bounded(question, InterpreterKind::Hybrid, None)
    }

    /// Ask a specific family and execute its best interpretation. When
    /// the plan's estimated cost exceeds `cost_ceiling`, the query is
    /// refused with [`InterpretError::CostExceeded`] *before* execution.
    pub fn ask_bounded(
        &self,
        question: &str,
        kind: InterpreterKind,
        cost_ceiling: Option<u64>,
    ) -> Result<Answer, InterpretError> {
        self.ask_classic(question, kind, cost_ceiling, None)
    }

    /// The classic pick-first ask: [`NliPipeline::ask_bounded`],
    /// recording per-stage spans into `tb` when one is given:
    /// `tokenize` → `link` → `interpret` → `sqlgen` → `execute`, under
    /// one `pipeline` span annotated with the family and the outcome.
    /// The traced path returns exactly what the untraced path returns —
    /// tracing observes the pipeline, it never steers it.
    pub fn ask_classic(
        &self,
        question: &str,
        kind: InterpreterKind,
        cost_ceiling: Option<u64>,
        tb: Option<&mut TraceBuilder>,
    ) -> Result<Answer, InterpretError> {
        self.ask_body(question, kind, cost_ceiling, tb, false)
            .map(|(answer, _)| answer)
    }

    /// Ask with guardrails (Ask → Plan → Approve): gather the family's
    /// candidate set, rerank by confidence then provenance coverage,
    /// validate each candidate *before* execution, and execute the
    /// first survivor. The cost ceiling is one validation check among
    /// the others ([`crate::validate::validate_candidate`]), so a
    /// too-expensive top candidate can lose to a cheaper lower-ranked
    /// one instead of refusing outright. Refusal semantics are
    /// preserved: when *no* candidate survives and the best-reranked
    /// candidate was vetoed on cost, the error is
    /// [`InterpretError::CostExceeded`] exactly as the classic path
    /// would have raised; otherwise
    /// [`InterpretError::AllCandidatesRejected`] lists every reason.
    /// Traced like [`NliPipeline::ask_classic`], plus candidate-level
    /// attributes (`candidates`, `rejected`, `chosen_rank`, rejection
    /// labels) on the pipeline span.
    pub fn ask_approved(
        &self,
        question: &str,
        kind: InterpreterKind,
        cost_ceiling: Option<u64>,
        tb: Option<&mut TraceBuilder>,
    ) -> Result<ApprovedAnswer, InterpretError> {
        let (answer, report) = self.ask_body(question, kind, cost_ceiling, tb, true)?;
        let report = report.expect("the approved mode always reports");
        Ok(ApprovedAnswer { answer, report })
    }

    /// The one ask body: open the `pipeline` span, prepare the question
    /// once (inside the `tokenize` and `link` spans when traced),
    /// choose a reading — pick-first, or Ask → Plan → Approve when
    /// `approved` — then explain, gate on cost, execute, and seal the
    /// span with the outcome. The report is `Some` exactly when
    /// `approved`.
    fn ask_body(
        &self,
        question: &str,
        kind: InterpreterKind,
        cost_ceiling: Option<u64>,
        mut tb: Option<&mut TraceBuilder>,
        approved: bool,
    ) -> Result<(Answer, Option<ValidationReport>), InterpretError> {
        let span = tb.as_deref_mut().map(|t| {
            let s = t.open("pipeline");
            t.annotate(s, "family", kind.label());
            if approved {
                t.annotate(s, "mode", "approved");
            }
            s
        });
        let mut run = || {
            let prepared = PreparedQuestion::traced(question, &self.ctx, tb.as_deref_mut());
            let (interp, report) = if approved {
                let (interp, report) =
                    self.approve(&prepared, kind, cost_ceiling, tb.as_deref_mut())?;
                (interp, Some(report))
            } else {
                (self.pick_first(&prepared, kind, tb.as_deref_mut())?, None)
            };

            let sql = interp.sql.to_string();
            if let Some(t) = tb.as_deref_mut() {
                let s = t.open("sqlgen");
                t.annotate(s, "sql", sql.as_str());
                t.close(s);
                if let (Some(ps), Some(r)) = (span, &report) {
                    t.annotate(ps, "candidates", r.candidate_count.to_string());
                    t.annotate(ps, "rejected", r.vetoed_count().to_string());
                    t.annotate(ps, "chosen_rank", r.chosen_rank.to_string());
                    for c in &r.rejected {
                        t.annotate(ps, &format!("reject_{}", c.rank), c.labels());
                    }
                }
            }

            // Pre-execution plan estimate: recorded on the execute span
            // (annotations never change span costs) and gated by the
            // validation layer's single cost-ceiling enforcement point
            // (an approved winner has already passed it).
            let plan = explain(&self.db, &interp.sql);
            crate::validate::cost_gate(&plan, cost_ceiling)?;
            let exec_span = tb.as_deref_mut().map(|t| {
                let s = t.open("execute");
                t.annotate(s, "plan_shape", plan.shape.as_str());
                t.annotate(s, "est_cost", plan.est_cost.to_string());
                t.annotate(s, "est_rows", plan.est_rows.to_string());
                s
            });
            let result = execute(&self.db, &interp.sql);
            if let (Some(t), Some(s)) = (tb.as_deref_mut(), exec_span) {
                match &result {
                    Ok(r) => t.annotate(s, "rows", r.rows.len().to_string()),
                    Err(e) => t.annotate(s, "error", e.to_string()),
                }
                t.close(s);
            }
            let result = result.map_err(|e| InterpretError::Execution(e.to_string()))?;
            let answer = Answer {
                sql,
                query: interp.sql.clone(),
                result,
                interpretation: interp,
            };
            Ok((answer, report))
        };
        let asked = run();
        if let (Some(t), Some(s)) = (tb, span) {
            let outcome = match &asked {
                Ok(_) => "answered",
                Err(InterpretError::NoInterpretation(_)) => "no_interpretation",
                Err(InterpretError::CostExceeded { .. }) => "cost_exceeded",
                Err(InterpretError::AllCandidatesRejected { .. }) => "all_candidates_rejected",
                Err(_) => "execution_error",
            };
            t.annotate(s, "outcome", outcome);
            t.close(s);
        }
        asked
    }

    /// The classic choice: the family's best interpretation.
    fn pick_first(
        &self,
        question: &PreparedQuestion,
        kind: InterpreterKind,
        mut tb: Option<&mut TraceBuilder>,
    ) -> Result<Interpretation, InterpretError> {
        let span = tb.as_deref_mut().map(|t| t.open("interpret"));
        let interp = self
            .interpreter(kind)
            .interpret(question, &self.ctx)
            .into_iter()
            .next();
        if let (Some(t), Some(s)) = (tb, span) {
            match &interp {
                Some(i) => {
                    t.annotate(s, "confidence", format!("{:.3}", i.confidence));
                    t.annotate(s, "explanation_steps", i.explanation.len().to_string());
                }
                None => t.annotate(s, "result", "no_interpretation"),
            }
            t.close(s);
        }
        interp.ok_or_else(|| InterpretError::NoInterpretation(question.text.clone()))
    }

    /// The Ask → Plan → Approve choice: gather the whole candidate set
    /// in the interpret stage, then validate in rerank order and keep
    /// the first survivor. Everything is deterministic: rerank ties
    /// break on provenance coverage then rendered SQL.
    fn approve(
        &self,
        question: &PreparedQuestion,
        kind: InterpreterKind,
        cost_ceiling: Option<u64>,
        mut tb: Option<&mut TraceBuilder>,
    ) -> Result<(Interpretation, ValidationReport), InterpretError> {
        let span = tb.as_deref_mut().map(|t| t.open("interpret"));
        let set = crate::candidates::gather(
            self.interpreter(kind),
            question,
            &self.ctx,
            crate::candidates::DEFAULT_TOP_K,
        );
        if let (Some(t), Some(s)) = (tb, span) {
            if set.is_empty() {
                t.annotate(s, "result", "no_interpretation");
            } else {
                t.annotate(s, "candidates", set.len().to_string());
                t.annotate(
                    s,
                    "confidence",
                    format!("{:.3}", set.candidates[0].interpretation.confidence),
                );
            }
            t.close(s);
        }
        if set.is_empty() {
            return Err(InterpretError::NoInterpretation(question.text.clone()));
        }

        // Rerank: confidence first (the pool is already in that
        // order), then provenance coverage — a candidate that grounds
        // more of the question's tokens beats an equally-confident one
        // that grounds fewer — then rendered SQL as the final tie.
        let sqls: Vec<String> = set.candidates.iter().map(|c| c.sql_text()).collect();
        let mut order: Vec<usize> = (0..set.candidates.len()).collect();
        order.sort_by(|&a, &b| {
            let (ca, cb) = (&set.candidates[a], &set.candidates[b]);
            cb.interpretation
                .confidence
                .partial_cmp(&ca.interpretation.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| cb.provenance.len().cmp(&ca.provenance.len()))
                .then_with(|| sqls[a].cmp(&sqls[b]))
        });

        // Validate in rerank order; the first clean candidate wins.
        let mut rejected: Vec<RejectedCandidate> = Vec::new();
        let mut winner: Option<usize> = None;
        for &i in &order {
            let c = &set.candidates[i];
            let reasons = crate::validate::validate_candidate(
                &self.db,
                &self.ctx.ontology,
                &c.interpretation.sql,
                cost_ceiling,
            );
            if reasons.is_empty() {
                winner = Some(i);
                break;
            }
            rejected.push(RejectedCandidate {
                rank: c.rank,
                sql: sqls[i].clone(),
                reasons,
            });
        }

        // Satellite guardrail: when a clarification would have been
        // asked (close top-2 confidences), annotate the losing close
        // competitors instead of dropping the ambiguity silently.
        let interps: Vec<Interpretation> = set
            .candidates
            .iter()
            .map(|c| c.interpretation.clone())
            .collect();
        if crate::clarify::needs_clarification(&interps, CLARIFY_MARGIN) {
            for i in crate::clarify::close_competitors(&interps, CLARIFY_MARGIN) {
                if winner == Some(i) {
                    continue;
                }
                let margin = interps[0].confidence - set.candidates[i].interpretation.confidence;
                let note = crate::validate::Rejection::AmbiguousWithTop { margin };
                match rejected.iter_mut().find(|r| r.rank == i) {
                    Some(r) => r.reasons.push(note),
                    None => rejected.push(RejectedCandidate {
                        rank: i,
                        sql: sqls[i].clone(),
                        reasons: vec![note],
                    }),
                }
            }
        }
        rejected.sort_by_key(|r| r.rank);

        let Some(winner) = winner else {
            // Preserve bounded-ask refusal semantics: a cost veto on
            // the best-reranked candidate refuses as CostExceeded, as
            // the classic path would.
            let first = order[0];
            let first_cost = rejected
                .iter()
                .find(|r| r.rank == set.candidates[first].rank)
                .and_then(|r| {
                    r.reasons.iter().find_map(|x| match x {
                        crate::validate::Rejection::CostExceeded { estimated, ceiling } => {
                            Some((*estimated, *ceiling))
                        }
                        _ => None,
                    })
                });
            if let Some((estimated, ceiling)) = first_cost {
                return Err(InterpretError::CostExceeded { estimated, ceiling });
            }
            let reasons: Vec<String> = rejected.iter().map(ToString::to_string).collect();
            return Err(InterpretError::AllCandidatesRejected {
                count: set.len(),
                reasons: reasons.join("; "),
            });
        };

        let chosen = &set.candidates[winner];
        let report = ValidationReport {
            family: kind,
            candidate_count: set.len(),
            chosen_rank: chosen.rank,
            rejected,
            provenance_digest: chosen.provenance_digest(),
        };
        Ok((chosen.interpretation.clone(), report))
    }

    /// "Did you mean" suggestions for an unanswerable question: for
    /// each content word that failed to link, the closest ontology
    /// vocabulary by fuzzy similarity. The cooperative-failure path the
    /// survey's enterprise-adaption challenge asks for — silence with
    /// guidance beats a wrong answer.
    pub fn suggest(&self, question: &str) -> Vec<(String, Vec<String>)> {
        use nlidb_nlp::{is_stopword, mention_score, TokenKind};
        let q = PreparedQuestion::new(question, &self.ctx);
        let mut covered = vec![false; q.tokens.len()];
        for m in &q.mentions {
            for c in covered.iter_mut().skip(m.start).take(m.len) {
                *c = true;
            }
        }
        // Vocabulary pool: concept labels + property labels.
        let mut vocab: Vec<&str> = self
            .ctx
            .ontology
            .concepts
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        vocab.extend(
            self.ctx
                .ontology
                .data_properties
                .iter()
                .map(|p| p.label.as_str()),
        );
        let mut out = Vec::new();
        for (i, t) in q.tokens.iter().enumerate() {
            if covered[i]
                || t.kind != TokenKind::Word
                || is_stopword(&t.norm)
                || crate::linking::is_cue_word(&t.norm)
            {
                continue;
            }
            let mut scored: Vec<(&str, f64)> = vocab
                .iter()
                .map(|v| {
                    // Surface similarity catches typos the linker's
                    // threshold rejected; lexicon similarity catches
                    // vocabulary-gap words ("revenue" when the schema
                    // says "amount") through the synonym/hypernym
                    // taxonomy — the Lei-et-al. relaxation applied to
                    // cooperative failure.
                    let surface = mention_score(&t.norm, v);
                    let semantic = 0.8 * self.ctx.lexicon.similarity(&t.norm, v);
                    // Jaro noise sits around 0.6 for unrelated words of
                    // similar length; only strong surface matches count
                    // as typo repairs. Weaker evidence must come from
                    // the taxonomy.
                    let score = if surface >= 0.72 { surface } else { semantic };
                    (*v, score)
                })
                .filter(|(_, s)| *s >= 0.5)
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let suggestions: Vec<String> = scored
                .into_iter()
                .take(3)
                .map(|(v, _)| v.to_string())
                .collect();
            if !suggestions.is_empty() {
                out.push((t.norm.clone(), suggestions));
            }
        }
        out
    }
}

/// Compile-time proof that the serving runtime's sharing model is
/// sound: one pipeline behind an `Arc`, read concurrently by worker
/// threads. If any interpreter grows interior mutability that is not
/// thread-safe, this stops compiling rather than racing at runtime.
fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    let _ = assert_send_sync::<NliPipeline>;
    let _ = assert_send_sync::<SchemaContext>;
    let _ = assert_send_sync::<Answer>;
    let _ = assert_send_sync::<std::sync::Arc<NliPipeline>>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, TableSchema, Value};

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
        db
    }

    #[test]
    fn standard_builds_all_interpreters() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        for kind in InterpreterKind::all() {
            // Every family is addressable; untrained learned families
            // simply return nothing.
            let _ = nli.interpreter(kind);
        }
        assert_eq!(nli.database().name, "d");
        assert_eq!(nli.context().ontology.concepts.len(), 1);
    }

    #[test]
    fn ask_bounded_serves_specific_families() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        let a = nli
            .ask_bounded("show products in tools", InterpreterKind::Keyword, None)
            .unwrap();
        assert_eq!(a.sql, "SELECT * FROM products WHERE category = 'tools'");
        assert!(nli
            .ask_bounded("total price by category", InterpreterKind::Keyword, None)
            .is_err());
        assert!(nli
            .ask_bounded("total price by category", InterpreterKind::Pattern, None)
            .is_ok());
    }

    #[test]
    fn candidates_are_ranked() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        let cands = nli.candidates("show products in tools", InterpreterKind::Entity);
        assert!(!cands.is_empty());
        for w in cands.windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
    }

    #[test]
    fn ask_approved_agrees_with_ask_when_top_candidate_is_clean() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        let plain = nli
            .ask_bounded("show products in tools", InterpreterKind::Entity, None)
            .unwrap();
        let approved = nli
            .ask_approved(
                "show products in tools",
                InterpreterKind::Entity,
                None,
                None,
            )
            .unwrap();
        assert_eq!(approved.answer.sql, plain.sql);
        assert_eq!(approved.answer.result, plain.result);
        assert_eq!(approved.report.chosen_rank, 0);
        assert_eq!(approved.report.vetoed_count(), 0);
        assert_ne!(approved.report.provenance_digest, 0);
        assert_eq!(approved.report.family, InterpreterKind::Entity);
    }

    /// Mini clinic with a genuinely ambiguous value: "Austin" is a
    /// city of both doctors (many rows — the expensive join) and
    /// patients (few rows — the cheap one), so "show visits in Austin"
    /// has two candidate readings with different plan costs.
    fn ambiguous_db() -> Database {
        let mut db = Database::new("clinic");
        db.create_table(
            TableSchema::new("patients")
                .column("id", ColumnType::Int)
                .column("city", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("doctors")
                .column("id", ColumnType::Int)
                .column("city", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("visits")
                .column("id", ColumnType::Int)
                .column("patient_id", ColumnType::Int)
                .column("doctor_id", ColumnType::Int)
                .primary_key("id")
                .foreign_key("patient_id", "patients", "id")
                .foreign_key("doctor_id", "doctors", "id"),
        )
        .unwrap();
        for i in 0..2i64 {
            db.insert("patients", vec![Value::Int(i), Value::from("Austin")])
                .unwrap();
        }
        // The estimator prices a pass over n rows at 1 + n/64; the
        // doctor side must span several 64-row steps for the two
        // readings to price differently.
        for i in 0..500i64 {
            db.insert("doctors", vec![Value::Int(i), Value::from("Austin")])
                .unwrap();
        }
        for i in 0..4i64 {
            db.insert(
                "visits",
                vec![Value::Int(i), Value::Int(i % 2), Value::Int(i % 500)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn ask_approved_rescues_cheaper_candidate_under_cost_ceiling() {
        let db = ambiguous_db();
        let nli = NliPipeline::standard(&db);
        let q = "show visits in Austin";
        let cands = nli.candidates(q, InterpreterKind::Entity);
        assert!(cands.len() >= 2, "need a multi-candidate pool: {cands:?}");
        let costs: Vec<u64> = cands
            .iter()
            .map(|c| explain(nli.database(), &c.sql).est_cost)
            .collect();
        // A ceiling that vetoes the top but admits some lower-ranked
        // candidate turns a bounded-ask refusal into a rescue.
        let admissible = costs.iter().skip(1).min().copied().unwrap();
        let sqls: Vec<String> = cands.iter().map(|c| c.sql.to_string()).collect();
        assert!(
            costs[0] > admissible,
            "fixture should make the top candidate the expensive one: {costs:?} {sqls:?}"
        );
        assert!(matches!(
            nli.ask_bounded(q, InterpreterKind::Entity, Some(admissible)),
            Err(InterpretError::CostExceeded { .. })
        ));
        let approved = nli
            .ask_approved(q, InterpreterKind::Entity, Some(admissible), None)
            .unwrap();
        assert!(approved.report.chosen_rank > 0, "a lower candidate won");
        assert!(approved.report.vetoed_count() >= 1);
        assert!(approved
            .report
            .rejected
            .iter()
            .any(|r| r.reasons.iter().any(|x| x.label() == "cost_exceeded")));
    }

    #[test]
    fn ask_approved_preserves_cost_refusal_when_nothing_survives() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        let err = nli
            .ask_approved(
                "show products in tools",
                InterpreterKind::Entity,
                Some(0),
                None,
            )
            .unwrap_err();
        let InterpretError::CostExceeded { estimated, ceiling } = err else {
            panic!("expected CostExceeded, got {err:?}");
        };
        assert_eq!(ceiling, 0);
        assert!(estimated > 0);
        // Same outward behavior as the plain bounded path.
        assert!(matches!(
            nli.ask_bounded("show products in tools", InterpreterKind::Entity, Some(0)),
            Err(InterpretError::CostExceeded { .. })
        ));
    }

    #[test]
    fn ask_approved_surfaces_clarification_on_close_losers() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        let q = "show products in tools";
        let pool = nli.candidates(q, InterpreterKind::Entity);
        let close = crate::clarify::close_competitors(&pool, CLARIFY_MARGIN);
        let approved = nli
            .ask_approved(q, InterpreterKind::Entity, None, None)
            .unwrap();
        if crate::clarify::needs_clarification(&pool, CLARIFY_MARGIN) {
            for i in close {
                if i == approved.report.chosen_rank {
                    continue;
                }
                assert!(
                    approved.report.rejected.iter().any(|r| r.rank == i
                        && r.reasons.iter().any(|x| x.label() == "ambiguous_with_top")),
                    "close competitor {i} lost without an ambiguity annotation: {:?}",
                    approved.report.rejected
                );
            }
        }
        // The annotation alone must never veto a candidate.
        assert!(approved
            .report
            .rejected
            .iter()
            .all(|r| r.is_vetoed() || r.reasons.iter().all(|x| x.label() == "ambiguous_with_top")));
    }

    #[test]
    fn ask_approved_traced_matches_untraced_and_annotates_candidates() {
        use nlidb_obs::{Clock, ManualClock, TraceBuilder};
        use std::sync::Arc;
        let db = db();
        let nli = NliPipeline::standard(&db);
        let clock = Arc::new(ManualClock::new());
        let mut tb = TraceBuilder::new(0, clock.clone() as Arc<dyn Clock>);
        let traced = nli
            .ask_approved(
                "show products in tools",
                InterpreterKind::Entity,
                None,
                Some(&mut tb),
            )
            .unwrap();
        let plain = nli
            .ask_approved(
                "show products in tools",
                InterpreterKind::Entity,
                None,
                None,
            )
            .unwrap();
        assert_eq!(traced.answer.sql, plain.answer.sql);
        assert_eq!(
            traced.report.provenance_digest,
            plain.report.provenance_digest
        );
        let t = tb.finish();
        let p = t.root().unwrap();
        assert_eq!(p.attr("mode"), Some("approved"));
        assert_eq!(p.attr("outcome"), Some("answered"));
        assert_eq!(
            p.attr("candidates"),
            Some(plain.report.candidate_count.to_string().as_str())
        );
        assert_eq!(
            p.attr("chosen_rank"),
            Some(plain.report.chosen_rank.to_string().as_str())
        );
        for stage in ["tokenize", "link", "interpret", "sqlgen", "execute"] {
            assert_eq!(t.spans_named(stage).count(), 1, "missing stage {stage}");
        }
    }

    #[test]
    fn suggest_bridges_vocabulary_gaps() {
        let db = db();
        let nli = NliPipeline::standard(&db);
        // "cost" is a ring-mate of "price" and links directly via the
        // lexicon; "expenditure" is not in any ring → no link, and no
        // close vocabulary either.
        let s = nli.suggest("total revenue of products");
        assert!(
            s.iter()
                .any(|(w, sugg)| w == "revenue" && sugg.iter().any(|x| x == "price")),
            "{s:?}"
        );
        assert!(nli.suggest("show products").is_empty());
    }

    #[test]
    fn traced_ask_matches_untraced_and_records_stages() {
        use nlidb_obs::{Clock, ManualClock, TraceBuilder};
        use std::sync::Arc;
        let db = db();
        let nli = NliPipeline::standard(&db);
        let clock = Arc::new(ManualClock::new());
        let mut tb = TraceBuilder::new(0, clock.clone() as Arc<dyn Clock>);
        let traced = nli
            .ask_classic(
                "show products in tools",
                InterpreterKind::Entity,
                None,
                Some(&mut tb),
            )
            .unwrap();
        let plain = nli
            .ask_bounded("show products in tools", InterpreterKind::Entity, None)
            .unwrap();
        assert_eq!(traced.sql, plain.sql, "tracing never steers the pipeline");
        assert_eq!(traced.result, plain.result);
        let t = tb.finish();
        for stage in [
            "pipeline",
            "tokenize",
            "link",
            "interpret",
            "sqlgen",
            "execute",
        ] {
            assert_eq!(t.spans_named(stage).count(), 1, "missing stage {stage}");
        }
        let p = t.root().unwrap();
        assert_eq!(p.attr("family"), Some("entity"));
        assert_eq!(p.attr("outcome"), Some("answered"));
        assert_eq!(
            t.spans_named("sqlgen").next().unwrap().attr("sql"),
            Some("SELECT * FROM products WHERE category = 'tools'")
        );

        // A refusal is traced too, with the failing stage attributed.
        let mut tb = TraceBuilder::new(1, clock as Arc<dyn Clock>);
        assert!(nli
            .ask_classic(
                "colorless green ideas",
                InterpreterKind::Entity,
                None,
                Some(&mut tb)
            )
            .is_err());
        let t = tb.finish();
        assert_eq!(t.root().unwrap().attr("outcome"), Some("no_interpretation"));
        assert_eq!(t.spans_named("sqlgen").count(), 0, "died before SQL gen");
    }

    #[test]
    fn cost_ceiling_refuses_before_execution_and_annotates_plan() {
        use nlidb_obs::{Clock, ManualClock, TraceBuilder};
        use std::sync::Arc;
        let db = db();
        let nli = NliPipeline::standard(&db);
        let clock = Arc::new(ManualClock::new());

        // A generous ceiling admits; the execute span carries the plan.
        let mut tb = TraceBuilder::new(0, clock.clone() as Arc<dyn Clock>);
        let a = nli
            .ask_classic(
                "show products in tools",
                InterpreterKind::Entity,
                Some(u64::MAX),
                Some(&mut tb),
            )
            .unwrap();
        let plan = explain(&db, &a.query);
        assert_eq!(plan.shape, a.query.shape());
        let t = tb.finish();
        let exec = t.spans_named("execute").next().unwrap();
        assert_eq!(exec.attr("plan_shape"), Some(plan.shape.as_str()));
        assert_eq!(
            exec.attr("est_cost"),
            Some(plan.est_cost.to_string().as_str())
        );
        assert_eq!(
            exec.attr("est_rows"),
            Some(plan.est_rows.to_string().as_str())
        );

        // Ceiling zero refuses every plan, before the execute span.
        let mut tb = TraceBuilder::new(1, clock as Arc<dyn Clock>);
        let err = nli
            .ask_classic(
                "show products in tools",
                InterpreterKind::Entity,
                Some(0),
                Some(&mut tb),
            )
            .unwrap_err();
        assert!(matches!(err, InterpretError::CostExceeded { .. }));
        let t = tb.finish();
        assert_eq!(t.root().unwrap().attr("outcome"), Some("cost_exceeded"));
        assert_eq!(t.spans_named("execute").count(), 0, "never executed");
    }

    #[test]
    fn train_neural_activates_both_learned_paths() {
        use crate::neural::TrainingExample;
        let db = db();
        let mut nli = NliPipeline::standard(&db);
        assert!(nli
            .candidates("how many products", InterpreterKind::Neural)
            .is_empty());
        let train: Vec<TrainingExample> = [
            ("how many products", "SELECT COUNT(*) FROM products"),
            ("count the products", "SELECT COUNT(*) FROM products"),
            ("show all products", "SELECT * FROM products"),
            ("list products", "SELECT * FROM products"),
            (
                "average price of products",
                "SELECT AVG(price) FROM products",
            ),
        ]
        .iter()
        .map(|(q, s)| TrainingExample {
            question: q.to_string(),
            sql: nlidb_sqlir::parse_query(s).unwrap(),
        })
        .collect();
        nli.train_neural(&train, 5);
        assert!(!nli
            .candidates("how many products", InterpreterKind::Neural)
            .is_empty());
    }
}
