#![warn(missing_docs)]

//! # nlidb-core — the natural-language-interface framework
//!
//! This crate instantiates the survey's §4 taxonomy as five runnable
//! interpreter families over a common substrate:
//!
//! | Module | Paper family | Representative systems |
//! |---|---|---|
//! | [`keyword`] | entity-based (index lookup) | SODA, Précis, QUICK |
//! | [`pattern`] | entity-based (NL patterns) | SQAK, NLQ/OWL frontends |
//! | [`entity`] | entity-based (ontology-driven) | ATHENA, NaLIR, USI Answers |
//! | [`neural`] | machine-learning-based | Seq2SQL, SQLNet, TypeSQL, DBPal |
//! | [`hybrid`] | hybrid | QUEST, MEANS |
//!
//! All families implement [`Interpreter`], producing ranked
//! [`Interpretation`]s: a SQL AST plus a confidence and an explanation
//! trace. [`oql`] is the ontology-level intermediate query language
//! (ATHENA's OQL) that the entity-based interpreters emit before SQL
//! translation. [`clarify`] implements NaLIR/DialSQL-style multi-choice
//! clarification, and [`pipeline`] wires everything into a one-call
//! facade. [`fallback`] turns the family ordering into a graceful
//! degradation ladder for serving layers: when a preferred family is
//! faulted, answer with the next family down and say so.
//!
//! [`candidates`] and [`validate`] add the Ask → Plan → Approve
//! guardrail workflow: every family's ranked pool becomes a
//! [`CandidateSet`] with token-level provenance, a deterministic
//! validation pass filters candidates *before* execution
//! (schema-validity, shape, value grounding, cost ceiling), and
//! [`NliPipeline::ask_approved`](pipeline::NliPipeline::ask_approved)
//! executes the first survivor with a full [`ValidationReport`].

pub mod candidates;
pub mod clarify;
pub mod entity;
pub mod error;
pub mod fallback;
pub mod hybrid;
pub mod interpretation;
pub mod keyword;
pub mod linking;
pub mod neural;
pub mod oql;
pub mod pattern;
pub mod pipeline;
pub mod signals;
pub mod validate;

pub use candidates::{Candidate, CandidateSet, Grounding};
pub use error::InterpretError;
pub use fallback::DEGRADATION_LADDER;
pub use interpretation::{Interpretation, Interpreter, InterpreterKind};
/// The workspace's FNV-1a, re-exported for `nlidb-serve`, which
/// depends on this crate but not on `nlidb-nlp` directly.
pub use nlidb_nlp::{fnv1a, FNV1A_OFFSET};
pub use oql::{Oql, OqlExpr, OqlPredicate, PropRef};
pub use pipeline::{ApprovedAnswer, NliPipeline, SchemaContext, ValidationReport};
pub use validate::Rejection;
