#![warn(missing_docs)]

//! # nlidb-evalkit — metrics and reporting
//!
//! §6 ("Evaluating NLID is a non-trivial task"): the kit implements
//! the metrics the experiments score with — *execution accuracy*
//! (same results when run) and precision/recall/F1 over answered
//! questions (the enterprise adaption framing: "increase the precision
//! while maintaining high recall") — plus the ASCII table renderer
//! every experiment in EXPERIMENTS.md prints through.

pub mod metrics;
pub mod table;

pub use metrics::{execution_match, EvalOutcome};
pub use table::Table;
