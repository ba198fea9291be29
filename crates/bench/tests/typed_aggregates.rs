//! The neural sketch scores SUM/AVG columns only among numeric ones —
//! the type-aware column choice of TypeSQL-class models. The stack
//! below is the wall-clock benchmark's retail stack at seed 4, where
//! the top-scoring AVG column for "quantity of products" is the text
//! column `product_name`; aggregating it would be refused at execution
//! (`SUM/AVG over Str(..)`).

use nlidb_bench::workloads::training_examples;
use nlidb_benchdata::{derive_slots, domain_database};
use nlidb_core::interpretation::InterpreterKind;
use nlidb_core::pipeline::NliPipeline;

#[test]
fn sum_and_avg_never_aggregate_a_text_column() {
    let db = domain_database("retail", 4);
    let slots = derive_slots(&db);
    let mut pipeline = NliPipeline::standard(&db);
    pipeline.train_neural(&training_examples(&slots, 105, 50, &[0, 1, 2, 3]), 206);
    let answer = pipeline
        .ask_bounded("quantity of products", InterpreterKind::Hybrid, None)
        .unwrap_or_else(|e| panic!("refused: {e}"));
    assert!(
        !answer.sql.contains("AVG(product_name)"),
        "served {}",
        answer.sql
    );
}
