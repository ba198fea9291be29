#![warn(missing_docs)]

//! # nlidb-engine — in-memory relational engine
//!
//! The execution substrate of the reproduction. Every interpreter
//! family emits [`nlidb_sqlir`] ASTs; this engine executes them so
//! the evaluation kit can measure *execution accuracy* (same results),
//! not just string-match accuracy — the metric the survey's benchmark
//! discussion (§6) centers on.
//!
//! Supported surface: single-table selection, aggregation with GROUP
//! BY / HAVING, DISTINCT, inner/left equi- and theta-joins, ORDER BY /
//! LIMIT, and sub-queries (`IN`, `EXISTS`, scalar, derived tables)
//! including correlated forms — i.e. all four rungs of the survey's
//! complexity ladder.
//!
//! Design: deterministic and single-threaded, with **one executor**.
//! [`execute`] runs a row-at-a-time, volcano-lite pipeline ([`exec`])
//! and [`execute_with_stats`] also reports the logical ticks it
//! charged: one per operator application. Hash joins are used for
//! equi-join conjuncts, keyed per column so no separator byte inside a
//! value can shift a key boundary; anything else falls back to nested
//! loops. [`cost`] estimates cardinality and logical cost per plan
//! ([`explain`]) from the catalog alone: the pipeline refuses a plan
//! over an ask's cost ceiling before executing it and records the
//! estimate on its execute span, and E18 sets the estimates beside
//! the ticks actually charged.

pub mod catalog;
pub mod cost;
pub mod error;
mod eval;
pub mod exec;
pub mod value;

pub use catalog::{Column, ColumnType, Database, ForeignKey, Table, TableSchema};
pub use cost::{explain, Explain};
pub use error::EngineError;
pub use exec::{execute, execute_rowwise_with_stats, execute_with_stats, ExecStats, ResultSet};
pub use value::Value;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use nlidb_sqlir::parse_query;

    fn db() -> Database {
        let mut db = Database::new("shop");
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
        for (id, name, city) in [
            (1, "Ada", "Austin"),
            (2, "Bo", "Boston"),
            (3, "Cy", "Austin"),
        ] {
            db.insert(
                "customers",
                vec![Value::Int(id), Value::from(name), Value::from(city)],
            )
            .unwrap();
        }
        for (id, cid, amt) in [(10, 1, 50.0), (11, 1, 70.0), (12, 2, 20.0)] {
            db.insert(
                "orders",
                vec![Value::Int(id), Value::Int(cid), Value::Float(amt)],
            )
            .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> ResultSet {
        execute(db, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn end_to_end_selection() {
        let db = db();
        let rs = run(&db, "SELECT name FROM customers WHERE city = 'Austin'");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn end_to_end_join_aggregate() {
        let db = db();
        let rs = run(
            &db,
            "SELECT c.name, SUM(o.amount) AS total FROM customers AS c \
             JOIN orders AS o ON c.id = o.customer_id \
             GROUP BY c.name ORDER BY SUM(o.amount) DESC",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::from("Ada"));
        assert_eq!(rs.rows[0][1], Value::Float(120.0));
    }

    #[test]
    fn end_to_end_nested() {
        let db = db();
        let rs = run(
            &db,
            "SELECT name FROM customers WHERE id NOT IN (SELECT customer_id FROM orders)",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Cy"));
    }

    #[test]
    fn end_to_end_correlated_exists() {
        let db = db();
        let rs = run(
            &db,
            "SELECT name FROM customers WHERE EXISTS \
             (SELECT * FROM orders WHERE orders.customer_id = customers.id \
              AND orders.amount > 60.0)",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Ada"));
    }
}
