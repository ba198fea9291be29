//! Deterministic pre-execution validation — the "Plan → Approve" half
//! of the candidate workflow.
//!
//! [`validate_candidate`] inspects a candidate's SQL-IR *without
//! executing it* and returns every reason it should be rejected:
//! schema validity against the ontology (unknown tables/columns),
//! shape checks on the IR (the AST is SELECT-only, so structural
//! read-only-ness is given; degenerate shapes are not), grounding of
//! string-equality literals in the actual column data (a point lookup,
//! not a query run), and the logical-cost ceiling from
//! [`nlidb_engine::explain`]. All checks are catalog/data lookups with
//! deterministic order — no RNG, no wall-clock — so the same candidate
//! always collects the identical rejection list.
//!
//! [`cost_gate`] is the single enforcement point for a cost ceiling:
//! the pipeline's plain ask path and the approved path both call it,
//! making the ceiling a validation-layer input rather than a post-hoc
//! refusal.

use nlidb_engine::{explain, Database, Explain, Value};
use nlidb_ontology::Ontology;
use nlidb_sqlir::ast::TableSource;
use nlidb_sqlir::Query;

use crate::error::InterpretError;

/// One reason a candidate was rejected (or, for
/// [`Rejection::AmbiguousWithTop`], annotated) before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// A referenced table is not a concept of the ontology.
    UnknownTable {
        /// The unresolved table name.
        table: String,
    },
    /// A referenced column belongs to no referenced concept.
    UnknownColumn {
        /// The unresolved column name.
        column: String,
    },
    /// The IR has a degenerate shape that cannot answer anything.
    MalformedShape {
        /// Which shape check failed.
        reason: &'static str,
    },
    /// A `column = 'literal'` filter whose literal appears nowhere in
    /// that column's data — the query would return an empty (almost
    /// surely wrong) answer, so it is rejected without running.
    UngroundedValue {
        /// The filtered column, rendered `table.column`.
        column: String,
        /// The literal that failed to ground.
        value: String,
    },
    /// Estimated plan cost exceeds the tenant's ceiling.
    CostExceeded {
        /// Estimated logical-tick cost.
        estimated: u64,
        /// The ceiling it exceeded.
        ceiling: u64,
    },
    /// Annotation, not a veto: this losing candidate was within the
    /// clarification margin of the winner — a clarification would have
    /// been asked (see `crate::clarify`).
    AmbiguousWithTop {
        /// Confidence gap to the top candidate.
        margin: f64,
    },
}

impl Rejection {
    /// Short machine-readable label, stable for journals and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Rejection::UnknownTable { .. } => "unknown_table",
            Rejection::UnknownColumn { .. } => "unknown_column",
            Rejection::MalformedShape { .. } => "malformed_shape",
            Rejection::UngroundedValue { .. } => "ungrounded_value",
            Rejection::CostExceeded { .. } => "cost_exceeded",
            Rejection::AmbiguousWithTop { .. } => "ambiguous_with_top",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::UnknownTable { table } => write!(f, "unknown table {table}"),
            Rejection::UnknownColumn { column } => write!(f, "unknown column {column}"),
            Rejection::MalformedShape { reason } => write!(f, "malformed shape: {reason}"),
            Rejection::UngroundedValue { column, value } => {
                write!(f, "value {value:?} not grounded in {column}")
            }
            Rejection::CostExceeded { estimated, ceiling } => {
                write!(f, "plan cost {estimated} exceeds ceiling {ceiling}")
            }
            Rejection::AmbiguousWithTop { margin } => {
                write!(f, "within clarification margin of top ({margin:.3})")
            }
        }
    }
}

/// The single `cost_ceiling` enforcement point: refuse when the plan's
/// estimate exceeds the ceiling. Both `ask` and `ask_approved` route
/// through here, so a cost refusal means the same on either path.
pub fn cost_gate(plan: &Explain, ceiling: Option<u64>) -> Result<(), InterpretError> {
    if let Some(ceiling) = ceiling {
        if plan.est_cost > ceiling {
            return Err(InterpretError::CostExceeded {
                estimated: plan.est_cost,
                ceiling,
            });
        }
    }
    Ok(())
}

/// Validate one candidate query before execution. Returns every
/// rejection in deterministic order (shape, tables, columns, values,
/// cost); an empty vector means the candidate is approved for
/// execution. Checks recurse through sub-queries.
pub fn validate_candidate(
    db: &Database,
    ontology: &Ontology,
    query: &Query,
    cost_ceiling: Option<u64>,
) -> Vec<Rejection> {
    let mut out = Vec::new();

    // Shape checks: degenerate IR no interpreter should ship.
    if query.select.is_empty() {
        out.push(Rejection::MalformedShape {
            reason: "empty select list",
        });
    }
    if query.having.is_some() && !query.has_aggregation() {
        out.push(Rejection::MalformedShape {
            reason: "having without aggregation",
        });
    }
    if query.limit == Some(0) {
        out.push(Rejection::MalformedShape { reason: "limit 0" });
    }

    // Schema validity against the ontology.
    let tables = query.referenced_tables();
    let mut seen_tables: Vec<&str> = Vec::new();
    for t in &tables {
        if seen_tables.contains(&t.as_str()) {
            continue;
        }
        seen_tables.push(t);
        if ontology.concept_for_table(t).is_none() {
            out.push(Rejection::UnknownTable { table: t.clone() });
        }
    }

    let bindings = table_bindings(query);
    let mut seen_cols: Vec<String> = Vec::new();
    for cr in query.referenced_columns() {
        let rendered = match &cr.table {
            Some(t) => format!("{t}.{}", cr.column),
            None => cr.column.clone(),
        };
        if seen_cols.contains(&rendered) {
            continue;
        }
        seen_cols.push(rendered.clone());
        if !column_is_known(ontology, &bindings, &cr.table, &cr.column) {
            out.push(Rejection::UnknownColumn { column: rendered });
        }
    }

    // Value grounding: every string-equality literal must exist in the
    // column it filters (point lookup against the stored data).
    let mut seen_vals: Vec<(String, String)> = Vec::new();
    for (cr, value) in query.string_equalities() {
        let Some((table, col)) = resolve_column(db, &bindings, &cr.table, &cr.column) else {
            continue; // unresolvable: already reported as unknown
        };
        let key = (format!("{table}.{col}"), value.clone());
        if seen_vals.contains(&key) {
            continue;
        }
        if !value_exists(db, &table, &col, &value) {
            out.push(Rejection::UngroundedValue {
                column: key.0.clone(),
                value,
            });
        }
        seen_vals.push(key);
    }

    // Cost ceiling, via the same gate the plain ask path enforces.
    if let Err(InterpretError::CostExceeded { estimated, ceiling }) =
        cost_gate(&explain(db, query), cost_ceiling)
    {
        out.push(Rejection::CostExceeded { estimated, ceiling });
    }

    out
}

/// `(binding name, base table)` pairs for every named base-table
/// source, recursively. Derived-table aliases are returned with an
/// empty table name so qualified references through them are treated
/// as opaque (validated inside the sub-query instead).
fn table_bindings(query: &Query) -> Vec<(String, String)> {
    fn source(src: &TableSource, out: &mut Vec<(String, String)>) {
        match src {
            TableSource::Table { name, alias } => {
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                out.push((binding, name.clone()));
            }
            TableSource::Subquery { alias, .. } => out.push((alias.clone(), String::new())),
        }
    }
    fn walk(q: &Query, out: &mut Vec<(String, String)>) {
        if let Some(src) = &q.from {
            source(src, out);
        }
        for j in &q.joins {
            source(&j.source, out);
        }
        for sq in q.direct_subqueries() {
            walk(sq, out);
        }
    }
    let mut out = Vec::new();
    walk(query, &mut out);
    out
}

/// Is `column` (optionally qualified by a binding name) a column of
/// some referenced concept — a data property, a primary key, or a
/// join-edge column?
fn column_is_known(
    ontology: &Ontology,
    bindings: &[(String, String)],
    qualifier: &Option<String>,
    column: &str,
) -> bool {
    let candidate_tables: Vec<&str> = match qualifier {
        Some(q) => {
            let Some((_, table)) = bindings.iter().find(|(b, _)| b == q) else {
                return false; // qualifier names no source at all
            };
            if table.is_empty() {
                return true; // derived table: opaque, checked inside
            }
            vec![table.as_str()]
        }
        None => bindings
            .iter()
            .filter(|(_, t)| !t.is_empty())
            .map(|(_, t)| t.as_str())
            .collect(),
    };
    candidate_tables.iter().any(|t| {
        let Some(concept) = ontology.concept_for_table(t) else {
            return false; // table already reported unknown
        };
        concept.primary_key.as_deref() == Some(column)
            || ontology
                .properties_of(&concept.label)
                .iter()
                .any(|p| p.column == column)
            || ontology
                .relationships_of(&concept.label)
                .iter()
                .any(|r| r.from_column == column || r.to_column == column)
    })
}

/// Resolve a (possibly qualified) column reference to a concrete
/// `(table, column)` pair in the database catalog, or `None` when it
/// cannot be pinned to exactly one base table that has the column.
fn resolve_column(
    db: &Database,
    bindings: &[(String, String)],
    qualifier: &Option<String>,
    column: &str,
) -> Option<(String, String)> {
    let has_col = |table: &str| {
        db.table(table)
            .is_ok_and(|t| t.schema.column_index(column).is_some())
    };
    match qualifier {
        Some(q) => bindings
            .iter()
            .find(|(b, _)| b == q)
            .filter(|(_, t)| !t.is_empty() && has_col(t))
            .map(|(_, t)| (t.clone(), column.to_string())),
        None => {
            let mut hits = bindings
                .iter()
                .filter(|(_, t)| !t.is_empty() && has_col(t))
                .map(|(_, t)| t.as_str());
            let first = hits.next()?;
            if hits.any(|t| t != first) {
                return None; // ambiguous across tables: don't guess
            }
            Some((first.to_string(), column.to_string()))
        }
    }
}

/// Point lookup: does `table.column` hold the exact string `value` in
/// any row? Exact comparison, matching the engine's equality semantics
/// — a literal that differs only by case would still return an empty
/// result, so it still fails to ground.
fn value_exists(db: &Database, table: &str, column: &str, value: &str) -> bool {
    let Ok(t) = db.table(table) else {
        return false;
    };
    let Some(idx) = t.schema.column_index(column) else {
        return false;
    };
    t.rows
        .iter()
        .any(|r| matches!(r.get(idx), Some(Value::Str(s)) if s == value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, TableSchema};
    use nlidb_ontology::generate_ontology;
    use nlidb_sqlir::parse_query;

    fn db() -> Database {
        let mut db = Database::new("shop");
        db.create_table(
            TableSchema::new("customers")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("city", ColumnType::Text),
        )
        .unwrap();
        for (i, (n, c)) in [("alice", "Austin"), ("bob", "Boston")].iter().enumerate() {
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

    fn check(sql: &str, ceiling: Option<u64>) -> Vec<Rejection> {
        let db = db();
        let onto = generate_ontology(&db);
        validate_candidate(&db, &onto, &parse_query(sql).unwrap(), ceiling)
    }

    #[test]
    fn valid_grounded_query_passes() {
        assert!(check("SELECT name FROM customers WHERE city = 'Austin'", None).is_empty());
    }

    #[test]
    fn unknown_table_and_column_are_rejected() {
        let r = check("SELECT x FROM ghosts", None);
        assert!(r.iter().any(|x| x.label() == "unknown_table"), "{r:?}");
        let r = check("SELECT shoe_size FROM customers", None);
        assert_eq!(
            r,
            vec![Rejection::UnknownColumn {
                column: "shoe_size".to_string()
            }]
        );
    }

    #[test]
    fn ungrounded_value_is_rejected_with_exact_semantics() {
        let r = check("SELECT name FROM customers WHERE city = 'Paris'", None);
        assert_eq!(
            r,
            vec![Rejection::UngroundedValue {
                column: "customers.city".to_string(),
                value: "Paris".to_string()
            }]
        );
        // Case differs -> engine equality would return empty -> reject.
        let r = check("SELECT name FROM customers WHERE city = 'austin'", None);
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].label(), "ungrounded_value");
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        let r = check("SELECT name FROM customers LIMIT 0", None);
        assert!(r.iter().any(|x| x.label() == "malformed_shape"), "{r:?}");
    }

    #[test]
    fn cost_gate_matches_validation_cost_check() {
        let db = db();
        let onto = generate_ontology(&db);
        let q = parse_query("SELECT name FROM customers").unwrap();
        let plan = explain(&db, &q);
        assert!(cost_gate(&plan, Some(plan.est_cost)).is_ok());
        let err = cost_gate(&plan, Some(plan.est_cost - 1)).unwrap_err();
        assert!(matches!(err, InterpretError::CostExceeded { .. }));
        let r = validate_candidate(&db, &onto, &q, Some(plan.est_cost - 1));
        assert_eq!(
            r,
            vec![Rejection::CostExceeded {
                estimated: plan.est_cost,
                ceiling: plan.est_cost - 1
            }]
        );
    }

    #[test]
    fn rejections_recurse_into_subqueries() {
        let r = check(
            "SELECT name FROM customers WHERE id = (SELECT MAX(id) FROM ghosts)",
            None,
        );
        assert!(r
            .iter()
            .any(|x| matches!(x, Rejection::UnknownTable { table } if table == "ghosts")));
    }
}
