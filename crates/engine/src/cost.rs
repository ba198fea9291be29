//! Deterministic cardinality estimation and logical-cost `EXPLAIN`.
//!
//! [`explain`] walks the query AST against catalog row counts only —
//! no data inspection, no RNG, no wall-clock — so the same (database,
//! query) pair always renders the identical plan. `est_cost` is in the
//! estimator's own units: a scan, filter, key, projection or
//! de-duplication pass over `n` rows costs `1 + n/64`, while nested
//! loops, aggregation and sorts pay one per row. No executor charges
//! these units — [`crate::execute_with_stats`] counts one tick per
//! operator application, and E18 sets the two side by side — but the
//! estimate is deterministic and known before anything runs, which
//! makes `est_cost` a usable admission signal: a cost ceiling passed
//! to an ask refuses a plan whose estimate exceeds it before
//! execution, and `serve`'s overload controller sheds repeats whose
//! (positive) plan cost it has already learned.
//!
//! The estimator is a *total* function: unknown tables estimate as
//! empty rather than erroring, so admission control never rejects a
//! query the engine could have answered with a proper error.

use nlidb_sqlir::ast::{BinOp, Expr, JoinKind, Query, SelectItem, TableSource};

use crate::catalog::Database;

/// A rendered logical plan with its estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// Structural plan-shape label from [`Query::shape`].
    pub shape: String,
    /// Estimated output rows.
    pub est_rows: u64,
    /// Estimated logical cost in ticks.
    pub est_cost: u64,
    lines: Vec<String>,
}

impl Explain {
    /// Deterministic multi-line plan rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "EXPLAIN {} (est_rows={}, est_cost={})\n",
            self.shape, self.est_rows, self.est_cost
        );
        for l in &self.lines {
            out.push_str("  ");
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// Split a predicate into its AND-conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Selectivity divisor for one conjunct: `est_out = est_in / divisor`.
/// Coarse textbook defaults — equality is most selective, negations
/// barely filter.
fn selectivity_div(e: &Expr) -> u64 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Eq => 4,
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 3,
            BinOp::NotEq => 2,
            BinOp::Or => 2,
            _ => 2,
        },
        Expr::Between { .. } => 3,
        Expr::InList { .. } | Expr::InSubquery { .. } => 3,
        Expr::Like { .. } => 2,
        Expr::IsNull { .. } => 5,
        Expr::Exists { .. } => 2,
        Expr::Unary { .. } => 2,
        _ => 2,
    }
}

/// Does the ON condition carry at least one column-to-column equality
/// (the executor's hash-join trigger)?
fn has_equi(on: &Expr) -> bool {
    conjuncts(on).iter().any(|c| {
        matches!(
            c,
            Expr::Binary {
                left,
                op: BinOp::Eq,
                right
            } if matches!((left.as_ref(), right.as_ref()), (Expr::Column(_), Expr::Column(_)))
        )
    })
}

fn vec_op(n: u64) -> u64 {
    1 + n / 64
}

/// Scale `est` down by `div`, never estimating a non-empty input to
/// zero rows.
fn scale_down(est: u64, div: u64) -> u64 {
    if est == 0 {
        0
    } else {
        (est / div).max(1)
    }
}

/// Sub-queries reachable from scalar positions (WHERE/HAVING/SELECT) —
/// FROM/JOIN derived tables are costed by the source walk instead.
fn scalar_subqueries(q: &Query) -> Vec<&Query> {
    fn from_expr<'a>(e: &'a Expr, out: &mut Vec<&'a Query>) {
        match e {
            Expr::InSubquery { subquery, expr, .. } => {
                out.push(subquery);
                from_expr(expr, out);
            }
            Expr::Exists { subquery, .. } => out.push(subquery),
            Expr::ScalarSubquery(sq) => out.push(sq),
            Expr::Binary { left, right, .. } => {
                from_expr(left, out);
                from_expr(right, out);
            }
            Expr::Unary { expr, .. } => from_expr(expr, out),
            Expr::Between {
                expr, low, high, ..
            } => {
                from_expr(expr, out);
                from_expr(low, out);
                from_expr(high, out);
            }
            Expr::InList { expr, list, .. } => {
                from_expr(expr, out);
                for e in list {
                    from_expr(e, out);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    from_expr(a, out);
                }
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => from_expr(expr, out),
            Expr::Column(_) | Expr::Literal(_) => {}
        }
    }
    let mut out = Vec::new();
    if let Some(w) = &q.where_clause {
        from_expr(w, &mut out);
    }
    if let Some(h) = &q.having {
        from_expr(h, &mut out);
    }
    for s in &q.select {
        if let SelectItem::Expr { expr, .. } = s {
            from_expr(expr, &mut out);
        }
    }
    out
}

/// (rows, scan cost, descriptive line) for one FROM/JOIN source.
fn source_estimate(db: &Database, source: &TableSource, lines: &mut Vec<String>) -> (u64, u64) {
    match source {
        TableSource::Table { name, .. } => match db.table(name) {
            Ok(t) => {
                let n = t.rows.len() as u64;
                let width = t.schema.columns.len() as u64;
                lines.push(format!("scan {name} (rows={n})"));
                (n, width * vec_op(n))
            }
            Err(_) => {
                lines.push(format!("scan {name} (rows=0, unknown table)"));
                (0, 1)
            }
        },
        TableSource::Subquery { query, alias } => {
            let sub = explain(db, query);
            lines.push(format!(
                "derived {alias} {} (est_rows={}, est_cost={})",
                sub.shape, sub.est_rows, sub.est_cost
            ));
            (sub.est_rows, sub.est_cost)
        }
    }
}

/// Estimate `q` against `db`: cardinalities from catalog row counts and
/// coarse selectivities, cost in the estimator's units (module docs).
pub fn explain(db: &Database, q: &Query) -> Explain {
    let mut lines = Vec::new();
    let mut cost: u64 = 0;

    let mut est = match &q.from {
        Some(src) => {
            let (rows, c) = source_estimate(db, src, &mut lines);
            cost = cost.saturating_add(c);
            rows
        }
        None => 1,
    };

    for join in &q.joins {
        let (r, c) = source_estimate(db, &join.source, &mut lines);
        cost = cost.saturating_add(c);
        let equi = has_equi(&join.on);
        let mut joined = if equi {
            // Key-foreign-key assumption: output near the larger side.
            est.max(r)
        } else {
            // Theta joins keep a third of the cross product.
            scale_down(est.saturating_mul(r), 3)
        };
        if equi {
            cost = cost.saturating_add(vec_op(est) + vec_op(r) + vec_op(joined));
        } else {
            // Nested loop pays the full cross product at row rate.
            cost = cost.saturating_add(est.saturating_mul(r.max(1)));
        }
        if join.kind == JoinKind::Left {
            joined = joined.max(est);
        }
        let label = if equi { "hash_join" } else { "nested_loop" };
        let kind = match join.kind {
            JoinKind::Inner => "inner",
            JoinKind::Left => "left",
        };
        lines.push(format!(
            "{label} {kind} (left={est}, right={r}, est={joined})"
        ));
        est = joined;
    }

    if let Some(w) = &q.where_clause {
        let cs = conjuncts(w);
        cost = cost.saturating_add(cs.len() as u64 * vec_op(est));
        for c in &cs {
            est = scale_down(est, selectivity_div(c));
        }
        lines.push(format!("filter {} conjuncts (est={est})", cs.len()));
    }

    if q.has_aggregation() {
        let groups = if q.group_by.is_empty() {
            1
        } else {
            scale_down(est, 3)
        };
        // One pass per grouping key plus per-row aggregate evaluation.
        cost = cost
            .saturating_add(q.group_by.len() as u64 * vec_op(est))
            .saturating_add(est);
        lines.push(format!(
            "aggregate {} keys (est={groups})",
            q.group_by.len()
        ));
        est = groups;
    }

    cost = cost.saturating_add(q.select.len() as u64 * vec_op(est));

    if q.distinct {
        if est > 1 {
            est = (est * 2 / 3).max(1);
        }
        cost = cost.saturating_add(vec_op(est));
        lines.push(format!("distinct (est={est})"));
    }

    if !q.order_by.is_empty() {
        cost = cost.saturating_add(est);
        lines.push(format!("sort {} keys (est={est})", q.order_by.len()));
    }

    if let Some(l) = q.limit {
        est = est.min(l);
        lines.push(format!("limit {l} (est={est})"));
    }

    // Scalar-position sub-queries execute at least once each (the
    // engine caches uncorrelated ones, so charge a single run).
    for sq in scalar_subqueries(q) {
        let sub = explain(db, sq);
        cost = cost.saturating_add(sub.est_cost);
        lines.push(format!(
            "subplan {} (est_rows={}, est_cost={})",
            sub.shape, sub.est_rows, sub.est_cost
        ));
    }

    Explain {
        shape: q.shape(),
        est_rows: est,
        est_cost: cost,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, TableSchema};
    use crate::value::Value;
    use nlidb_sqlir::parse_query;

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("a")
                .column("id", ColumnType::Int)
                .column("bid", ColumnType::Int),
        )
        .unwrap();
        db.create_table(TableSchema::new("b").column("id", ColumnType::Int))
            .unwrap();
        for i in 0..100i64 {
            db.insert("a", vec![Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        for i in 0..10i64 {
            db.insert("b", vec![Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn explain_is_deterministic() {
        let db = db();
        let q = parse_query(
            "SELECT a.id FROM a JOIN b ON a.bid = b.id WHERE a.id > 5 ORDER BY a.id LIMIT 3",
        )
        .unwrap();
        let e1 = explain(&db, &q);
        let e2 = explain(&db, &q);
        assert_eq!(e1, e2);
        assert_eq!(e1.render(), e2.render());
        assert!(e1.render().starts_with("EXPLAIN q-join1-filter-sort-limit"));
        assert_eq!(e1.est_rows, 3);
    }

    #[test]
    fn joins_cost_more_than_scans() {
        let db = db();
        let scan = explain(&db, &parse_query("SELECT id FROM a").unwrap());
        let join = explain(
            &db,
            &parse_query("SELECT a.id FROM a JOIN b ON a.bid = b.id").unwrap(),
        );
        let theta = explain(
            &db,
            &parse_query("SELECT a.id FROM a JOIN b ON a.id < b.id").unwrap(),
        );
        assert!(join.est_cost > scan.est_cost);
        assert!(
            theta.est_cost > join.est_cost,
            "nested loop dwarfs hash join"
        );
    }

    #[test]
    fn unknown_tables_estimate_empty_without_error() {
        let db = db();
        let e = explain(&db, &parse_query("SELECT x FROM ghost").unwrap());
        assert_eq!(e.est_rows, 0);
        assert!(e.render().contains("unknown table"));
    }

    #[test]
    fn subqueries_add_cost() {
        let db = db();
        let flat = explain(&db, &parse_query("SELECT id FROM a WHERE id > 3").unwrap());
        let nested = explain(
            &db,
            &parse_query("SELECT id FROM a WHERE id > (SELECT MAX(id) FROM b)").unwrap(),
        );
        assert!(nested.est_cost > flat.est_cost);
        assert!(nested.render().contains("subplan"));
    }
}
