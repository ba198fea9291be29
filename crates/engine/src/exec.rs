//! Query execution, one row at a time.
//!
//! Pipeline: FROM → JOINs (hash join on equi-conjuncts, nested loop
//! otherwise) → WHERE → GROUP BY/aggregate → HAVING → project →
//! DISTINCT → ORDER BY → LIMIT. Sub-queries execute through the
//! evaluator's `EvalCtx::subquery`, which caches uncorrelated results.

use std::cell::RefCell;
use std::collections::HashMap;

use nlidb_sqlir::ast::{BinOp, ColumnRef, Expr, Join, JoinKind, Query, SelectItem, TableSource};

use crate::catalog::Database;
use crate::error::EngineError;
use crate::eval::{eval, eval_grouped, EvalCtx, RelSchema, Scope};
use crate::value::Value;

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Comparison key for one value: like [`Value::group_key`] but
    /// tolerant to floating-point summation-order noise (floats are
    /// rounded to 9 significant digits). Integers beyond 2⁵³ — where
    /// the rounded-float form would fold distinct values together —
    /// keep their exact decimal form instead; integral floats in that
    /// range take the same form so Int/Float unification survives.
    fn result_key(v: &Value) -> String {
        const EXACT_F64: f64 = 9_007_199_254_740_992.0; // 2⁵³
        match v {
            Value::Int(i) => {
                if i.unsigned_abs() > 1u64 << 53 {
                    format!("\u{2}{i}")
                } else {
                    format!("\u{2}{:.9e}", *i as f64)
                }
            }
            Value::Float(f) => {
                // Every f64 with |f| > 2⁵³ is integral already.
                if f.abs() > EXACT_F64 && crate::value::in_i64_range(*f) {
                    format!("\u{2}{}", *f as i64)
                } else {
                    format!("\u{2}{:.9e}", f)
                }
            }
            other => other.group_key(),
        }
    }

    /// Bag-equality (order-insensitive), the execution-accuracy notion
    /// used when the gold query has no ORDER BY. Rows key as vectors of
    /// per-value strings — never joined into one string, which would
    /// let a U+001F inside a value shift the key boundary.
    pub fn unordered_eq(&self, other: &ResultSet) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let key = |rows: &[Vec<Value>]| -> Vec<Vec<String>> {
            let mut keys: Vec<Vec<String>> = rows
                .iter()
                .map(|r| r.iter().map(Self::result_key).collect())
                .collect();
            keys.sort_unstable();
            keys
        };
        key(&self.rows) == key(&other.rows)
    }

    /// Sequence equality (order-sensitive), used when the gold query
    /// specifies ORDER BY.
    pub fn ordered_eq(&self, other: &ResultSet) -> bool {
        self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| Self::result_key(x) == Self::result_key(y))
            })
    }
}

/// Deterministic logical-work statistics for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Logical ticks charged: one per operator application — a row
    /// scanned, probed, joined, de-duplicated or sorted, or one
    /// expression node evaluated on one row.
    pub ticks: u64,
}

/// Execute `query` against `db`.
pub fn execute(db: &Database, query: &Query) -> Result<ResultSet, EngineError> {
    execute_with_stats(db, query).map(|(rs, _)| rs)
}

/// [`execute`], also reporting the logical ticks the run charged.
pub fn execute_with_stats(
    db: &Database,
    query: &Query,
) -> Result<(ResultSet, ExecStats), EngineError> {
    let ctx = EvalCtx {
        db,
        sub_cache: RefCell::new(HashMap::new()),
        ticks: std::cell::Cell::new(0),
    };
    let rs = exec_query(&ctx, query, None)?;
    Ok((
        rs,
        ExecStats {
            ticks: ctx.ticks.get(),
        },
    ))
}

/// [`execute_with_stats`] under its former row-engine name, kept for
/// the benchmark's traced mode, which still calls it.
pub fn execute_rowwise_with_stats(
    db: &Database,
    query: &Query,
) -> Result<(ResultSet, ExecStats), EngineError> {
    execute_with_stats(db, query)
}

/// Materialized intermediate relation.
struct Relation {
    schema: RelSchema,
    rows: Vec<Vec<Value>>,
}

fn relation_of(
    ctx: &EvalCtx<'_>,
    source: &TableSource,
    _outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    match source {
        TableSource::Table { name, alias } => {
            let table = ctx.db.table(name)?;
            ctx.charge(table.rows.len() as u64); // scan
            let mut schema = RelSchema::new();
            schema.push_binding(
                alias.clone().unwrap_or_else(|| name.clone()),
                table
                    .schema
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .collect(),
            );
            Ok(Relation {
                schema,
                rows: table.rows.clone(),
            })
        }
        TableSource::Subquery { query, alias } => {
            // Derived tables are uncorrelated by SQL scoping rules.
            let rs = exec_query(ctx, query, None)?;
            let mut schema = RelSchema::new();
            schema.push_binding(alias.clone(), rs.columns);
            Ok(Relation {
                schema,
                rows: rs.rows,
            })
        }
    }
}

/// Split an ON condition into equi-join pairs (left index, right index)
/// plus residual conjuncts. `pairs` stays empty when no equi-conjunct
/// is found.
fn split_equi(
    on: &Expr,
    left: &RelSchema,
    right: &RelSchema,
    conjuncts: &mut Vec<Expr>,
    pairs: &mut Vec<(usize, usize)>,
) {
    if let Expr::Binary {
        left: l,
        op: BinOp::And,
        right: r,
    } = on
    {
        split_equi(l, left, right, conjuncts, pairs);
        split_equi(r, left, right, conjuncts, pairs);
        return;
    }
    if let Expr::Binary {
        left: l,
        op: BinOp::Eq,
        right: r,
    } = on
    {
        if let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) {
            let try_pair = |x: &ColumnRef, y: &ColumnRef| -> Option<(usize, usize)> {
                let li = left.resolve(x).ok().flatten()?;
                let ri = right.resolve(y).ok().flatten()?;
                Some((li, ri))
            };
            if let Some(p) = try_pair(a, b).or_else(|| try_pair(b, a)) {
                pairs.push(p);
                return;
            }
        }
    }
    conjuncts.push(on.clone());
}

fn do_join(
    ctx: &EvalCtx<'_>,
    left: Relation,
    join: &Join,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    let right = relation_of(ctx, &join.source, outer)?;
    let mut combined = left.schema.clone();
    for (name, cols, _) in &right.schema.bindings {
        combined.push_binding(name.clone(), cols.clone());
    }
    let right_width = right.schema.width();

    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    split_equi(
        &join.on,
        &left.schema,
        &right.schema,
        &mut residual,
        &mut pairs,
    );

    let residual_ok = |row: &[Value]| -> Result<bool, EngineError> {
        let scope = Scope {
            schema: &combined,
            row,
            parent: outer,
        };
        for c in &residual {
            if !eval(ctx, c, &scope)?.is_true() {
                return Ok(false);
            }
        }
        Ok(true)
    };

    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    if !pairs.is_empty() {
        // Hash join: build on the right side. Composite keys stay
        // `Vec<String>` — joining per-column `group_key`s with a
        // separator would let a separator byte *inside* a value shift
        // the key boundary (`("a\u{1f}", "b")` vs `("a", "\u{1f}b")`)
        // and fabricate equi-join matches.
        ctx.charge((left.rows.len() + right.rows.len()) as u64); // build + probe
        let mut table: HashMap<Vec<String>, Vec<usize>> = HashMap::new();
        for (ri, rrow) in right.rows.iter().enumerate() {
            // NULL keys never match in SQL equi-joins.
            if pairs.iter().any(|(_, r)| rrow[*r].is_null()) {
                continue;
            }
            let key: Vec<String> = pairs.iter().map(|(_, r)| rrow[*r].group_key()).collect();
            table.entry(key).or_default().push(ri);
        }
        for lrow in &left.rows {
            let null_key = pairs.iter().any(|(l, _)| lrow[*l].is_null());
            let key: Vec<String> = pairs.iter().map(|(l, _)| lrow[*l].group_key()).collect();
            let mut matched = false;
            if !null_key {
                if let Some(ris) = table.get(&key) {
                    for &ri in ris {
                        let mut row = Vec::with_capacity(lrow.len() + right_width);
                        row.extend(lrow.iter().cloned());
                        row.extend(right.rows[ri].iter().cloned());
                        if residual_ok(&row)? {
                            matched = true;
                            out_rows.push(row);
                        }
                    }
                }
            }
            if !matched && join.kind == JoinKind::Left {
                let mut row = Vec::with_capacity(lrow.len() + right_width);
                row.extend(lrow.iter().cloned());
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                out_rows.push(row);
            }
        }
    } else {
        // Theta join: nested loop.
        ctx.charge((left.rows.len() * right.rows.len().max(1)) as u64);
        for lrow in &left.rows {
            let mut matched = false;
            for rrow in &right.rows {
                let mut row = Vec::with_capacity(lrow.len() + right_width);
                row.extend(lrow.iter().cloned());
                row.extend(rrow.iter().cloned());
                if residual_ok(&row)? {
                    matched = true;
                    out_rows.push(row);
                }
            }
            if !matched && join.kind == JoinKind::Left {
                let mut row = Vec::with_capacity(lrow.len() + right_width);
                row.extend(lrow.iter().cloned());
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                out_rows.push(row);
            }
        }
    }
    ctx.charge(out_rows.len() as u64); // row materialization
    Ok(Relation {
        schema: combined,
        rows: out_rows,
    })
}

/// Output column name for a select item.
fn item_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => a.clone(),
            None => match expr {
                Expr::Column(c) => c.column.clone(),
                other => other.to_string(),
            },
        },
    }
}

pub(crate) fn exec_query(
    ctx: &EvalCtx<'_>,
    q: &Query,
    outer: Option<&Scope<'_>>,
) -> Result<ResultSet, EngineError> {
    // FROM + JOINs.
    let mut rel = match &q.from {
        Some(src) => relation_of(ctx, src, outer)?,
        None => Relation {
            schema: RelSchema::new(),
            rows: vec![Vec::new()],
        },
    };
    for join in &q.joins {
        rel = do_join(ctx, rel, join, outer)?;
    }

    // WHERE.
    if let Some(pred) = &q.where_clause {
        let mut kept = Vec::with_capacity(rel.rows.len());
        for row in rel.rows {
            let scope = Scope {
                schema: &rel.schema,
                row: &row,
                parent: outer,
            };
            if eval(ctx, pred, &scope)?.is_true() {
                kept.push(row);
            }
        }
        rel.rows = kept;
    }

    // Output column names.
    let mut columns: Vec<String> = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Wildcard => columns.extend(rel.schema.display_names()),
            _ => columns.push(item_name(item)),
        }
    }

    // Sort-key plan: an ORDER BY expression that is a bare column
    // matching a select alias/name sorts by the projected value.
    let alias_index = |e: &Expr| -> Option<usize> {
        if let Expr::Column(ColumnRef {
            table: None,
            column,
        }) = e
        {
            // Only when the projection is all simple items (no wildcard
            // offsetting issues).
            if q.select.iter().all(|s| !matches!(s, SelectItem::Wildcard)) {
                return q.select.iter().position(|s| item_name(s) == *column).filter(|_| {
                    // Prefer relation columns if the name also resolves there
                    // and is not an explicit alias.
                    !matches!(
                        (rel.schema.resolve(&ColumnRef::bare(column)), q.select.iter().any(|s| matches!(s, SelectItem::Expr { alias: Some(a), .. } if a == column))),
                        (Ok(Some(_)), false)
                    )
                });
            }
        }
        None
    };

    // (projected row, sort keys)
    let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();

    if q.has_aggregation() {
        // Group rows.
        let mut groups: Vec<Vec<&Vec<Value>>> = Vec::new();
        if q.group_by.is_empty() {
            groups.push(rel.rows.iter().collect());
        } else {
            // Composite grouping keys stay `Vec<String>` for the same
            // boundary-shift reason as hash-join keys.
            let mut index: HashMap<Vec<String>, usize> = HashMap::new();
            for row in &rel.rows {
                let scope = Scope {
                    schema: &rel.schema,
                    row,
                    parent: outer,
                };
                let mut key = Vec::with_capacity(q.group_by.len());
                for g in &q.group_by {
                    key.push(eval(ctx, g, &scope)?.group_key());
                }
                match index.get(&key) {
                    Some(&i) => groups[i].push(row),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![row]);
                    }
                }
            }
        }
        for group in &groups {
            if let Some(h) = &q.having {
                if !eval_grouped(ctx, h, &rel.schema, group, outer)?.is_true() {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(q.select.len());
            for item in &q.select {
                match item {
                    SelectItem::Wildcard => match group.first() {
                        Some(row) => out.extend(row.iter().cloned()),
                        None => {
                            out.extend(std::iter::repeat_n(Value::Null, rel.schema.width()));
                        }
                    },
                    SelectItem::Expr { expr, .. } => {
                        out.push(eval_grouped(ctx, expr, &rel.schema, group, outer)?);
                    }
                }
            }
            let mut keys = Vec::with_capacity(q.order_by.len());
            for ob in &q.order_by {
                match alias_index(&ob.expr) {
                    Some(i) => keys.push(out[i].clone()),
                    None => keys.push(eval_grouped(ctx, &ob.expr, &rel.schema, group, outer)?),
                }
            }
            produced.push((out, keys));
        }
    } else {
        for row in &rel.rows {
            let scope = Scope {
                schema: &rel.schema,
                row,
                parent: outer,
            };
            let mut out = Vec::with_capacity(q.select.len());
            for item in &q.select {
                match item {
                    SelectItem::Wildcard => out.extend(row.iter().cloned()),
                    SelectItem::Expr { expr, .. } => out.push(eval(ctx, expr, &scope)?),
                }
            }
            let mut keys = Vec::with_capacity(q.order_by.len());
            for ob in &q.order_by {
                match alias_index(&ob.expr) {
                    Some(i) => keys.push(out[i].clone()),
                    None => keys.push(eval(ctx, &ob.expr, &scope)?),
                }
            }
            produced.push((out, keys));
        }
    }

    // DISTINCT — row keys as `Vec<String>`, never joined.
    if q.distinct {
        ctx.charge(produced.len() as u64);
        let mut seen: std::collections::HashSet<Vec<String>> = std::collections::HashSet::new();
        produced.retain(|(row, _)| {
            let key: Vec<String> = row.iter().map(Value::group_key).collect();
            seen.insert(key)
        });
    }

    // ORDER BY (stable).
    if !q.order_by.is_empty() {
        ctx.charge(produced.len() as u64);
        let dirs: Vec<bool> = q.order_by.iter().map(|o| o.asc).collect();
        produced.sort_by(|(_, ka), (_, kb)| {
            for ((a, b), asc) in ka.iter().zip(kb).zip(&dirs) {
                let ord = a.sort_cmp(b);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // LIMIT.
    let mut rows: Vec<Vec<Value>> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(l) = q.limit {
        rows.truncate(l as usize);
    }
    Ok(ResultSet { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, TableSchema};
    use nlidb_sqlir::parse_query;

    fn db() -> Database {
        let mut db = Database::new("t");
        db.create_table(
            TableSchema::new("people")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("age", ColumnType::Int)
                .column("city", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        let rows = [
            (1, "ann", 34, "austin"),
            (2, "bob", 28, "boston"),
            (3, "cat", 45, "austin"),
            (4, "dan", 28, "chicago"),
        ];
        for (id, n, a, c) in rows {
            db.insert(
                "people",
                vec![
                    Value::Int(id),
                    Value::from(n),
                    Value::Int(a),
                    Value::from(c),
                ],
            )
            .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> ResultSet {
        execute(db, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn select_wildcard() {
        let rs = run(&db(), "SELECT * FROM people");
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.columns, vec!["id", "name", "age", "city"]);
    }

    #[test]
    fn where_filters() {
        let rs = run(&db(), "SELECT name FROM people WHERE age > 30");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let rs = run(&db(), "SELECT name FROM people ORDER BY age DESC LIMIT 2");
        assert_eq!(rs.rows[0][0], Value::from("cat"));
        assert_eq!(rs.rows[1][0], Value::from("ann"));
    }

    #[test]
    fn order_by_alias() {
        let rs = run(
            &db(),
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city ORDER BY n DESC, city ASC",
        );
        assert_eq!(rs.rows[0][0], Value::from("austin"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn group_by_aggregates() {
        let rs = run(&db(), "SELECT city, AVG(age) FROM people GROUP BY city");
        assert_eq!(rs.rows.len(), 3);
        let austin = rs
            .rows
            .iter()
            .find(|r| r[0] == Value::from("austin"))
            .unwrap();
        assert_eq!(austin[1], Value::Float(39.5));
    }

    #[test]
    fn having_filters_groups() {
        let rs = run(
            &db(),
            "SELECT city FROM people GROUP BY city HAVING COUNT(*) > 1",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("austin"));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let rs = run(
            &db(),
            "SELECT COUNT(*), SUM(age) FROM people WHERE age > 100",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(rs.rows[0][1], Value::Null);
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_no_rows() {
        let rs = run(
            &db(),
            "SELECT city, COUNT(*) FROM people WHERE age > 100 GROUP BY city",
        );
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn distinct_dedups() {
        let rs = run(&db(), "SELECT DISTINCT age FROM people");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn count_distinct() {
        let rs = run(&db(), "SELECT COUNT(DISTINCT age) FROM people");
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn in_list_and_between() {
        let rs = run(
            &db(),
            "SELECT name FROM people WHERE city IN ('austin', 'boston')",
        );
        assert_eq!(rs.rows.len(), 3);
        let rs = run(&db(), "SELECT name FROM people WHERE age BETWEEN 28 AND 34");
        assert_eq!(rs.rows.len(), 3);
        let rs = run(
            &db(),
            "SELECT name FROM people WHERE age NOT BETWEEN 28 AND 34",
        );
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn like_filter() {
        let rs = run(&db(), "SELECT name FROM people WHERE name LIKE '%a%'");
        assert_eq!(rs.rows.len(), 3); // ann, cat, dan
    }

    #[test]
    fn arithmetic_projection() {
        let rs = run(&db(), "SELECT age * 2 FROM people WHERE id = 1");
        assert_eq!(rs.rows[0][0], Value::Int(68));
        let rs = run(&db(), "SELECT age / 0 FROM people WHERE id = 1");
        assert_eq!(rs.rows[0][0], Value::Null);
    }

    #[test]
    fn unordered_eq_semantics() {
        let a = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        let b = ResultSet {
            columns: vec!["y".into()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(1)]],
        };
        assert!(a.unordered_eq(&b));
        assert!(!a.ordered_eq(&b));
        // Int/Float unify.
        let c = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Float(1.0)], vec![Value::Float(2.0)]],
        };
        assert!(a.unordered_eq(&c));
    }

    #[test]
    fn ambiguous_bare_column_errors() {
        let mut db = db();
        db.create_table(
            TableSchema::new("pets")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("owner_id", ColumnType::Int),
        )
        .unwrap();
        db.insert(
            "pets",
            vec![Value::Int(1), Value::from("rex"), Value::Int(1)],
        )
        .unwrap();
        let q =
            parse_query("SELECT name FROM people JOIN pets ON people.id = pets.owner_id").unwrap();
        assert!(matches!(
            execute(&db, &q),
            Err(EngineError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut db = db();
        db.create_table(
            TableSchema::new("pets")
                .column("pid", ColumnType::Int)
                .column("pet_name", ColumnType::Text)
                .column("owner_id", ColumnType::Int),
        )
        .unwrap();
        db.insert(
            "pets",
            vec![Value::Int(1), Value::from("rex"), Value::Int(1)],
        )
        .unwrap();
        let rs = run(
            &db,
            "SELECT people.name, pet_name FROM people \
             LEFT JOIN pets ON people.id = pets.owner_id ORDER BY people.id ASC",
        );
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.rows[0][1], Value::from("rex"));
        assert_eq!(rs.rows[1][1], Value::Null);
    }

    #[test]
    fn theta_join_nested_loop() {
        let rs = run(
            &db(),
            "SELECT a.name, b.name FROM people AS a JOIN people AS b ON a.age < b.age \
             WHERE a.id = 2",
        );
        // bob(28) < ann(34), cat(45) → 2 rows.
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let rs = run(
            &db(),
            "SELECT name FROM people WHERE age > (SELECT AVG(age) FROM people)",
        );
        // avg = 33.75 → ann(34), cat(45).
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn correlated_subquery() {
        let rs = run(
            &db(),
            "SELECT name FROM people AS p WHERE age = \
             (SELECT MAX(age) FROM people WHERE city = p.city)",
        );
        // Oldest per city: cat (austin), bob (boston), dan (chicago).
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn from_subquery() {
        let rs = run(
            &db(),
            "SELECT d.city FROM (SELECT city, COUNT(*) AS n FROM people GROUP BY city) AS d \
             WHERE d.n > 1",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("austin"));
    }

    #[test]
    fn not_in_with_nulls_filters_all() {
        let mut db = db();
        db.create_table(TableSchema::new("maybe").column("v", ColumnType::Int))
            .unwrap();
        db.insert("maybe", vec![Value::Int(1)]).unwrap();
        db.insert("maybe", vec![Value::Null]).unwrap();
        // NOT IN over a list containing NULL is never TRUE in SQL.
        let rs = run(
            &db,
            "SELECT name FROM people WHERE id NOT IN (SELECT v FROM maybe)",
        );
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn exists_and_not_exists() {
        let rs = run(
            &db(),
            "SELECT name FROM people AS p WHERE EXISTS \
             (SELECT * FROM people WHERE city = p.city AND id <> p.id)",
        );
        assert_eq!(rs.rows.len(), 2); // the two austinites
        let rs = run(
            &db(),
            "SELECT name FROM people AS p WHERE NOT EXISTS \
             (SELECT * FROM people WHERE city = p.city AND id <> p.id)",
        );
        assert_eq!(rs.rows.len(), 2); // bob + dan
    }

    /// Two-column tables whose values embed U+001F so the *joined*
    /// key strings of non-matching rows coincide once each value
    /// carries its `group_key` tag (U+0003 for strings):
    /// `("a\u{1f}\u{3}", "b")` vs `("a", "\u{1f}\u{3}b")`.
    fn unit_sep_db() -> Database {
        let mut db = Database::new("sep");
        db.create_table(
            TableSchema::new("l")
                .column("k1", ColumnType::Text)
                .column("k2", ColumnType::Text),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("r")
                .column("k1", ColumnType::Text)
                .column("k2", ColumnType::Text)
                .column("tag", ColumnType::Text),
        )
        .unwrap();
        db.insert("l", vec![Value::from("a\u{1f}\u{3}"), Value::from("b")])
            .unwrap();
        db.insert(
            "r",
            vec![
                Value::from("a"),
                Value::from("\u{1f}\u{3}b"),
                Value::from("x"),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn join_keys_do_not_collide_across_boundaries() {
        // Regression: with `\u{1f}`-joined composite keys these two
        // rows hashed identically and the equi-join fabricated a match.
        let rs = run(
            &unit_sep_db(),
            "SELECT tag FROM l JOIN r ON l.k1 = r.k1 AND l.k2 = r.k2",
        );
        assert!(rs.rows.is_empty(), "false equi-join match on U+001F keys");
    }

    #[test]
    fn group_keys_do_not_collide_across_boundaries() {
        let mut db = unit_sep_db();
        db.insert("l", vec![Value::from("a"), Value::from("\u{1f}\u{3}b")])
            .unwrap();
        // Two distinct (k1, k2) pairs whose joined keys coincide must
        // stay two groups / two distinct rows.
        let rs = run(&db, "SELECT k1, k2, COUNT(*) FROM l GROUP BY k1, k2");
        assert_eq!(rs.rows.len(), 2);
        let rs = run(&db, "SELECT DISTINCT k1, k2 FROM l");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn large_integers_group_and_join_exactly() {
        // 2⁵³ and 2⁵³+1 collapse to the same f64; the old key encoding
        // merged them in GROUP BY, DISTINCT, and equi-joins.
        let a = 1i64 << 53;
        let mut db = Database::new("big");
        db.create_table(TableSchema::new("t").column("v", ColumnType::Int))
            .unwrap();
        db.create_table(TableSchema::new("u").column("v", ColumnType::Int))
            .unwrap();
        for v in [a, a + 1] {
            db.insert("t", vec![Value::Int(v)]).unwrap();
        }
        db.insert("u", vec![Value::Int(a)]).unwrap();
        let rs = run(&db, "SELECT v, COUNT(*) FROM t GROUP BY v");
        assert_eq!(rs.rows.len(), 2, "large ints merged in GROUP BY");
        let rs = run(&db, "SELECT DISTINCT v FROM t");
        assert_eq!(rs.rows.len(), 2, "large ints merged in DISTINCT");
        let rs = run(&db, "SELECT t.v FROM t JOIN u ON t.v = u.v");
        assert_eq!(rs.rows.len(), 1, "equi-join matched 2^53+1 against 2^53");
        assert_eq!(rs.rows[0][0], Value::Int(a));
    }

    #[test]
    fn negative_zero_groups_with_zero() {
        let mut db = Database::new("z");
        db.create_table(TableSchema::new("t").column("v", ColumnType::Float))
            .unwrap();
        db.insert("t", vec![Value::Float(-0.0)]).unwrap();
        db.insert("t", vec![Value::Float(0.0)]).unwrap();
        db.insert("t", vec![Value::Int(0)]).unwrap();
        let rs = run(&db, "SELECT v, COUNT(*) FROM t GROUP BY v");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Int(3));
    }

    #[test]
    fn execution_reports_ticks() {
        let db = db();
        let q = parse_query("SELECT name FROM people WHERE age > 30").unwrap();
        let (_, stats) = execute_with_stats(&db, &q).unwrap();
        // 4-row scan + per-row predicate evaluation + projection.
        assert!(stats.ticks > 4, "ticks should count scan + eval work");
        let (_, again) = execute_with_stats(&db, &q).unwrap();
        assert_eq!(stats, again, "tick accounting must be deterministic");
    }

    #[test]
    fn and_short_circuits_past_an_erroring_arm() {
        // `id LIKE` over an Int column errors, but only where the left
        // arm leaves the conjunction undecided.
        let db = db();
        let rs = run(
            &db,
            "SELECT name FROM people WHERE city = 'nowhere' AND id LIKE 'x%'",
        );
        assert!(rs.rows.is_empty());
        let q =
            parse_query("SELECT name FROM people WHERE city = 'austin' AND id LIKE 'x%'").unwrap();
        assert_eq!(
            execute(&db, &q),
            Err(EngineError::InvalidExpression(
                "LIKE applied to Int(1)".into()
            ))
        );
    }

    #[test]
    fn unknown_column_over_an_empty_table_is_never_resolved() {
        // Expressions are evaluated per row, so over zero rows a
        // misspelled column goes unnoticed and the answer is empty.
        let mut db = Database::new("e");
        db.create_table(TableSchema::new("t").column("v", ColumnType::Int))
            .unwrap();
        let q = parse_query("SELECT v FROM t WHERE ghost > 1").unwrap();
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs.columns, vec!["v"]);
        assert!(rs.rows.is_empty());
        // One row is enough to surface it.
        db.insert("t", vec![Value::Int(1)]).unwrap();
        assert_eq!(
            execute(&db, &q),
            Err(EngineError::UnknownColumn("ghost".into()))
        );
    }

    #[test]
    fn uncorrelated_subquery_cached() {
        // Executing twice through the same ctx should hit the cache;
        // observable behaviourally: results are correct and stable.
        let rs = run(
            &db(),
            "SELECT name FROM people WHERE age > (SELECT MIN(age) FROM people) \
             AND age < (SELECT MAX(age) FROM people)",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("ann"));
    }
}
