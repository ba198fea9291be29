//! Columnar (batch-vectorized) execution engine.
//!
//! The default [`execute`] entry point. Relations flow through the
//! pipeline as `Batch`es — one [`ColumnVec`] per column — and
//! predicates/projections evaluate column-at-a-time through
//! `eval_columns`. Hash joins and hash aggregation key on vectorized
//! per-column [`Value::group_key`] strings (held as `Vec<String>`,
//! never concatenated — see the U+001F boundary-collision bug fixed in
//! `exec.rs`).
//!
//! # Equivalence contract
//!
//! The batch engine is **row-identical** to the row-at-a-time reference
//! engine in `exec.rs`: joins emit in left-row probe order, groups form
//! in first-seen order, DISTINCT keeps first occurrences, and ORDER BY
//! uses the same stable sort. Experiment E18 asserts equivalence over
//! the full generated SQL corpus and byte-identical output across two
//! runs; the unit tests in `exec.rs` run every query through both
//! engines.
//!
//! # Cost model
//!
//! Work is charged in logical ticks on [`EvalCtx::ticks`]. A row-wise
//! operator application costs 1 tick (`eval` charges itself); a
//! vectorized column operation costs `1 + n / VECTOR_WIDTH` ticks,
//! modeling per-batch dispatch amortized over a 64-lane vector. Code
//! paths that cannot vectorize — sub-query-bearing expressions,
//! residual theta predicates, nested-loop joins — fall back to per-row
//! `eval` and pay the row rate. Ticks are deterministic (no wall-clock)
//! so they are comparable across engines and byte-reproducible.

use std::cell::RefCell;
use std::collections::HashMap;

use nlidb_sqlir::ast::{BinOp, ColumnRef, Expr, Join, JoinKind, Query, SelectItem, TableSource};

use crate::catalog::Database;
use crate::error::EngineError;
use crate::eval::{
    binary_op, eval, eval_grouped, literal_value, sql_like, EvalCtx, RelSchema, Scope,
};
use crate::exec::{item_name, split_equi, ExecStats, ResultSet};
use crate::value::Value;

/// Lanes per vector dispatch: one amortized tick covers 64 rows.
pub const VECTOR_WIDTH: u64 = 64;

/// One column of values.
pub type ColumnVec = Vec<Value>;

/// Tick cost of one vectorized operation over `n` rows.
pub(crate) fn vec_cost(n: usize) -> u64 {
    1 + n as u64 / VECTOR_WIDTH
}

/// A columnar relation: `width()` columns of equal length.
pub(crate) struct Batch {
    pub(crate) schema: RelSchema,
    pub(crate) columns: Vec<ColumnVec>,
    pub(crate) len: usize,
}

impl Batch {
    fn from_rows(schema: RelSchema, rows: &[Vec<Value>]) -> Self {
        let width = schema.width();
        let mut columns = vec![Vec::with_capacity(rows.len()); width];
        for row in rows {
            for (c, v) in row.iter().enumerate() {
                columns[c].push(v.clone());
            }
        }
        Batch {
            schema,
            columns,
            len: rows.len(),
        }
    }

    /// Gather row `i` (for per-row fallback scopes).
    fn row_at(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Gather the rows in `keep`, in order.
    fn select(&self, keep: &[usize], ctx: &EvalCtx<'_>) -> Batch {
        ctx.charge(self.columns.len() as u64 * vec_cost(keep.len()));
        Batch {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| keep.iter().map(|&i| c[i].clone()).collect())
                .collect(),
            len: keep.len(),
        }
    }
}

/// Execute `query` against `db` with the batch engine.
pub fn execute(db: &Database, query: &Query) -> Result<ResultSet, EngineError> {
    execute_with_stats(db, query).map(|(rs, _)| rs)
}

/// Batch engine entry point that also reports logical tick counts.
pub fn execute_with_stats(
    db: &Database,
    query: &Query,
) -> Result<(ResultSet, ExecStats), EngineError> {
    let ctx = EvalCtx {
        db,
        sub_cache: RefCell::new(HashMap::new()),
        exec: batch_entry,
        ticks: std::cell::Cell::new(0),
    };
    let rs = exec_batch(&ctx, query, None)?;
    Ok((
        rs,
        ExecStats {
            ticks: ctx.ticks.get(),
        },
    ))
}

fn batch_entry(
    ctx: &EvalCtx<'_>,
    q: &Query,
    scope: Option<&Scope<'_>>,
) -> Result<ResultSet, EngineError> {
    exec_batch(ctx, q, scope)
}

fn batch_of(
    ctx: &EvalCtx<'_>,
    source: &TableSource,
    _outer: Option<&Scope<'_>>,
) -> Result<Batch, EngineError> {
    match source {
        TableSource::Table { name, alias } => {
            let table = ctx.db.table(name)?;
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
            // Columnar scan: one vectorized load per column.
            ctx.charge(schema.width() as u64 * vec_cost(table.rows.len()));
            Ok(Batch::from_rows(schema, &table.rows))
        }
        TableSource::Subquery { query, alias } => {
            // Derived tables are uncorrelated by SQL scoping rules.
            let rs = exec_batch(ctx, query, None)?;
            let mut schema = RelSchema::new();
            schema.push_binding(alias.clone(), rs.columns);
            ctx.charge(schema.width() as u64 * vec_cost(rs.rows.len()));
            Ok(Batch::from_rows(schema, &rs.rows))
        }
    }
}

fn and3(l: Value, r: Value) -> Value {
    match (l, r) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn or3(l: Value, r: Value) -> Value {
    match (l, r) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

fn bool3(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

/// Evaluate `expr` row-by-row through the scalar evaluator — used for
/// sub-query-bearing expressions and to reproduce exact short-circuit
/// semantics when a vectorized AND/OR arm errors.
fn per_row(
    ctx: &EvalCtx<'_>,
    expr: &Expr,
    batch: &Batch,
    outer: Option<&Scope<'_>>,
) -> Result<ColumnVec, EngineError> {
    let mut out = Vec::with_capacity(batch.len);
    for i in 0..batch.len {
        let row = batch.row_at(i);
        let scope = Scope {
            schema: &batch.schema,
            row: &row,
            parent: outer,
        };
        out.push(eval(ctx, expr, &scope)?);
    }
    Ok(out)
}

/// Vectorized expression evaluation: one [`ColumnVec`] out per batch
/// in. Sub-query-bearing expressions fall back to [`per_row`] (the
/// sub-query cache still makes uncorrelated ones cheap). On an empty
/// batch no evaluation happens at all — matching the row engine, which
/// never resolves columns it never reads.
pub(crate) fn eval_columns(
    ctx: &EvalCtx<'_>,
    expr: &Expr,
    batch: &Batch,
    outer: Option<&Scope<'_>>,
) -> Result<ColumnVec, EngineError> {
    let n = batch.len;
    if n == 0 {
        return Ok(Vec::new());
    }
    if expr.contains_subquery() {
        return per_row(ctx, expr, batch, outer);
    }
    ctx.charge(vec_cost(n));
    match expr {
        Expr::Column(c) => {
            if let Some(i) = batch.schema.resolve(c)? {
                Ok(batch.columns[i].clone())
            } else if let Some(p) = outer {
                // Correlated reference: constant within this batch.
                let v = p.lookup(c)?;
                Ok(vec![v; n])
            } else {
                Err(EngineError::UnknownColumn(match &c.table {
                    Some(t) => format!("{t}.{}", c.column),
                    None => c.column.clone(),
                }))
            }
        }
        Expr::Literal(l) => Ok(vec![literal_value(l); n]),
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            let l = eval_columns(ctx, left, batch, outer)?;
            if l.iter().all(|v| matches!(v, Value::Bool(false))) {
                return Ok(l);
            }
            match eval_columns(ctx, right, batch, outer) {
                Ok(r) => Ok(l.into_iter().zip(r).map(|(a, b)| and3(a, b)).collect()),
                // The row engine would skip the erroring arm wherever
                // the left side already decided; replay row-by-row.
                Err(_) => per_row(ctx, expr, batch, outer),
            }
        }
        Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let l = eval_columns(ctx, left, batch, outer)?;
            if l.iter().all(|v| matches!(v, Value::Bool(true))) {
                return Ok(l);
            }
            match eval_columns(ctx, right, batch, outer) {
                Ok(r) => Ok(l.into_iter().zip(r).map(|(a, b)| or3(a, b)).collect()),
                Err(_) => per_row(ctx, expr, batch, outer),
            }
        }
        Expr::Binary { left, op, right } => {
            let l = eval_columns(ctx, left, batch, outer)?;
            let r = eval_columns(ctx, right, batch, outer)?;
            l.iter()
                .zip(&r)
                .map(|(a, b)| binary_op(a, *op, b))
                .collect()
        }
        Expr::Unary { op, expr: inner } => {
            use nlidb_sqlir::ast::UnaryOp;
            let col = eval_columns(ctx, inner, batch, outer)?;
            col.into_iter()
                .map(|v| match op {
                    UnaryOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        Value::Null => Ok(Value::Null),
                        other => Err(EngineError::InvalidExpression(format!(
                            "NOT applied to {other:?}"
                        ))),
                    },
                    UnaryOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        Value::Null => Ok(Value::Null),
                        other => Err(EngineError::InvalidExpression(format!(
                            "negation of {other:?}"
                        ))),
                    },
                })
                .collect()
        }
        Expr::Agg { .. } => Err(EngineError::InvalidExpression(
            "aggregate outside aggregation context".into(),
        )),
        Expr::InList {
            expr: needle,
            list,
            negated,
        } => {
            let v = eval_columns(ctx, needle, batch, outer)?;
            let items: Vec<ColumnVec> = list
                .iter()
                .map(|e| eval_columns(ctx, e, batch, outer))
                .collect::<Result<_, _>>()?;
            Ok((0..n)
                .map(|i| {
                    if v[i].is_null() {
                        return Value::Null;
                    }
                    let mut saw_null = false;
                    for item in &items {
                        match v[i].sql_eq(&item[i]) {
                            Some(true) => return Value::Bool(!negated),
                            Some(false) => {}
                            None => saw_null = true,
                        }
                    }
                    if saw_null {
                        Value::Null
                    } else {
                        Value::Bool(*negated)
                    }
                })
                .collect())
        }
        Expr::Between {
            expr: mid,
            low,
            high,
            negated,
        } => {
            let v = eval_columns(ctx, mid, batch, outer)?;
            let lo = eval_columns(ctx, low, batch, outer)?;
            let hi = eval_columns(ctx, high, batch, outer)?;
            Ok((0..n)
                .map(|i| {
                    let ge = v[i].compare(&lo[i]).map(|o| o != std::cmp::Ordering::Less);
                    let le = v[i]
                        .compare(&hi[i])
                        .map(|o| o != std::cmp::Ordering::Greater);
                    let within = match (ge, le) {
                        (Some(a), Some(b)) => Some(a && b),
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        _ => None,
                    };
                    bool3(within.map(|w| w != *negated))
                })
                .collect())
        }
        Expr::Like {
            expr: inner,
            pattern,
            negated,
        } => {
            let col = eval_columns(ctx, inner, batch, outer)?;
            col.into_iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(Value::Bool(sql_like(&s, pattern) != *negated)),
                    Value::Null => Ok(Value::Null),
                    other => Err(EngineError::InvalidExpression(format!(
                        "LIKE applied to {other:?}"
                    ))),
                })
                .collect()
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            let col = eval_columns(ctx, inner, batch, outer)?;
            Ok(col
                .into_iter()
                .map(|v| Value::Bool(v.is_null() != *negated))
                .collect())
        }
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {
            unreachable!("sub-query expressions take the per_row path")
        }
    }
}

/// Vectorized per-column grouping keys for `cols[i]` of each row.
fn key_columns(ctx: &EvalCtx<'_>, cols: &[&ColumnVec], len: usize) -> Vec<Vec<String>> {
    cols.iter()
        .map(|c| {
            ctx.charge(vec_cost(len));
            c.iter().map(Value::group_key).collect()
        })
        .collect()
}

fn join_batch(
    ctx: &EvalCtx<'_>,
    left: Batch,
    join: &Join,
    outer: Option<&Scope<'_>>,
) -> Result<Batch, EngineError> {
    let right = batch_of(ctx, &join.source, outer)?;
    let mut combined = left.schema.clone();
    for (name, cols, _) in &right.schema.bindings {
        combined.push_binding(name.clone(), cols.clone());
    }

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

    // (left row, right row | NULL padding), in probe order — the exact
    // emission order of the row engine.
    let mut emit: Vec<(usize, Option<usize>)> = Vec::new();
    if !pairs.is_empty() {
        // Vectorized hash join: per-column key strings, then one
        // amortized build pass and one probe pass.
        let lcols: Vec<&ColumnVec> = pairs.iter().map(|(l, _)| &left.columns[*l]).collect();
        let rcols: Vec<&ColumnVec> = pairs.iter().map(|(_, r)| &right.columns[*r]).collect();
        let lkeys = key_columns(ctx, &lcols, left.len);
        let rkeys = key_columns(ctx, &rcols, right.len);
        ctx.charge(vec_cost(right.len) + vec_cost(left.len));
        let mut table: HashMap<Vec<String>, Vec<usize>> = HashMap::new();
        for ri in 0..right.len {
            // NULL keys never match in SQL equi-joins.
            if rcols.iter().any(|c| c[ri].is_null()) {
                continue;
            }
            let key: Vec<String> = rkeys.iter().map(|k| k[ri].clone()).collect();
            table.entry(key).or_default().push(ri);
        }
        for li in 0..left.len {
            let null_key = lcols.iter().any(|c| c[li].is_null());
            let mut matched = false;
            if !null_key {
                let key: Vec<String> = lkeys.iter().map(|k| k[li].clone()).collect();
                if let Some(ris) = table.get(&key) {
                    if residual.is_empty() {
                        matched = !ris.is_empty();
                        emit.extend(ris.iter().map(|&ri| (li, Some(ri))));
                    } else {
                        // Residual conjuncts need full-row scopes: pay
                        // the row rate per candidate (eval charges).
                        for &ri in ris {
                            let mut row = left.row_at(li);
                            row.extend(right.row_at(ri));
                            if residual_ok(&row)? {
                                matched = true;
                                emit.push((li, Some(ri)));
                            }
                        }
                    }
                }
            }
            if !matched && join.kind == JoinKind::Left {
                emit.push((li, None));
            }
        }
    } else {
        // Theta join: nested loop at row rate, like the row engine.
        ctx.charge((left.len * right.len.max(1)) as u64);
        for li in 0..left.len {
            let mut matched = false;
            for ri in 0..right.len {
                let mut row = left.row_at(li);
                row.extend(right.row_at(ri));
                if residual_ok(&row)? {
                    matched = true;
                    emit.push((li, Some(ri)));
                }
            }
            if !matched && join.kind == JoinKind::Left {
                emit.push((li, None));
            }
        }
    }

    // Gather output columns from the emission list.
    let width = combined.width();
    ctx.charge(width as u64 * vec_cost(emit.len()));
    let mut columns: Vec<ColumnVec> = Vec::with_capacity(width);
    for c in &left.columns {
        columns.push(emit.iter().map(|&(li, _)| c[li].clone()).collect());
    }
    for c in &right.columns {
        columns.push(
            emit.iter()
                .map(|&(_, ri)| match ri {
                    Some(ri) => c[ri].clone(),
                    None => Value::Null,
                })
                .collect(),
        );
    }
    Ok(Batch {
        schema: combined,
        columns,
        len: emit.len(),
    })
}

fn exec_batch(
    ctx: &EvalCtx<'_>,
    q: &Query,
    outer: Option<&Scope<'_>>,
) -> Result<ResultSet, EngineError> {
    // FROM + JOINs.
    let mut batch = match &q.from {
        Some(src) => batch_of(ctx, src, outer)?,
        None => Batch {
            schema: RelSchema::new(),
            columns: Vec::new(),
            len: 1,
        },
    };
    for join in &q.joins {
        batch = join_batch(ctx, batch, join, outer)?;
    }

    // WHERE: vectorized mask, then gather.
    if let Some(pred) = &q.where_clause {
        let mask = eval_columns(ctx, pred, &batch, outer)?;
        let keep: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_true())
            .map(|(i, _)| i)
            .collect();
        if keep.len() != batch.len {
            batch = batch.select(&keep, ctx);
        }
    }

    // Output column names.
    let mut columns: Vec<String> = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Wildcard => columns.extend(batch.schema.display_names()),
            _ => columns.push(item_name(item)),
        }
    }

    // Sort-key plan (same rule as the row engine): a bare ORDER BY
    // column matching a select alias/name sorts by the projected value.
    let alias_index = |e: &Expr| -> Option<usize> {
        if let Expr::Column(ColumnRef {
            table: None,
            column,
        }) = e
        {
            if q.select.iter().all(|s| !matches!(s, SelectItem::Wildcard)) {
                return q.select.iter().position(|s| item_name(s) == *column).filter(|_| {
                    !matches!(
                        (batch.schema.resolve(&ColumnRef::bare(column)), q.select.iter().any(|s| matches!(s, SelectItem::Expr { alias: Some(a), .. } if a == column))),
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
        // Hash aggregation: vectorized grouping-key columns, then
        // first-seen group formation over row indexes.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if q.group_by.is_empty() {
            groups.push((0..batch.len).collect());
        } else {
            let mut gcols: Vec<Vec<String>> = Vec::with_capacity(q.group_by.len());
            for g in &q.group_by {
                let col = eval_columns(ctx, g, &batch, outer)?;
                ctx.charge(vec_cost(batch.len));
                gcols.push(col.iter().map(Value::group_key).collect());
            }
            let mut index: HashMap<Vec<String>, usize> = HashMap::new();
            for i in 0..batch.len {
                let key: Vec<String> = gcols.iter().map(|c| c[i].clone()).collect();
                match index.get(&key) {
                    Some(&g) => groups[g].push(i),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![i]);
                    }
                }
            }
        }
        // Aggregate evaluation works over materialized group rows —
        // shared with the row engine via `eval_grouped`.
        ctx.charge(batch.columns.len() as u64 * vec_cost(batch.len));
        let rows: Vec<Vec<Value>> = (0..batch.len).map(|i| batch.row_at(i)).collect();
        for group_idx in &groups {
            let group: Vec<&Vec<Value>> = group_idx.iter().map(|&i| &rows[i]).collect();
            if let Some(h) = &q.having {
                if !eval_grouped(ctx, h, &batch.schema, &group, outer)?.is_true() {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(q.select.len());
            for item in &q.select {
                match item {
                    SelectItem::Wildcard => match group.first() {
                        Some(row) => out.extend(row.iter().cloned()),
                        None => {
                            out.extend(std::iter::repeat_n(Value::Null, batch.schema.width()));
                        }
                    },
                    SelectItem::Expr { expr, .. } => {
                        out.push(eval_grouped(ctx, expr, &batch.schema, &group, outer)?);
                    }
                }
            }
            let mut keys = Vec::with_capacity(q.order_by.len());
            for ob in &q.order_by {
                match alias_index(&ob.expr) {
                    Some(i) => keys.push(out[i].clone()),
                    None => keys.push(eval_grouped(ctx, &ob.expr, &batch.schema, &group, outer)?),
                }
            }
            produced.push((out, keys));
        }
    } else {
        // Vectorized projection: one column per select expression.
        let mut out_cols: Vec<ColumnVec> = Vec::new();
        for item in &q.select {
            match item {
                SelectItem::Wildcard => {
                    ctx.charge(batch.columns.len() as u64 * vec_cost(batch.len));
                    out_cols.extend(batch.columns.iter().cloned());
                }
                SelectItem::Expr { expr, .. } => {
                    out_cols.push(eval_columns(ctx, expr, &batch, outer)?)
                }
            }
        }
        let mut key_cols: Vec<ColumnVec> = Vec::new();
        for ob in &q.order_by {
            match alias_index(&ob.expr) {
                Some(i) => {
                    ctx.charge(vec_cost(batch.len));
                    key_cols.push(out_cols[i].clone());
                }
                None => key_cols.push(eval_columns(ctx, &ob.expr, &batch, outer)?),
            }
        }
        produced = (0..batch.len)
            .map(|i| {
                (
                    out_cols.iter().map(|c| c[i].clone()).collect(),
                    key_cols.iter().map(|c| c[i].clone()).collect(),
                )
            })
            .collect();
    }

    // DISTINCT — vectorized key columns, first occurrence kept.
    if q.distinct {
        ctx.charge(columns.len() as u64 * vec_cost(produced.len()));
        let mut seen: std::collections::HashSet<Vec<String>> = std::collections::HashSet::new();
        produced.retain(|(row, _)| {
            let key: Vec<String> = row.iter().map(Value::group_key).collect();
            seen.insert(key)
        });
    }

    // ORDER BY (stable) — comparison sorts stay at row rate.
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
    use crate::exec::execute_rowwise_with_stats;
    use nlidb_sqlir::parse_query;

    fn shop() -> Database {
        let mut db = Database::new("shop");
        db.create_table(
            TableSchema::new("customers")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("city", ColumnType::Text),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("orders")
                .column("oid", ColumnType::Int)
                .column("customer_id", ColumnType::Int)
                .column("amount", ColumnType::Float),
        )
        .unwrap();
        for i in 0..40i64 {
            db.insert(
                "customers",
                vec![
                    Value::Int(i),
                    Value::Str(format!("c{i}")),
                    Value::Str(format!("city{}", i % 5)),
                ],
            )
            .unwrap();
            db.insert(
                "orders",
                vec![
                    Value::Int(100 + i),
                    Value::Int(i % 10),
                    Value::Float((i * 7 % 13) as f64 + 0.5),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn batch_matches_row_engine_and_costs_less_on_joins() {
        let db = shop();
        let sql = "SELECT customers.city, SUM(amount) AS total FROM customers \
                   JOIN orders ON customers.id = orders.customer_id \
                   WHERE amount > 2 GROUP BY customers.city ORDER BY total DESC";
        let q = parse_query(sql).unwrap();
        let (row_rs, row_stats) = execute_rowwise_with_stats(&db, &q).unwrap();
        let (batch_rs, batch_stats) = execute_with_stats(&db, &q).unwrap();
        assert_eq!(row_rs, batch_rs);
        assert!(
            batch_stats.ticks < row_stats.ticks,
            "batch {} should undercut row {} on a join-heavy plan",
            batch_stats.ticks,
            row_stats.ticks
        );
    }

    #[test]
    fn batch_ticks_are_deterministic() {
        let db = shop();
        let q = parse_query("SELECT city, COUNT(*) FROM customers WHERE id < 30 GROUP BY city")
            .unwrap();
        let a = execute_with_stats(&db, &q).unwrap();
        let b = execute_with_stats(&db, &q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn vectorized_and_preserves_short_circuit_on_errors() {
        // `name LIKE` over an Int column errors; rows where the left
        // arm is false must still pass silently, exactly as row-wise.
        let db = shop();
        let q = parse_query("SELECT name FROM customers WHERE city = 'city1' AND id LIKE 'x%'")
            .unwrap();
        let row = execute_rowwise_with_stats(&db, &q).map(|(rs, _)| rs);
        let batch = execute(&db, &q);
        assert_eq!(row.is_err(), batch.is_err());
    }

    #[test]
    fn empty_batch_skips_vectorized_evaluation() {
        let mut db = Database::new("e");
        db.create_table(TableSchema::new("t").column("v", ColumnType::Int))
            .unwrap();
        // Row engine never evaluates over zero rows, so an unknown
        // column goes unnoticed; the batch engine must match.
        let q = parse_query("SELECT v FROM t WHERE ghost > 1").unwrap();
        assert_eq!(
            execute(&db, &q),
            execute_rowwise_with_stats(&db, &q).map(|(r, _)| r)
        );
    }
}
