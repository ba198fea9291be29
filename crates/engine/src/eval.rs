//! Scalar expression evaluation with scope chains (for correlated
//! sub-queries) and grouped evaluation (for aggregate contexts).

use std::cell::RefCell;
use std::collections::HashMap;

use nlidb_sqlir::ast::{AggFunc, BinOp, ColumnRef, Expr, Literal, Query, UnaryOp};

use crate::catalog::Database;
use crate::error::EngineError;
use crate::exec::{exec_query, ResultSet};
use crate::value::Value;

/// Column layout of a (possibly joined) relation: each binding is one
/// FROM/JOIN source with its columns at a fixed offset.
#[derive(Debug, Clone, Default)]
pub struct RelSchema {
    /// (binding name, column names, starting offset).
    pub bindings: Vec<(String, Vec<String>, usize)>,
    width: usize,
}

impl RelSchema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a binding; returns its starting offset.
    pub fn push_binding(&mut self, name: impl Into<String>, columns: Vec<String>) -> usize {
        let offset = self.width;
        self.width += columns.len();
        self.bindings.push((name.into(), columns, offset));
        offset
    }

    /// Total number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Resolve a column reference to a flat row index within this
    /// relation. `Ok(None)` means "not found here" (the caller may try
    /// an outer scope); ambiguity is an error.
    pub fn resolve(&self, col: &ColumnRef) -> Result<Option<usize>, EngineError> {
        match &col.table {
            Some(t) => {
                for (name, cols, offset) in &self.bindings {
                    if name == t {
                        return match cols.iter().position(|c| c == &col.column) {
                            Some(i) => Ok(Some(offset + i)),
                            None => Ok(None),
                        };
                    }
                }
                Ok(None)
            }
            None => {
                let mut found = None;
                for (_, cols, offset) in &self.bindings {
                    if let Some(i) = cols.iter().position(|c| c == &col.column) {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(offset + i);
                    }
                }
                Ok(found)
            }
        }
    }

    /// Display names for all columns: bare when unique, qualified when
    /// the same column name appears in several bindings.
    pub fn display_names(&self) -> Vec<String> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for (_, cols, _) in &self.bindings {
            for c in cols {
                *counts.entry(c.as_str()).or_default() += 1;
            }
        }
        let mut out = Vec::with_capacity(self.width);
        for (name, cols, _) in &self.bindings {
            for c in cols {
                if counts[c.as_str()] > 1 {
                    out.push(format!("{name}.{c}"));
                } else {
                    out.push(c.clone());
                }
            }
        }
        out
    }
}

/// A row in scope, linked to any outer (correlating) scopes.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// Layout of `row`.
    pub schema: &'a RelSchema,
    /// Current row values.
    pub row: &'a [Value],
    /// Enclosing query's scope for correlated sub-queries.
    pub parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolve a column through the scope chain.
    pub fn lookup(&self, col: &ColumnRef) -> Result<Value, EngineError> {
        if let Some(i) = self.schema.resolve(col)? {
            return Ok(self.row[i].clone());
        }
        match self.parent {
            Some(p) => p.lookup(col),
            None => Err(EngineError::UnknownColumn(match &col.table {
                Some(t) => format!("{t}.{}", col.column),
                None => col.column.clone(),
            })),
        }
    }
}

/// State of one execution, shared by the executor and the evaluator:
/// the database, the cache of uncorrelated sub-query results, and the
/// tick counter.
pub struct EvalCtx<'a> {
    /// The database queried.
    pub db: &'a Database,
    /// Cache of uncorrelated sub-query results keyed by AST address.
    pub sub_cache: RefCell<HashMap<usize, Option<ResultSet>>>,
    /// Logical work counter in *ticks*: one per operator application.
    /// Deterministic by construction — no wall-clock — so tick totals
    /// are reproducible across runs.
    pub ticks: std::cell::Cell<u64>,
}

impl<'a> EvalCtx<'a> {
    /// Charge `n` ticks of logical work.
    pub fn charge(&self, n: u64) {
        self.ticks.set(self.ticks.get().wrapping_add(n));
    }
    /// Execute a sub-query, caching it when it proves uncorrelated.
    /// A sub-query is treated as correlated iff executing it *without*
    /// the outer scope fails column resolution.
    pub fn subquery(&self, q: &Query, scope: Option<&Scope<'_>>) -> Result<ResultSet, EngineError> {
        let key = q as *const Query as usize;
        if let Some(cached) = self.sub_cache.borrow().get(&key) {
            match cached {
                Some(rs) => return Ok(rs.clone()),
                None => return exec_query(self, q, scope), // known correlated
            }
        }
        match exec_query(self, q, None) {
            Ok(rs) => {
                self.sub_cache.borrow_mut().insert(key, Some(rs.clone()));
                Ok(rs)
            }
            Err(EngineError::UnknownColumn(_)) if scope.is_some() => {
                self.sub_cache.borrow_mut().insert(key, None);
                exec_query(self, q, scope)
            }
            Err(e) => Err(e),
        }
    }
}

/// SQL LIKE with `%` (any run) and `_` (single char), case-sensitive.
pub fn sql_like(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // dp[i][j]: t[..i] matches p[..j]; rolling row.
    let mut prev = vec![false; p.len() + 1];
    prev[0] = true;
    for j in 1..=p.len() {
        prev[j] = prev[j - 1] && p[j - 1] == '%';
    }
    let mut cur = vec![false; p.len() + 1];
    for i in 1..=t.len() {
        cur[0] = false;
        for j in 1..=p.len() {
            cur[j] = match p[j - 1] {
                '%' => cur[j - 1] || prev[j],
                '_' => prev[j - 1],
                c => prev[j - 1] && t[i - 1] == c,
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[p.len()]
}

fn bool3(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

/// Evaluate a scalar expression against one row scope. Aggregate nodes
/// are invalid here — use [`eval_grouped`] in aggregate contexts.
pub fn eval(ctx: &EvalCtx<'_>, expr: &Expr, scope: &Scope<'_>) -> Result<Value, EngineError> {
    // One tick per operator application: recursion charges each
    // expression node applied to each row.
    ctx.charge(1);
    match expr {
        Expr::Column(c) => scope.lookup(c),
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Binary { left, op, right } => {
            let l = eval(ctx, left, scope)?;
            // Short-circuit AND/OR with three-valued logic.
            match op {
                BinOp::And => {
                    if matches!(l, Value::Bool(false)) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(ctx, right, scope)?;
                    return Ok(match (l, r) {
                        (_, Value::Bool(false)) => Value::Bool(false),
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        _ => Value::Null,
                    });
                }
                BinOp::Or => {
                    if matches!(l, Value::Bool(true)) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(ctx, right, scope)?;
                    return Ok(match (l, r) {
                        (_, Value::Bool(true)) => Value::Bool(true),
                        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let r = eval(ctx, right, scope)?;
            binary_op(&l, *op, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval(ctx, expr, scope)?;
            match op {
                UnaryOp::Not => Ok(match v {
                    Value::Bool(b) => Value::Bool(!b),
                    Value::Null => Value::Null,
                    other => {
                        return Err(EngineError::InvalidExpression(format!(
                            "NOT applied to {other:?}"
                        )))
                    }
                }),
                UnaryOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Null => Ok(Value::Null),
                    other => Err(EngineError::InvalidExpression(format!(
                        "negation of {other:?}"
                    ))),
                },
            }
        }
        Expr::Agg { .. } => Err(EngineError::InvalidExpression(
            "aggregate outside aggregation context".into(),
        )),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(ctx, expr, scope)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(ctx, item, scope)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let v = eval(ctx, expr, scope)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = ctx.subquery(subquery, Some(scope))?;
            let mut saw_null = false;
            for row in &rs.rows {
                let item = row.first().cloned().unwrap_or(Value::Null);
                match v.sql_eq(&item) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Exists { subquery, negated } => {
            let rs = ctx.subquery(subquery, Some(scope))?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(q) => {
            let rs = ctx.subquery(q, Some(scope))?;
            match rs.rows.len() {
                0 => Ok(Value::Null),
                1 => {
                    if rs.rows[0].len() != 1 {
                        Err(EngineError::NonScalarSubquery)
                    } else {
                        Ok(rs.rows[0][0].clone())
                    }
                }
                _ => Err(EngineError::NonScalarSubquery),
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(ctx, expr, scope)?;
            let lo = eval(ctx, low, scope)?;
            let hi = eval(ctx, high, scope)?;
            let ge = v.compare(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.compare(&hi).map(|o| o != std::cmp::Ordering::Greater);
            let within = match (ge, le) {
                (Some(a), Some(b)) => Some(a && b),
                (Some(false), _) | (_, Some(false)) => Some(false),
                _ => None,
            };
            Ok(bool3(within.map(|w| w != *negated)))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(ctx, expr, scope)?;
            match v {
                Value::Str(s) => Ok(Value::Bool(sql_like(&s, pattern) != *negated)),
                Value::Null => Ok(Value::Null),
                other => Err(EngineError::InvalidExpression(format!(
                    "LIKE applied to {other:?}"
                ))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, expr, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

fn binary_op(l: &Value, op: BinOp, r: &Value) -> Result<Value, EngineError> {
    use BinOp::*;
    match op {
        Eq => Ok(bool3(l.sql_eq(r))),
        NotEq => Ok(bool3(l.sql_eq(r).map(|b| !b))),
        Lt => Ok(bool3(l.compare(r).map(|o| o == std::cmp::Ordering::Less))),
        LtEq => Ok(bool3(
            l.compare(r).map(|o| o != std::cmp::Ordering::Greater),
        )),
        Gt => Ok(bool3(
            l.compare(r).map(|o| o == std::cmp::Ordering::Greater),
        )),
        GtEq => Ok(bool3(l.compare(r).map(|o| o != std::cmp::Ordering::Less))),
        Plus | Minus | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic stays integral except division.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return Ok(match op {
                    Plus => Value::Int(a + b),
                    Minus => Value::Int(a - b),
                    Mul => Value::Int(a * b),
                    Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Float(*a as f64 / *b as f64)
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let (a, b) = (
                l.as_f64().ok_or_else(|| {
                    EngineError::InvalidExpression(format!("arithmetic on {l:?}"))
                })?,
                r.as_f64().ok_or_else(|| {
                    EngineError::InvalidExpression(format!("arithmetic on {r:?}"))
                })?,
            );
            Ok(match op {
                Plus => Value::Float(a + b),
                Minus => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => unreachable!(),
            })
        }
        And | Or => unreachable!("handled in eval"),
    }
}

/// Evaluate an expression in an aggregate context: aggregate nodes are
/// computed over `group` (each row evaluated in its own scope); bare
/// columns resolve against the group's first row (SQL requires them to
/// be grouping keys). An empty group yields SQL's empty-input aggregate
/// semantics (COUNT = 0, others NULL).
pub fn eval_grouped(
    ctx: &EvalCtx<'_>,
    expr: &Expr,
    schema: &RelSchema,
    group: &[&Vec<Value>],
    parent: Option<&Scope<'_>>,
) -> Result<Value, EngineError> {
    ctx.charge(1);
    match expr {
        Expr::Agg {
            func,
            arg,
            distinct,
        } => {
            let mut vals: Vec<Value> = Vec::with_capacity(group.len());
            for row in group {
                let scope = Scope {
                    schema,
                    row,
                    parent,
                };
                match arg {
                    Some(a) => {
                        let v = eval(ctx, a, &scope)?;
                        if !v.is_null() {
                            vals.push(v);
                        }
                    }
                    None => vals.push(Value::Int(1)), // COUNT(*)
                }
            }
            if *distinct {
                let mut seen = std::collections::HashSet::new();
                vals.retain(|v| seen.insert(v.group_key()));
            }
            aggregate(*func, &vals)
        }
        Expr::Binary { left, op, right } => {
            let l = eval_grouped(ctx, left, schema, group, parent)?;
            let r = eval_grouped(ctx, right, schema, group, parent)?;
            match op {
                BinOp::And => Ok(match (l, r) {
                    (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
                    (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                    _ => Value::Null,
                }),
                BinOp::Or => Ok(match (l, r) {
                    (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
                    (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                    _ => Value::Null,
                }),
                _ => binary_op(&l, *op, &r),
            }
        }
        Expr::Unary { op, expr: inner } => {
            let v = eval_grouped(ctx, inner, schema, group, parent)?;
            match op {
                UnaryOp::Not => Ok(match v {
                    Value::Bool(b) => Value::Bool(!b),
                    _ => Value::Null,
                }),
                UnaryOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    _ => Ok(Value::Null),
                },
            }
        }
        // Non-aggregate leaves evaluate against the group's first row.
        other => match group.first() {
            Some(row) => {
                let scope = Scope {
                    schema,
                    row,
                    parent,
                };
                eval(ctx, other, &scope)
            }
            None => Ok(Value::Null),
        },
    }
}

fn aggregate(func: AggFunc, vals: &[Value]) -> Result<Value, EngineError> {
    match func {
        AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut all_int = true;
            let mut sum = 0.0;
            for v in vals {
                match v {
                    Value::Int(i) => sum += *i as f64,
                    Value::Float(f) => {
                        all_int = false;
                        sum += *f;
                    }
                    other => {
                        return Err(EngineError::InvalidExpression(format!(
                            "SUM/AVG over {other:?}"
                        )))
                    }
                }
            }
            if func == AggFunc::Avg {
                Ok(Value::Float(sum / vals.len() as f64))
            } else if all_int {
                Ok(Value::Int(sum as i64))
            } else {
                Ok(Value::Float(sum))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.compare(b) {
                            Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                            Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(sql_like("hello", "hello"));
        assert!(sql_like("hello", "h%"));
        assert!(sql_like("hello", "%llo"));
        assert!(sql_like("hello", "h_llo"));
        assert!(sql_like("hello", "%"));
        assert!(!sql_like("hello", "h_"));
        assert!(!sql_like("hello", "world"));
        assert!(sql_like("", "%"));
        assert!(!sql_like("", "_"));
        assert!(sql_like("abc", "a%c"));
        assert!(sql_like("a%c", "a%c")); // % in text matches via wildcard
    }

    #[test]
    fn rel_schema_resolution() {
        let mut rs = RelSchema::new();
        rs.push_binding("c", vec!["id".into(), "name".into()]);
        rs.push_binding("o", vec!["id".into(), "amount".into()]);
        assert_eq!(
            rs.resolve(&ColumnRef::qualified("o", "amount")).unwrap(),
            Some(3)
        );
        assert_eq!(rs.resolve(&ColumnRef::bare("name")).unwrap(), Some(1));
        assert!(matches!(
            rs.resolve(&ColumnRef::bare("id")),
            Err(EngineError::AmbiguousColumn(_))
        ));
        assert_eq!(rs.resolve(&ColumnRef::bare("ghost")).unwrap(), None);
        assert_eq!(rs.width(), 4);
    }

    #[test]
    fn display_names_qualify_duplicates() {
        let mut rs = RelSchema::new();
        rs.push_binding("c", vec!["id".into(), "name".into()]);
        rs.push_binding("o", vec!["id".into()]);
        assert_eq!(rs.display_names(), vec!["c.id", "name", "o.id"]);
    }

    #[test]
    fn aggregate_semantics() {
        assert_eq!(aggregate(AggFunc::Count, &[]).unwrap(), Value::Int(0));
        assert_eq!(aggregate(AggFunc::Sum, &[]).unwrap(), Value::Null);
        assert_eq!(
            aggregate(AggFunc::Sum, &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            aggregate(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            aggregate(AggFunc::Avg, &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            aggregate(AggFunc::Min, &[Value::Int(3), Value::Int(1)]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            aggregate(AggFunc::Max, &[Value::from("a"), Value::from("b")]).unwrap(),
            Value::from("b")
        );
        assert_eq!(aggregate(AggFunc::Min, &[]).unwrap(), Value::Null);
    }
}
