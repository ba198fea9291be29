//! The SQL abstract syntax tree.
//!
//! The subset covers the survey's full §3 ladder: single-table
//! selection, aggregation with GROUP BY / HAVING / ORDER BY / LIMIT,
//! multi-table joins, and nested sub-queries in `WHERE` (IN / EXISTS /
//! scalar comparisons) and `FROM` positions.

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// String (also used for dates in ISO form).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Literal {
    /// Best-effort numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Literal::Int(i) => Some(*i as f64),
            Literal::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Reference to a column, optionally qualified by table name or alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias, when qualified.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// COUNT
    Count,
    /// SUM
    Sum,
    /// AVG
    Avg,
    /// MIN
    Min,
    /// MAX
    Max,
}

impl AggFunc {
    /// SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// All aggregate functions, for enumeration in generators/models.
    pub fn all() -> [AggFunc; 5] {
        [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ]
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Constant.
    Literal(Literal),
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `op expr`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Aggregate call; `arg == None` means `COUNT(*)`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Argument; `None` renders as `*` (COUNT only).
        arg: Option<Box<Expr>>,
        /// DISTINCT inside the aggregate.
        distinct: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Literal list.
        list: Vec<Expr>,
        /// NOT IN when true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The sub-query.
        subquery: Box<Query>,
        /// NOT IN when true.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT …)`.
    Exists {
        /// The sub-query.
        subquery: Box<Query>,
        /// NOT EXISTS when true.
        negated: bool,
    },
    /// Scalar sub-query usable inside comparisons.
    ScalarSubquery(Box<Query>),
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// NOT LIKE when true.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL when true.
        negated: bool,
    },
}

impl Expr {
    /// Column shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    /// Qualified column shorthand.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, name))
    }

    /// Integer literal shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Float literal shorthand.
    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    /// String literal shorthand.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// `self op other`.
    pub fn binary(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }

    /// Aggregate call shorthand.
    pub fn agg(func: AggFunc, arg: Expr) -> Expr {
        Expr::Agg {
            func,
            arg: Some(Box::new(arg)),
            distinct: false,
        }
    }

    /// `COUNT(*)` shorthand.
    pub fn count_star() -> Expr {
        Expr::Agg {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }
    }

    /// Does this expression (recursively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }

    /// Does this expression (recursively) contain a sub-query?
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Binary { left, right, .. } => {
                left.contains_subquery() || right.contains_subquery()
            }
            Expr::Unary { expr, .. } => expr.contains_subquery(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_subquery() || low.contains_subquery() || high.contains_subquery(),
            Expr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(Expr::contains_subquery)
            }
            Expr::Agg { arg, .. } => arg.as_ref().map(|a| a.contains_subquery()).unwrap_or(false),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_subquery(),
            _ => false,
        }
    }

    /// Collect all column references in this expression.
    pub fn columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            Expr::Unary { expr, .. } => expr.columns(out),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.columns(out);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.columns(out);
                for e in list {
                    e.columns(out);
                }
            }
            Expr::InSubquery { expr, .. } => expr.columns(out),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.columns(out);
                low.columns(out);
                high.columns(out);
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.columns(out),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) | Expr::Literal(_) => {}
        }
    }
}

/// A projected item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Projection without alias.
    pub fn expr(e: Expr) -> SelectItem {
        SelectItem::Expr {
            expr: e,
            alias: None,
        }
    }

    /// Projection with alias.
    pub fn aliased(e: Expr, alias: impl Into<String>) -> SelectItem {
        SelectItem::Expr {
            expr: e,
            alias: Some(alias.into()),
        }
    }
}

/// The FROM-clause source: a base table or a derived table.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// Base table with optional alias.
    Table {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// Derived table `(SELECT …) AS alias`.
    Subquery {
        /// The derived query.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
}

impl TableSource {
    /// Base table shorthand.
    pub fn table(name: impl Into<String>) -> TableSource {
        TableSource::Table {
            name: name.into(),
            alias: None,
        }
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN
    Inner,
    /// LEFT OUTER JOIN
    Left,
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join type.
    pub kind: JoinKind,
    /// Joined source.
    pub source: TableSource,
    /// ON condition.
    pub on: Expr,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending when true.
    pub asc: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Projected items (empty means `SELECT *` is NOT implied; builders
    /// must push at least one item or `Wildcard`).
    pub select: Vec<SelectItem>,
    /// SELECT DISTINCT when true.
    pub distinct: bool,
    /// FROM source (None only for expression-less probes in tests).
    pub from: Option<TableSource>,
    /// JOIN clauses in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl Query {
    /// Does any clause contain a sub-query (including FROM subqueries)?
    pub fn has_subquery(&self) -> bool {
        let expr_has = |e: &Option<Expr>| e.as_ref().map(Expr::contains_subquery).unwrap_or(false);
        if expr_has(&self.where_clause) || expr_has(&self.having) {
            return true;
        }
        if matches!(self.from, Some(TableSource::Subquery { .. })) {
            return true;
        }
        if self
            .joins
            .iter()
            .any(|j| matches!(j.source, TableSource::Subquery { .. }))
        {
            return true;
        }
        self.select.iter().any(|s| match s {
            SelectItem::Expr { expr, .. } => expr.contains_subquery(),
            SelectItem::Wildcard => false,
        })
    }

    /// Does the query aggregate (explicit GROUP BY or aggregate in the
    /// projection/HAVING)?
    pub fn has_aggregation(&self) -> bool {
        if !self.group_by.is_empty() || self.having.is_some() {
            return true;
        }
        self.select.iter().any(|s| match s {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
    }

    /// Number of base tables referenced at this query's top level
    /// (FROM + JOINs, not descending into sub-queries).
    pub fn table_count(&self) -> usize {
        usize::from(self.from.is_some()) + self.joins.len()
    }

    /// All sub-queries directly nested in this query.
    pub fn direct_subqueries(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        fn from_expr<'a>(e: &'a Expr, out: &mut Vec<&'a Query>) {
            match e {
                Expr::InSubquery { subquery, expr, .. } => {
                    out.push(subquery);
                    from_expr(expr, out);
                }
                Expr::Exists { subquery, .. } => out.push(subquery),
                Expr::ScalarSubquery(q) => out.push(q),
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
        if let Some(w) = &self.where_clause {
            from_expr(w, &mut out);
        }
        if let Some(h) = &self.having {
            from_expr(h, &mut out);
        }
        for s in &self.select {
            if let SelectItem::Expr { expr, .. } = s {
                from_expr(expr, &mut out);
            }
        }
        if let Some(TableSource::Subquery { query, .. }) = &self.from {
            out.push(query);
        }
        for j in &self.joins {
            if let TableSource::Subquery { query, .. } = &j.source {
                out.push(query);
            }
        }
        out
    }

    /// Maximum nesting depth: 0 for a flat query.
    pub fn nesting_depth(&self) -> usize {
        self.direct_subqueries()
            .iter()
            .map(|q| 1 + q.nesting_depth())
            .max()
            .unwrap_or(0)
    }

    /// Every base-table name referenced anywhere in the query —
    /// FROM/JOIN sources at this level plus, recursively, every
    /// sub-query in any position. Order is deterministic (outer before
    /// inner, FROM before JOINs); duplicates are kept so callers can
    /// count references. The inspection entry point the validation
    /// layer (`nli-core::validate`) resolves schema references from.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(q: &Query, out: &mut Vec<String>) {
            if let Some(TableSource::Table { name, .. }) = &q.from {
                out.push(name.clone());
            }
            for j in &q.joins {
                if let TableSource::Table { name, .. } = &j.source {
                    out.push(name.clone());
                }
            }
            // direct_subqueries covers FROM/JOIN derived tables too,
            // so every sub-query is walked exactly once.
            for sq in q.direct_subqueries() {
                walk(sq, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Every column reference in the query, recursively including all
    /// sub-queries: projections, join conditions, WHERE/HAVING,
    /// GROUP BY, ORDER BY. Deterministic order; duplicates kept.
    pub fn referenced_columns(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        fn walk(q: &Query, out: &mut Vec<ColumnRef>) {
            for s in &q.select {
                if let SelectItem::Expr { expr, .. } = s {
                    expr.columns(out);
                }
            }
            for j in &q.joins {
                j.on.columns(out);
            }
            if let Some(w) = &q.where_clause {
                w.columns(out);
            }
            for g in &q.group_by {
                g.columns(out);
            }
            if let Some(h) = &q.having {
                h.columns(out);
            }
            for o in &q.order_by {
                o.expr.columns(out);
            }
            for sq in q.direct_subqueries() {
                walk(sq, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Every `column = 'string'` equality in the query (recursively,
    /// WHERE and HAVING, either operand order), as
    /// `(column reference, literal value)`. These are the value
    /// bindings an interpreter committed to — the validation layer
    /// checks each one is actually grounded in the data.
    pub fn string_equalities(&self) -> Vec<(ColumnRef, String)> {
        let mut out = Vec::new();
        fn from_expr(e: &Expr, out: &mut Vec<(ColumnRef, String)>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinOp::Eq,
                    right,
                } => match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), Expr::Literal(Literal::Str(v)))
                    | (Expr::Literal(Literal::Str(v)), Expr::Column(c)) => {
                        out.push((c.clone(), v.clone()));
                    }
                    _ => {
                        from_expr(left, out);
                        from_expr(right, out);
                    }
                },
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
                    for i in list {
                        from_expr(i, out);
                    }
                }
                _ => {}
            }
        }
        fn walk(q: &Query, out: &mut Vec<(ColumnRef, String)>) {
            if let Some(w) = &q.where_clause {
                from_expr(w, out);
            }
            if let Some(h) = &q.having {
                from_expr(h, out);
            }
            for sq in q.direct_subqueries() {
                walk(sq, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Compact, deterministic plan-shape label: `q` plus one tag per
    /// structural feature, e.g. `q-scan`, `q-join1-agg-sort`,
    /// `q-filter-sub2`. Used to attribute execution cost by plan shape
    /// in profiles — same shape string ⇒ same operator skeleton.
    pub fn shape(&self) -> String {
        let mut s = String::from("q");
        if self.joins.is_empty() {
            s.push_str("-scan");
        } else {
            s.push_str(&format!("-join{}", self.joins.len()));
        }
        if self.where_clause.is_some() {
            s.push_str("-filter");
        }
        if self.has_aggregation() {
            s.push_str("-agg");
        }
        if self.distinct {
            s.push_str("-distinct");
        }
        if !self.order_by.is_empty() {
            s.push_str("-sort");
        }
        if self.limit.is_some() {
            s.push_str("-limit");
        }
        let depth = self.nesting_depth();
        if depth > 0 {
            s.push_str(&format!("-sub{depth}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_query() -> Query {
        Query {
            select: vec![SelectItem::Wildcard],
            from: Some(TableSource::table("customers")),
            where_clause: Some(Expr::col("city").eq(Expr::str("Austin"))),
            ..Query::default()
        }
    }

    #[test]
    fn flat_query_properties() {
        let q = flat_query();
        assert!(!q.has_subquery());
        assert!(!q.has_aggregation());
        assert_eq!(q.table_count(), 1);
        assert_eq!(q.nesting_depth(), 0);
    }

    #[test]
    fn shape_labels_are_structural() {
        let mut q = flat_query();
        assert_eq!(q.shape(), "q-scan-filter");
        q.where_clause = None;
        assert_eq!(q.shape(), "q-scan");
        q.select = vec![SelectItem::expr(Expr::count_star())];
        q.order_by = vec![OrderByItem {
            expr: Expr::col("city"),
            asc: true,
        }];
        q.limit = Some(5);
        assert_eq!(q.shape(), "q-scan-agg-sort-limit");
    }

    #[test]
    fn aggregation_detection() {
        let mut q = flat_query();
        q.select = vec![SelectItem::expr(Expr::count_star())];
        assert!(q.has_aggregation());
        let mut q2 = flat_query();
        q2.group_by = vec![Expr::col("city")];
        assert!(q2.has_aggregation());
    }

    #[test]
    fn subquery_detection_in_where() {
        let mut q = flat_query();
        q.where_clause = Some(Expr::InSubquery {
            expr: Box::new(Expr::col("id")),
            subquery: Box::new(flat_query()),
            negated: false,
        });
        assert!(q.has_subquery());
        assert_eq!(q.nesting_depth(), 1);
    }

    #[test]
    fn from_subquery_detection() {
        let q = Query {
            select: vec![SelectItem::Wildcard],
            from: Some(TableSource::Subquery {
                query: Box::new(flat_query()),
                alias: "t".into(),
            }),
            ..Query::default()
        };
        assert!(q.has_subquery());
        assert_eq!(q.nesting_depth(), 1);
    }

    #[test]
    fn nested_depth_two() {
        let inner = Query {
            select: vec![SelectItem::expr(Expr::col("id"))],
            from: Some(TableSource::table("orders")),
            where_clause: Some(Expr::Exists {
                subquery: Box::new(flat_query()),
                negated: false,
            }),
            ..Query::default()
        };
        let outer = Query {
            select: vec![SelectItem::Wildcard],
            from: Some(TableSource::table("customers")),
            where_clause: Some(Expr::InSubquery {
                expr: Box::new(Expr::col("id")),
                subquery: Box::new(inner),
                negated: false,
            }),
            ..Query::default()
        };
        assert_eq!(outer.nesting_depth(), 2);
    }

    #[test]
    fn columns_collection() {
        let e = Expr::col("a")
            .eq(Expr::int(1))
            .and(Expr::qcol("t", "b").binary(BinOp::Gt, Expr::col("c")));
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[1], ColumnRef::qualified("t", "b"));
    }

    #[test]
    fn contains_aggregate_recurses() {
        let e = Expr::agg(AggFunc::Sum, Expr::col("x")).binary(BinOp::Gt, Expr::int(10));
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn join_counts_tables() {
        let mut q = flat_query();
        q.joins.push(Join {
            kind: JoinKind::Inner,
            source: TableSource::table("orders"),
            on: Expr::qcol("customers", "id").eq(Expr::qcol("orders", "customer_id")),
        });
        assert_eq!(q.table_count(), 2);
    }
}
