//! Fluent query construction, used by every interpreter family.

use crate::ast::{AggFunc, Expr, Join, JoinKind, OrderByItem, Query, SelectItem, TableSource};

/// Builder producing a [`Query`].
///
/// ```
/// use nlidb_sqlir::{QueryBuilder, ast::{Expr, AggFunc}};
/// let q = QueryBuilder::from_table("sales")
///     .select_col("region")
///     .select_agg(AggFunc::Sum, Expr::col("revenue"), Some("total"))
///     .group_by(Expr::col("region"))
///     .order_by(Expr::agg(AggFunc::Sum, Expr::col("revenue")), false)
///     .limit(5)
///     .build();
/// assert!(q.to_string().starts_with("SELECT region, SUM(revenue) AS total"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    query: Query,
}

impl QueryBuilder {
    /// Start from a base table.
    pub fn from_table(name: impl Into<String>) -> Self {
        QueryBuilder {
            query: Query {
                from: Some(TableSource::table(name)),
                ..Query::default()
            },
        }
    }

    /// Start from a derived table.
    pub fn from_subquery(query: Query, alias: impl Into<String>) -> Self {
        QueryBuilder {
            query: Query {
                from: Some(TableSource::Subquery {
                    query: Box::new(query),
                    alias: alias.into(),
                }),
                ..Query::default()
            },
        }
    }

    /// Project a bare column.
    pub fn select_col(mut self, name: impl Into<String>) -> Self {
        self.query.select.push(SelectItem::expr(Expr::col(name)));
        self
    }

    /// Project an arbitrary expression with optional alias.
    pub fn select_expr(mut self, expr: Expr, alias: Option<&str>) -> Self {
        self.query.select.push(match alias {
            Some(a) => SelectItem::aliased(expr, a),
            None => SelectItem::expr(expr),
        });
        self
    }

    /// Project an aggregate with optional alias.
    pub fn select_agg(self, func: AggFunc, arg: Expr, alias: Option<&str>) -> Self {
        self.select_expr(Expr::agg(func, arg), alias)
    }

    /// SELECT DISTINCT.
    pub fn distinct(mut self) -> Self {
        self.query.distinct = true;
        self
    }

    /// Add an inner join.
    pub fn join(mut self, table: impl Into<String>, on: Expr) -> Self {
        self.query.joins.push(Join {
            kind: JoinKind::Inner,
            source: TableSource::table(table),
            on,
        });
        self
    }

    /// AND a predicate into the WHERE clause.
    pub fn and_where(mut self, pred: Expr) -> Self {
        self.query.where_clause = Some(match self.query.where_clause.take() {
            Some(existing) => existing.and(pred),
            None => pred,
        });
        self
    }

    /// Add a GROUP BY expression.
    pub fn group_by(mut self, expr: Expr) -> Self {
        self.query.group_by.push(expr);
        self
    }

    /// AND a predicate into the HAVING clause.
    pub fn and_having(mut self, pred: Expr) -> Self {
        self.query.having = Some(match self.query.having.take() {
            Some(existing) => existing.and(pred),
            None => pred,
        });
        self
    }

    /// Add an ORDER BY item.
    pub fn order_by(mut self, expr: Expr, asc: bool) -> Self {
        self.query.order_by.push(OrderByItem { expr, asc });
        self
    }

    /// Set LIMIT.
    pub fn limit(mut self, n: u64) -> Self {
        self.query.limit = Some(n);
        self
    }

    /// Finish; defaults to `SELECT *` if nothing was projected.
    pub fn build(mut self) -> Query {
        if self.query.select.is_empty() {
            self.query.select.push(SelectItem::Wildcard);
        }
        self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::parser::parse_query;

    #[test]
    fn builder_defaults_to_star() {
        let q = QueryBuilder::from_table("t").build();
        assert_eq!(q.to_string(), "SELECT * FROM t");
    }

    #[test]
    fn where_predicates_and_together() {
        let q = QueryBuilder::from_table("t")
            .and_where(Expr::col("a").eq(Expr::int(1)))
            .and_where(Expr::col("b").binary(BinOp::Gt, Expr::int(2)))
            .build();
        assert_eq!(q.to_string(), "SELECT * FROM t WHERE a = 1 AND b > 2");
    }

    #[test]
    fn builder_output_parses_back() {
        let q = QueryBuilder::from_table("customers")
            .select_expr(Expr::qcol("customers", "name"), None)
            .join(
                "orders",
                Expr::qcol("customers", "id").eq(Expr::qcol("orders", "customer_id")),
            )
            .and_where(Expr::qcol("orders", "amount").binary(BinOp::GtEq, Expr::float(10.5)))
            .group_by(Expr::qcol("customers", "name"))
            .and_having(Expr::count_star().binary(BinOp::Gt, Expr::int(2)))
            .order_by(Expr::count_star(), false)
            .limit(10)
            .build();
        let reparsed = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn from_subquery_builder() {
        let inner = QueryBuilder::from_table("t").select_col("a").build();
        let q = QueryBuilder::from_subquery(inner, "d").build();
        assert_eq!(q.to_string(), "SELECT * FROM (SELECT a FROM t) AS d");
    }

    #[test]
    fn join_and_distinct() {
        let q = QueryBuilder::from_table("a")
            .distinct()
            .select_col("x")
            .join("b", Expr::qcol("a", "id").eq(Expr::qcol("b", "a_id")))
            .build();
        assert_eq!(
            q.to_string(),
            "SELECT DISTINCT x FROM a JOIN b ON a.id = b.a_id"
        );
    }
}
