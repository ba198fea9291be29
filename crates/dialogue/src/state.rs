//! Conversation state: the running OQL query, and the act-application
//! rules that edit it turn by turn.
//!
//! This is the "persist the context of conversation across multiple
//! turns" capability the survey highlights — implemented at the
//! ontology level (OQL), so an edit like "what about Boston" is a
//! predicate-value substitution rather than string surgery on SQL
//! (the same design argument as Zhang et al.'s edit-based generation,
//! transplanted to the entity-based representation).

use nlidb_core::entity::{build_oql, Capabilities};
use nlidb_core::linking::{LinkKind, LinkedMention, PreparedQuestion};
use nlidb_core::oql::{Oql, OqlExpr, OqlOrder, OqlPredicate, PropRef};
use nlidb_core::pipeline::SchemaContext;
use nlidb_core::signals;
use nlidb_ontology::PropertyRole;
use nlidb_sqlir::ast::{AggFunc, Literal};

use crate::acts::DialogueAct;

/// The running conversation state.
#[derive(Debug, Clone, Default)]
pub struct DialogueState {
    /// The current ontology-level query, if a query is in progress.
    pub oql: Option<Oql>,
}

impl DialogueState {
    /// Fresh state.
    pub fn new() -> DialogueState {
        DialogueState::default()
    }

    /// Is a query context active?
    pub fn has_context(&self) -> bool {
        self.oql.is_some()
    }

    /// Apply an accepted act of a prepared turn to the state. Returns
    /// false when the act could not be applied (e.g. nothing to anchor
    /// a replacement on).
    pub fn apply(
        &mut self,
        act: &DialogueAct,
        utterance: &PreparedQuestion,
        ctx: &SchemaContext,
    ) -> bool {
        match act {
            DialogueAct::NewQuery => match build_oql(utterance, ctx, Capabilities::full()) {
                Some(build) => {
                    self.oql = Some(build.oql);
                    true
                }
                None => false,
            },
            DialogueAct::ReplaceValue { mention } => self.replace_value(mention),
            DialogueAct::AddFilter => self.add_filter(utterance, ctx),
            DialogueAct::SetAggregation => self.set_aggregation(utterance, ctx),
            DialogueAct::SetGroup { mention } => self.set_group(mention),
            DialogueAct::SetTopN => self.set_top_n(utterance, ctx),
            DialogueAct::SetOrder => self.set_order(utterance),
            DialogueAct::RemoveFilters => match &mut self.oql {
                Some(oql) => {
                    oql.predicates.clear();
                    true
                }
                None => false,
            },
            DialogueAct::SwitchFocus { concept } => self.switch_focus(concept, ctx),
            DialogueAct::Unknown => false,
        }
    }

    fn replace_value(&mut self, mention: &LinkedMention) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        let LinkKind::Value {
            concept,
            property,
            value,
        } = &mention.kind
        else {
            return false;
        };
        // Prefer replacing a predicate on the same property; else the
        // first string-equality predicate.
        let mut same_prop: Option<usize> = None;
        let mut any_str_eq: Option<usize> = None;
        for (i, p) in oql.predicates.iter().enumerate() {
            if let OqlPredicate::Compare {
                prop,
                value: Literal::Str(_),
                ..
            } = p
            {
                if prop.concept == *concept && prop.property == *property {
                    same_prop = same_prop.or(Some(i));
                }
                any_str_eq = any_str_eq.or(Some(i));
            }
        }
        let pred = OqlPredicate::Compare {
            prop: PropRef::new(concept.clone(), property.clone()),
            op: nlidb_sqlir::ast::BinOp::Eq,
            value: Literal::Str(value.clone()),
        };
        match same_prop.or(any_str_eq) {
            Some(i) => oql.predicates[i] = pred,
            None => oql.predicates.push(pred),
        }
        true
    }

    fn add_filter(&mut self, utterance: &PreparedQuestion, ctx: &SchemaContext) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        // Reuse the full builder on the fragment: its predicates merge
        // into the running query.
        if let Some(build) = build_oql(utterance, ctx, Capabilities::full()) {
            if !build.oql.predicates.is_empty() {
                oql.predicates.extend(build.oql.predicates);
                return true;
            }
        }
        // Fallback: bare comparisons against the focus's sole measure.
        let comps = signals::find_comparisons(&utterance.tokens);
        if comps.is_empty() {
            return false;
        }
        let measures = ctx.ontology.measures_of(&oql.focus);
        let Some(m) = measures.first() else {
            return false;
        };
        for c in &comps {
            oql.predicates.push(OqlPredicate::Compare {
                prop: PropRef::new(oql.focus.clone(), m.label.clone()),
                op: c.op,
                value: if c.value.fract() == 0.0 {
                    Literal::Int(c.value as i64)
                } else {
                    Literal::Float(c.value)
                },
            });
        }
        true
    }

    fn set_aggregation(&mut self, utterance: &PreparedQuestion, ctx: &SchemaContext) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        let Some(cue) = signals::find_agg_cue(&utterance.tokens) else {
            return false;
        };
        // Aggregate target: a measure property mentioned in the
        // fragment, else the focus's sole measure, else COUNT(*).
        let measure = utterance
            .mentions
            .iter()
            .filter_map(|m| match &m.kind {
                LinkKind::Property { concept, property } => {
                    let p = PropRef::new(concept.clone(), property.clone());
                    let role = ctx.ontology.property(concept, property).map(|d| d.role);
                    (role == Some(PropertyRole::Measure)).then_some(p)
                }
                _ => None,
            })
            .next()
            .or_else(|| {
                let m = ctx.ontology.measures_of(&oql.focus);
                (m.len() == 1).then(|| PropRef::new(oql.focus.clone(), m[0].label.clone()))
            });
        let agg = match (cue.func, &measure) {
            (AggFunc::Count, _) => OqlExpr::Agg(AggFunc::Count, None),
            (f, Some(p)) => OqlExpr::Agg(f, Some(p.clone())),
            (_, None) => return false,
        };
        // Keep grouping if present; replace the measure part.
        let group: Vec<OqlExpr> = oql
            .group_by
            .iter()
            .map(|g| OqlExpr::Prop(g.clone()))
            .collect();
        oql.select = group.into_iter().chain(std::iter::once(agg)).collect();
        oql.order_by.clear();
        oql.limit = None;
        true
    }

    fn set_group(&mut self, mention: &LinkedMention) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        let LinkKind::Property { concept, property } = &mention.kind else {
            return false;
        };
        let prop = PropRef::new(concept.clone(), property.clone());
        // The aggregate to pair with the new grouping: the existing
        // aggregate select item, else COUNT(*).
        let agg = oql
            .select
            .iter()
            .find(|e| matches!(e, OqlExpr::Agg(..)))
            .cloned()
            .unwrap_or(OqlExpr::Agg(AggFunc::Count, None));
        oql.group_by = vec![prop.clone()];
        oql.select = vec![OqlExpr::Prop(prop), agg];
        true
    }

    fn set_top_n(&mut self, utterance: &PreparedQuestion, ctx: &SchemaContext) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        let Some(top) = signals::find_top_cue(&utterance.tokens) else {
            return false;
        };
        let order_expr = oql
            .select
            .iter()
            .find(|e| matches!(e, OqlExpr::Agg(..)))
            .cloned()
            .or_else(|| {
                let m = ctx.ontology.measures_of(&oql.focus);
                m.first()
                    .map(|p| OqlExpr::Prop(PropRef::new(oql.focus.clone(), p.label.clone())))
            });
        let Some(expr) = order_expr else { return false };
        oql.order_by = vec![OqlOrder {
            expr,
            asc: !top.desc,
        }];
        oql.limit = Some(top.n);
        true
    }

    fn set_order(&mut self, utterance: &PreparedQuestion) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        let Some((idx, asc)) = signals::find_order_cue(&utterance.tokens) else {
            return false;
        };
        let prop = utterance
            .mentions
            .iter()
            .filter(|m| m.start >= idx)
            .find_map(|m| match &m.kind {
                LinkKind::Property { concept, property } => {
                    Some(PropRef::new(concept.clone(), property.clone()))
                }
                _ => None,
            });
        let Some(prop) = prop else { return false };
        oql.order_by = vec![OqlOrder {
            expr: OqlExpr::Prop(prop),
            asc,
        }];
        true
    }

    fn switch_focus(&mut self, concept: &str, ctx: &SchemaContext) -> bool {
        let Some(oql) = &mut self.oql else {
            return false;
        };
        if ctx.ontology.concept(concept).is_none() {
            return false;
        }
        let old = std::mem::replace(&mut oql.focus, concept.to_string());
        // Keep predicates still reachable from the new focus; drop the
        // projection/grouping, which referred to the old subject.
        let graph = &ctx.graph;
        oql.predicates.retain(|p| match p {
            OqlPredicate::Compare { prop, .. }
            | OqlPredicate::ValueIn { prop, .. }
            | OqlPredicate::Between { prop, .. }
            | OqlPredicate::Like { prop, .. }
            | OqlPredicate::CompareToGlobalAgg { prop, .. } => {
                graph.shortest_path(concept, &prop.concept).is_some()
            }
            OqlPredicate::HasNoRelated { other } | OqlPredicate::HasRelated { other } => {
                graph.shortest_path(concept, other).is_some() && other != concept
            }
        });
        oql.select.clear();
        oql.group_by.clear();
        oql.having.clear();
        oql.order_by.clear();
        oql.limit = None;
        oql.extra_joins.clear();
        let _ = old;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acts::detect_act;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};

    fn ctx() -> SchemaContext {
        let mut db = Database::new("d");
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
        for (id, n, c) in [(1, "Ada", "Austin"), (2, "Bob", "Boston")] {
            db.insert(
                "customers",
                vec![Value::Int(id), Value::from(n), Value::from(c)],
            )
            .unwrap();
        }
        db.insert(
            "orders",
            vec![Value::Int(1), Value::Int(1), Value::Float(10.0)],
        )
        .unwrap();
        SchemaContext::build(&db)
    }

    fn state_after(turns: &[&str], ctx: &SchemaContext) -> DialogueState {
        let mut st = DialogueState::new();
        for t in turns {
            let q = PreparedQuestion::new(t, ctx);
            let act = detect_act(&q, st.has_context());
            assert!(st.apply(&act, &q, ctx), "failed to apply turn: {t}");
        }
        st
    }

    fn sql(st: &DialogueState, ctx: &SchemaContext) -> String {
        st.oql
            .as_ref()
            .unwrap()
            .to_sql(&ctx.ontology, &ctx.graph)
            .unwrap()
            .to_string()
    }

    #[test]
    fn replace_value_swaps_filter() {
        let ctx = ctx();
        let st = state_after(&["show customers in Austin", "what about Boston"], &ctx);
        assert_eq!(
            sql(&st, &ctx),
            "SELECT * FROM customers WHERE city = 'Boston'"
        );
    }

    #[test]
    fn add_filter_narrows() {
        let ctx = ctx();
        let st = state_after(&["show orders", "only those with amount over 5"], &ctx);
        assert_eq!(sql(&st, &ctx), "SELECT * FROM orders WHERE amount > 5");
    }

    #[test]
    fn set_aggregation_counts_context() {
        let ctx = ctx();
        let st = state_after(
            &["show customers in Austin", "how many of those are there"],
            &ctx,
        );
        assert_eq!(
            sql(&st, &ctx),
            "SELECT COUNT(*) FROM customers WHERE city = 'Austin'"
        );
    }

    #[test]
    fn set_group_regroups() {
        let ctx = ctx();
        let st = state_after(
            &["how many customers are there", "break that down by city"],
            &ctx,
        );
        assert_eq!(
            sql(&st, &ctx),
            "SELECT city, COUNT(*) FROM customers GROUP BY city"
        );
    }

    #[test]
    fn top_n_follow_up() {
        let ctx = ctx();
        let st = state_after(&["show orders", "just the top 3"], &ctx);
        assert_eq!(
            sql(&st, &ctx),
            "SELECT * FROM orders ORDER BY amount DESC LIMIT 3"
        );
    }

    #[test]
    fn remove_filters_widens() {
        let ctx = ctx();
        let st = state_after(
            &["show customers in Austin", "remove the filters please"],
            &ctx,
        );
        assert_eq!(sql(&st, &ctx), "SELECT * FROM customers");
    }

    #[test]
    fn switch_focus_keeps_reachable_filters() {
        let ctx = ctx();
        let st = state_after(&["show customers in Austin", "what about orders"], &ctx);
        let s = sql(&st, &ctx);
        assert!(s.starts_with("SELECT * FROM orders"), "{s}");
        assert!(
            s.contains("customers.city = 'Austin'"),
            "filter should survive: {s}"
        );
        assert!(s.contains("JOIN customers"), "{s}");
    }

    #[test]
    fn acts_fail_without_context() {
        let ctx = ctx();
        let mut st = DialogueState::new();
        let q = PreparedQuestion::new("remove filters", &ctx);
        assert!(!st.apply(&DialogueAct::RemoveFilters, &q, &ctx));
        let q = PreparedQuestion::new("top 5", &ctx);
        assert!(!st.apply(&DialogueAct::SetTopN, &q, &ctx));
    }

    #[test]
    fn unknown_never_applies() {
        let ctx = ctx();
        let mut st = DialogueState::new();
        let q = PreparedQuestion::new("gibberish", &ctx);
        assert!(!st.apply(&DialogueAct::Unknown, &q, &ctx));
    }
}
