//! The ontology-driven entity-based interpreter (ATHENA / NaLIR
//! class), plus the capability-scoped core that the keyword and
//! pattern interpreters reuse.
//!
//! The survey's §4.1 conclusion is the behaviour this module encodes:
//! entity-based approaches "can handle complex input queries and
//! generate complex structured queries", at the price of being
//! "highly sensitive to variations and paraphrasing".
//!
//! Interpretation proceeds in the classic stages: mention linking
//! (via the shared [`crate::linking`] module) → signal extraction
//! (aggregates, grouping, ordering, comparisons, negation, dates) →
//! OQL assembly → join inference → SQL lowering. There is no parse
//! tree: where NaLIR maps a dependency parse onto the query, this
//! interpreter reads the question's token spans, literal cues and
//! linked mentions, and the ontology's join graph. Each family's
//! *ceiling* is expressed as a [`Capabilities`] mask rather than a
//! separate code path, so the capability-matrix experiment measures
//! exactly the constraint the survey describes.

use nlidb_ontology::PropertyRole;
use nlidb_sqlir::ast::{AggFunc, BinOp, Literal};

use crate::interpretation::{rank, Interpretation, Interpreter, InterpreterKind};
use crate::linking::{LinkKind, LinkedMention, PreparedQuestion};
use crate::oql::{Oql, OqlExpr, OqlOrder, OqlPredicate, PropRef};
use crate::pipeline::SchemaContext;
use crate::signals;

/// Feature mask defining how far up the §3 complexity ladder a family
/// is allowed to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Aggregates + GROUP BY (rung 2).
    pub aggregation: bool,
    /// ORDER BY / LIMIT (rung 2).
    pub ordering: bool,
    /// Multi-table joins (rung 3).
    pub joins: bool,
    /// Nested sub-queries (rung 4).
    pub nested: bool,
}

impl Capabilities {
    /// Everything on (ATHENA-class).
    pub fn full() -> Capabilities {
        Capabilities {
            aggregation: true,
            ordering: true,
            joins: true,
            nested: true,
        }
    }

    /// Keyword-lookup systems: plain selection only.
    pub fn selection_only() -> Capabilities {
        Capabilities {
            aggregation: false,
            ordering: false,
            joins: false,
            nested: false,
        }
    }

    /// Pattern systems: single-table aggregation/ordering.
    pub fn single_table_patterns() -> Capabilities {
        Capabilities {
            aggregation: true,
            ordering: true,
            joins: false,
            nested: false,
        }
    }

    /// The WikiSQL sketch regime: single-table aggregation without
    /// ORDER BY — the learned family's structural reach.
    pub fn wikisql_sketch() -> Capabilities {
        Capabilities {
            aggregation: true,
            ordering: false,
            joins: false,
            nested: false,
        }
    }

    /// The paper-faithful ceiling of each family (the masks E1 and the
    /// reproduction-claims tests assert; the graceful-degradation
    /// ladder relies on them to bound what a fallback may answer).
    pub fn of(kind: InterpreterKind) -> Capabilities {
        match kind {
            InterpreterKind::Keyword => Capabilities::selection_only(),
            InterpreterKind::Pattern => Capabilities::single_table_patterns(),
            InterpreterKind::Neural => Capabilities::wikisql_sketch(),
            InterpreterKind::Entity | InterpreterKind::Hybrid => Capabilities::full(),
        }
    }

    /// Whether a query of this §3 complexity rung is inside the mask.
    pub fn permits(&self, class: nlidb_sqlir::ComplexityClass) -> bool {
        use nlidb_sqlir::ComplexityClass::*;
        match class {
            SingleTableSelection => true,
            SingleTableAggregation => self.aggregation || self.ordering,
            MultiTableJoin => self.joins,
            NestedSubquery => self.nested,
        }
    }
}

/// Convert a measured float into the tightest SQL literal.
fn num_literal(v: f64) -> Literal {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        Literal::Int(v as i64)
    } else {
        Literal::Float(v)
    }
}

fn role_of(ctx: &SchemaContext, p: &PropRef) -> Option<PropertyRole> {
    ctx.ontology
        .property(&p.concept, &p.property)
        .map(|dp| dp.role)
}

fn prop_of(m: &LinkedMention) -> Option<PropRef> {
    match &m.kind {
        LinkKind::Property { concept, property } => {
            Some(PropRef::new(concept.clone(), property.clone()))
        }
        _ => None,
    }
}

/// The result of OQL construction, before SQL lowering — exposed so
/// the dialogue layer can manipulate queries across turns.
#[derive(Debug, Clone)]
pub struct OqlBuild {
    /// The assembled ontology-level query.
    pub oql: Oql,
    /// Product of mention link scores (raw evidence strength).
    pub score: f64,
    /// Fraction of content words the reading accounted for (linked
    /// mentions + recognized signal words). ATHENA-style coverage:
    /// unexplained vocabulary is evidence the reading missed intent.
    pub coverage: f64,
    /// Derivation trace.
    pub explanation: Vec<String>,
    /// The mentions the query was built from: narrowed to the focus
    /// concept for families without joins, with value and property
    /// mentions disambiguated toward the focus.
    pub mentions: Vec<LinkedMention>,
}

/// Interpret a question under a capability mask. Returns ranked
/// interpretations; empty when the question is outside the mask's
/// reach or nothing links.
pub fn interpret_with(
    question: &PreparedQuestion,
    ctx: &SchemaContext,
    caps: Capabilities,
    kind: InterpreterKind,
) -> Vec<Interpretation> {
    let Some(build) = build_oql(question, ctx, caps) else {
        return Vec::new();
    };
    lower_builds(build, ctx, caps, kind)
}

/// Build the OQL reading of a question without lowering to SQL.
/// Returns `None` when nothing links or the mask excludes the shape.
pub fn build_oql(
    question: &PreparedQuestion,
    ctx: &SchemaContext,
    caps: Capabilities,
) -> Option<OqlBuild> {
    let tokens = &question.tokens;
    let mut mentions = question.mentions.clone();
    if mentions.is_empty() {
        return None;
    }
    let mut explanation: Vec<String> = mentions
        .iter()
        .map(|m| format!("linked '{}' → {:?} (score {:.2})", m.text, m.kind, m.score))
        .collect();

    // Focus: first concept mention, else the concept of the first
    // mention of any kind.
    let focus = mentions
        .iter()
        .find(|m| m.is_concept())
        .map(|m| m.concept().to_string())
        .unwrap_or_else(|| mentions[0].concept().to_string());
    explanation.push(format!("focus concept: {focus}"));

    // Nested-query shapes must be detected against the *full* mention
    // set, before weaker families narrow their view: a negated related
    // concept makes the question inherently nested, so families
    // without nesting are out of scope entirely.
    let negation_over_relation = signals::find_negation_cue(tokens)
        .map(|idx| {
            mentions
                .iter()
                .any(|m| m.start >= idx && m.is_concept() && m.concept() != focus)
        })
        .unwrap_or(false);
    if negation_over_relation && !caps.nested {
        return None;
    }

    // Families without join support only see the focus concept's
    // mentions — the survey's single-table ceiling.
    if !caps.joins {
        mentions.retain(|m| m.concept() == focus);
        if mentions.is_empty() {
            return None;
        }
    }

    prefer_focus_values(&mut mentions, &focus, ctx);
    prefer_context_properties(&mut mentions, &focus, ctx);

    let mut oql = Oql::focused(focus.clone());
    let mut used = vec![false; mentions.len()];
    // Mark concept mentions of the focus as used (they establish focus).
    for (i, m) in mentions.iter().enumerate() {
        if m.is_concept() && m.concept() == focus {
            used[i] = true;
        }
    }
    let mut score_product: f64 = mentions.iter().map(|m| m.score).product();

    // --- Negation → anti-join (nested rung). ---
    if let Some(neg_idx) = signals::find_negation_cue(tokens) {
        if let Some((i, other)) = mentions
            .iter()
            .enumerate()
            .find(|(_, m)| m.start >= neg_idx && m.is_concept() && m.concept() != focus)
            .map(|(i, m)| (i, m.concept().to_string()))
        {
            if !caps.nested {
                return None;
            }
            oql.predicates.push(OqlPredicate::HasNoRelated {
                other: other.clone(),
            });
            used[i] = true;
            explanation.push(format!("negation: {focus} without related {other}"));
        }
    }

    // --- Comparisons. ---
    let comparisons = signals::find_comparisons(tokens);
    for comp in &comparisons {
        // Nearest property mention left of the cue, else right of the
        // value; prefer measures.
        let target = nearest_property(&mentions, &used, comp.cue_at, ctx);
        match target {
            Some((i, prop)) => {
                used[i] = true;
                if let Some(high) = comp.high {
                    oql.predicates.push(OqlPredicate::Between {
                        prop: prop.clone(),
                        low: num_literal(comp.value),
                        high: num_literal(high),
                    });
                } else {
                    oql.predicates.push(OqlPredicate::Compare {
                        prop: prop.clone(),
                        op: comp.op,
                        value: num_literal(comp.value),
                    });
                }
                explanation.push(format!(
                    "comparison: {}.{} {:?} {}",
                    prop.concept, prop.property, comp.op, comp.value
                ));
            }
            None => {
                // Maybe a related-concept count: "more than 5 orders".
                if let Some((i, other)) = mentions
                    .iter()
                    .enumerate()
                    .find(|(i, m)| {
                        !used[*i]
                            && m.start >= comp.value_at
                            && m.is_concept()
                            && m.concept() != focus
                    })
                    .map(|(i, m)| (i, m.concept().to_string()))
                {
                    if !(caps.joins && caps.aggregation) {
                        return None;
                    }
                    used[i] = true;
                    oql.extra_joins.push(other.clone());
                    // Group on the focus descriptor (or pk) and filter
                    // the related count.
                    let group_prop = descriptor_prop(ctx, &focus);
                    oql.select.push(OqlExpr::Prop(group_prop.clone()));
                    oql.group_by.push(group_prop);
                    oql.having
                        .push((AggFunc::Count, None, comp.op, num_literal(comp.value)));
                    explanation.push(format!(
                        "related-count filter: COUNT({other}) {:?} {}",
                        comp.op, comp.value
                    ));
                }
            }
        }
    }

    // --- Against-average (nested rung). ---
    if let Some(op) = signals::find_vs_average(tokens) {
        if !caps.nested {
            return None;
        }
        if let Some((i, prop)) = first_measure_property(&mentions, ctx)
            .or_else(|| sole_measure_of(ctx, &focus).map(|p| (usize::MAX, p)))
        {
            if i != usize::MAX {
                used[i] = true;
            }
            oql.predicates.push(OqlPredicate::CompareToGlobalAgg {
                prop: prop.clone(),
                op,
                agg: AggFunc::Avg,
                of: prop.clone(),
            });
            explanation.push(format!(
                "against-average: {}.{} {op:?} AVG",
                prop.concept, prop.property
            ));
        }
    }

    // Tokens explained by fired signals (beyond linked mentions and
    // the static cue vocabulary) — e.g. the verb introducing a date
    // filter ("orders *dated* in 2019").
    let mut signal_covered: Vec<usize> = Vec::new();

    // --- Date filter (with direction: "in", "before", "after"). ---
    if let Some((date, date_at)) = signals::find_date(tokens) {
        let temporal = mentions
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
            .find(|(_, p)| role_of(ctx, p) == Some(PropertyRole::Temporal))
            .or_else(|| {
                ctx.ontology
                    .properties_of(&focus)
                    .into_iter()
                    .find(|p| p.role == PropertyRole::Temporal)
                    .map(|p| (usize::MAX, PropRef::new(focus.clone(), p.label.clone())))
            });
        if let Some((i, prop)) = temporal {
            if i != usize::MAX {
                used[i] = true;
            }
            let (lo, hi) = date.day_range();
            let direction = date_at
                .checked_sub(1)
                .map(|j| tokens[j].norm.as_str())
                .unwrap_or("");
            let pred = match direction {
                "before" | "until" => OqlPredicate::Compare {
                    prop: prop.clone(),
                    op: BinOp::Lt,
                    value: Literal::Str(lo),
                },
                "after" => OqlPredicate::Compare {
                    prop: prop.clone(),
                    op: BinOp::Gt,
                    value: Literal::Str(hi),
                },
                "since" | "from" => OqlPredicate::Compare {
                    prop: prop.clone(),
                    op: BinOp::GtEq,
                    value: Literal::Str(lo),
                },
                _ => OqlPredicate::Between {
                    prop: prop.clone(),
                    low: Literal::Str(lo),
                    high: Literal::Str(hi),
                },
            };
            oql.predicates.push(pred);
            // The date filter explains the date tokens and up to two
            // preceding connective words ("dated in", "placed before").
            signal_covered.push(date_at);
            for back in 1..=2usize {
                if let Some(j) = date_at.checked_sub(back) {
                    signal_covered.push(j);
                }
            }
            explanation.push(format!(
                "date filter ({}) on {}.{}",
                if direction.is_empty() {
                    "in"
                } else {
                    direction
                },
                prop.concept,
                prop.property
            ));
        }
    }

    // --- Value mentions → equality / IN-list filters. ---
    // Multiple values on the same property ("in Austin or Boston")
    // disjoin into one IN list; conjunction of distinct equalities on
    // one column is never the intended reading.
    let mut value_groups: Vec<(PropRef, Vec<String>)> = Vec::new();
    for i in 0..mentions.len() {
        if used[i] {
            continue;
        }
        if let LinkKind::Value {
            concept,
            property,
            value,
        } = mentions[i].kind.clone()
        {
            used[i] = true;
            // A property mention naming the same column just before the
            // value ("customers with segment consumer") is part of the
            // filter phrase, not a projection.
            for (j, pm) in mentions.iter().enumerate() {
                if !used[j]
                    && pm.start + pm.len + 1 >= mentions[i].start
                    && pm.start < mentions[i].start
                {
                    if let LinkKind::Property {
                        concept: pc,
                        property: pp,
                    } = &pm.kind
                    {
                        if *pc == concept && *pp == property {
                            used[j] = true;
                        }
                    }
                }
            }
            let prop = PropRef::new(concept.clone(), property.clone());
            match value_groups.iter_mut().find(|(p, _)| *p == prop) {
                Some((_, vs)) => vs.push(value.clone()),
                None => value_groups.push((prop, vec![value.clone()])),
            }
            explanation.push(format!("value filter: {concept}.{property} = '{value}'"));
        }
    }
    for (prop, values) in value_groups {
        if values.len() == 1 {
            oql.predicates.push(OqlPredicate::Compare {
                prop,
                op: BinOp::Eq,
                value: Literal::Str(values.into_iter().next().expect("one value")),
            });
        } else {
            oql.predicates.push(OqlPredicate::ValueIn {
                prop,
                values: values.into_iter().map(Literal::Str).collect(),
            });
        }
    }

    // --- "has related" semi-join: "customers with orders". ---
    if caps.nested {
        for (i, m) in mentions.iter().enumerate() {
            if used[i] || !m.is_concept() || m.concept() == focus {
                continue;
            }
            let prev = m
                .start
                .checked_sub(1)
                .map(|j| tokens[j].norm.as_str())
                .unwrap_or("");
            let prev2 = m
                .start
                .checked_sub(2)
                .map(|j| tokens[j].norm.as_str())
                .unwrap_or("");
            if matches!(prev, "with" | "have" | "has" | "having")
                || matches!(prev2, "with" | "have" | "has" | "having")
            {
                used[i] = true;
                oql.predicates.push(OqlPredicate::HasRelated {
                    other: m.concept().to_string(),
                });
                explanation.push(format!("semi-join: {focus} having related {}", m.concept()));
            }
        }
    }

    // --- Aggregation. ---
    // "above/below average" is a nested comparison, not an AVG
    // projection — the against-average handler consumed it.
    let vs_avg_consumed_avg = signals::find_vs_average(tokens).is_some();
    let agg_cue =
        signals::find_agg_cue(tokens).filter(|c| !(vs_avg_consumed_avg && c.func == AggFunc::Avg));
    let mut group_idx = signals::find_group_cue(tokens);
    // "top 5 products by price": without an aggregate, the "by X"
    // phrase names the sort key, not a grouping.
    if signals::find_top_cue(tokens).is_some() && agg_cue.is_none() {
        group_idx = None;
    }
    if (agg_cue.is_some() || group_idx.is_some()) && !caps.aggregation {
        return None;
    }
    let mut group_prop: Option<PropRef> = None;
    if let Some(gidx) = group_idx {
        // First unused property mention at/after the grouping cue.
        if let Some((i, prop)) = mentions
            .iter()
            .enumerate()
            .filter(|(i, m)| !used[*i] && m.start >= gidx)
            .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
            .next()
        {
            used[i] = true;
            group_prop = Some(prop.clone());
            explanation.push(format!("group by {}.{}", prop.concept, prop.property));
        }
    }
    let mut agg_expr: Option<OqlExpr> = None;
    if let Some(cue) = agg_cue {
        let target = mentions
            .iter()
            .enumerate()
            .filter(|(i, m)| !used[*i] && m.start >= cue.at)
            .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
            .find(|(_, p)| {
                role_of(ctx, p)
                    .map(|r| r == PropertyRole::Measure)
                    .unwrap_or(false)
                    || cue.func == AggFunc::Min
                    || cue.func == AggFunc::Max
            });
        match (target, cue.func) {
            (Some((i, prop)), func) => {
                used[i] = true;
                agg_expr = Some(OqlExpr::Agg(func, Some(prop.clone())));
                explanation.push(format!(
                    "aggregate: {}({}.{})",
                    func.name(),
                    prop.concept,
                    prop.property
                ));
            }
            (None, AggFunc::Count) => {
                agg_expr = Some(OqlExpr::Agg(AggFunc::Count, None));
                explanation.push("aggregate: COUNT(*)".to_string());
            }
            (None, func) => {
                // Aggregate with no linked measure: fall back to the
                // focus's sole measure if unambiguous — otherwise the
                // aggregation intent is unfulfillable and declining
                // beats emitting a degenerate agg-less reading.
                match sole_measure_of(ctx, &focus) {
                    Some(p) => agg_expr = Some(OqlExpr::Agg(func, Some(p))),
                    None => return None,
                }
            }
        }
    }

    // --- Ordering / top-N. ---
    let top_cue = signals::find_top_cue(tokens);
    let order_cue = signals::find_order_cue(tokens);
    if (top_cue.is_some() || order_cue.is_some()) && !caps.ordering {
        return None;
    }
    if let Some(top) = top_cue {
        let order_expr = if let (Some(agg), true) = (&agg_expr, group_prop.is_some()) {
            // "region with the highest total sales" orders by the agg.
            agg.clone()
        } else {
            // Order by the nearest measure property (linked or sole).
            match mentions
                .iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
                .find(|(_, p)| role_of(ctx, p) == Some(PropertyRole::Measure))
            {
                Some((i, p)) => {
                    used[i] = true;
                    OqlExpr::Prop(p)
                }
                None => match sole_measure_of(ctx, &focus) {
                    Some(p) => OqlExpr::Prop(p),
                    None => return None,
                },
            }
        };
        if let OqlExpr::Prop(p) = &order_expr {
            explanation.push(format!(
                "top-{} by {}.{} ({})",
                top.n,
                p.concept,
                p.property,
                if top.desc { "desc" } else { "asc" }
            ));
        }
        oql.order_by.push(OqlOrder {
            expr: order_expr,
            asc: !top.desc,
        });
        oql.limit = Some(top.n);
        score_product *= 0.98;
    } else if let Some((oidx, asc)) = order_cue {
        if let Some((i, prop)) = mentions
            .iter()
            .enumerate()
            .filter(|(i, m)| !used[*i] && m.start >= oidx)
            .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
            .next()
        {
            used[i] = true;
            oql.order_by.push(OqlOrder {
                expr: OqlExpr::Prop(prop),
                asc,
            });
        }
    }

    // --- Projection assembly. ---
    if let Some(g) = &group_prop {
        oql.select.push(OqlExpr::Prop(g.clone()));
        oql.group_by.push(g.clone());
    }
    if let Some(a) = &agg_expr {
        oql.select.push(a.clone());
    }
    if agg_expr.is_none() {
        // Remaining unused property mentions become projections.
        for (i, m) in mentions.iter().enumerate() {
            if used[i] {
                continue;
            }
            if let Some(p) = prop_of(m) {
                used[i] = true;
                oql.select.push(OqlExpr::Prop(p));
            }
        }
    }
    if signals::find_distinct_cue(tokens) && !oql.select.is_empty() {
        oql.distinct = true;
    }

    // Interpretation coverage: content words neither linked nor
    // recognized as signal vocabulary are unexplained.
    let mut covered = vec![false; tokens.len()];
    for m in &mentions {
        for c in covered.iter_mut().skip(m.start).take(m.len) {
            *c = true;
        }
    }
    for &i in &signal_covered {
        if i < covered.len() {
            covered[i] = true;
        }
    }
    let mut content_total = 0usize;
    let mut content_covered = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != nlidb_nlp::TokenKind::Word || nlidb_nlp::is_stopword(&t.norm) {
            continue;
        }
        content_total += 1;
        if covered[i] || crate::linking::is_cue_word(&t.norm) {
            content_covered += 1;
        }
    }
    let coverage = if content_total == 0 {
        1.0
    } else {
        content_covered as f64 / content_total as f64
    };
    Some(OqlBuild {
        oql,
        score: score_product,
        coverage,
        explanation,
        mentions,
    })
}

/// Lower an [`OqlBuild`] to ranked interpretations, generating
/// alternative readings for ambiguous value mentions.
fn lower_builds(
    build: OqlBuild,
    ctx: &SchemaContext,
    caps: Capabilities,
    kind: InterpreterKind,
) -> Vec<Interpretation> {
    let OqlBuild {
        oql,
        score: score_product,
        coverage,
        explanation,
        mentions,
    } = build;
    let coverage_factor = 0.35 + 0.65 * coverage;

    // --- Lower to SQL. ---
    let mut out = Vec::new();
    match oql.to_sql(&ctx.ontology, &ctx.graph) {
        Ok(sql) => {
            let confidence = ((0.55 + 0.45 * score_product) * coverage_factor).min(1.0);
            let mut interp = Interpretation::new(sql, confidence, kind);
            interp.explanation = explanation.clone();
            out.push(interp);
        }
        Err(_) => return Vec::new(),
    }

    // --- Alternative readings for ambiguous value mentions. ---
    for m in &mentions {
        if let LinkKind::Value {
            concept,
            property,
            value,
        } = &m.kind
        {
            for alt in ctx.indices.values.lookup(&m.text).into_iter().take(3) {
                let alt_concept = match ctx.ontology.concept_for_table(&alt.table) {
                    Some(c) => c.label.clone(),
                    None => continue,
                };
                let alt_prop = match ctx
                    .ontology
                    .properties_of(&alt_concept)
                    .into_iter()
                    .find(|p| p.column == alt.column)
                {
                    Some(p) => p.label.clone(),
                    None => continue,
                };
                if alt_concept == *concept && alt_prop == *property {
                    continue;
                }
                if !caps.joins && alt_concept != oql.focus {
                    continue;
                }
                let mut alt_oql = oql.clone();
                let mut replaced = false;
                for pred in &mut alt_oql.predicates {
                    if let OqlPredicate::Compare {
                        prop,
                        op: BinOp::Eq,
                        value: v,
                    } = pred
                    {
                        if prop.concept == *concept
                            && prop.property == *property
                            && *v == Literal::Str(value.clone())
                        {
                            *prop = PropRef::new(alt_concept.clone(), alt_prop.clone());
                            *v = Literal::Str(alt.value.clone());
                            replaced = true;
                            break;
                        }
                    }
                }
                if replaced {
                    if let Ok(sql) = alt_oql.to_sql(&ctx.ontology, &ctx.graph) {
                        let confidence = ((0.55 + 0.45 * score_product * alt.score * 0.8)
                            * coverage_factor)
                            .min(1.0);
                        out.push(Interpretation::new(sql, confidence, kind).explain(format!(
                            "alternative: '{}' read as {alt_concept}.{alt_prop}",
                            m.text
                        )));
                    }
                }
            }
        }
    }
    rank(out)
}

/// Property-mention disambiguation: a bare property word that exists
/// on several concepts ("city") binds to (1) the concept mentioned
/// immediately before it ("patient city"), else (2) the focus concept
/// — NaLIR's context-sensitive node mapping.
fn prefer_context_properties(mentions: &mut [LinkedMention], focus: &str, ctx: &SchemaContext) {
    // Collect (position, concept) of concept mentions first.
    let concept_positions: Vec<(usize, usize, String)> = mentions
        .iter()
        .filter(|m| m.is_concept())
        .map(|m| (m.start, m.len, m.concept().to_string()))
        .collect();
    for m in mentions.iter_mut() {
        let LinkKind::Property { concept, property } = &m.kind else {
            continue;
        };
        // Rule 1: adjacent preceding concept mention owns the property.
        let adjacent = concept_positions
            .iter()
            .find(|(start, len, _)| start + len <= m.start && m.start - (start + len) <= 1)
            .map(|(_, _, c)| c.clone());
        let candidates: Vec<String> = adjacent
            .into_iter()
            .chain(std::iter::once(focus.to_string()))
            .collect();
        for target in candidates {
            if target == *concept {
                break; // already bound to the preferred concept
            }
            if ctx.ontology.property(&target, property).is_some() {
                m.kind = LinkKind::Property {
                    concept: target,
                    property: property.clone(),
                };
                break;
            }
        }
    }
}

/// Value-mention disambiguation: when a value string exists in
/// several columns, prefer the reading on the focus concept (SODA's
/// ranking aggregates lookup scores; ties break toward the queried
/// entity). Only equal-or-better-scoring hits may override.
fn prefer_focus_values(mentions: &mut [LinkedMention], focus: &str, ctx: &SchemaContext) {
    for m in mentions.iter_mut() {
        if let LinkKind::Value { concept, .. } = &m.kind {
            if concept != focus {
                let better = ctx
                    .indices
                    .values
                    .lookup(&m.text)
                    .into_iter()
                    .filter(|h| h.score >= m.score - 1e-9)
                    .find(|h| {
                        ctx.ontology
                            .concept_for_table(&h.table)
                            .map(|c| c.label == focus)
                            .unwrap_or(false)
                    });
                if let Some(hit) = better {
                    if let Some(prop) = ctx
                        .ontology
                        .properties_of(focus)
                        .into_iter()
                        .find(|p| p.column == hit.column)
                    {
                        m.kind = LinkKind::Value {
                            concept: focus.to_string(),
                            property: prop.label.clone(),
                            value: hit.value,
                        };
                        m.score = hit.score;
                    }
                }
            }
        }
    }
}

/// Nearest unused property mention strictly left of `pos` (preferring
/// measures), else the first unused property right of `pos`.
fn nearest_property(
    mentions: &[LinkedMention],
    used: &[bool],
    pos: usize,
    ctx: &SchemaContext,
) -> Option<(usize, PropRef)> {
    let candidates: Vec<(usize, PropRef)> = mentions
        .iter()
        .enumerate()
        .filter(|(i, _)| !used[*i])
        .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
        .collect();
    let is_measure = |p: &PropRef| role_of(ctx, p) == Some(PropertyRole::Measure);
    // Left of the cue, nearest first, measures preferred.
    let left = candidates
        .iter()
        .filter(|(i, _)| mentions[*i].start < pos)
        .max_by_key(|(i, p)| (is_measure(p), mentions[*i].start));
    if let Some((i, p)) = left {
        if is_measure(p) || mentions[*i].start + mentions[*i].len >= pos {
            return Some((*i, p.clone()));
        }
    }
    // Right of the cue: only numeric-compatible properties.
    candidates
        .into_iter()
        .filter(|(i, _)| mentions[*i].start > pos)
        .find(|(_, p)| is_measure(p))
}

fn first_measure_property(
    mentions: &[LinkedMention],
    ctx: &SchemaContext,
) -> Option<(usize, PropRef)> {
    mentions
        .iter()
        .enumerate()
        .filter_map(|(i, m)| prop_of(m).map(|p| (i, p)))
        .find(|(_, p)| role_of(ctx, p) == Some(PropertyRole::Measure))
}

/// The descriptor property of a concept, falling back to its primary
/// key, falling back to its first property.
fn descriptor_prop(ctx: &SchemaContext, concept: &str) -> PropRef {
    if let Some(d) = ctx.ontology.descriptor_of(concept) {
        return PropRef::new(concept, d.label.clone());
    }
    let props = ctx.ontology.properties_of(concept);
    if let Some(pk) = ctx
        .ontology
        .concept(concept)
        .and_then(|c| c.primary_key.clone())
    {
        if let Some(p) = props.iter().find(|p| p.column == pk) {
            return PropRef::new(concept, p.label.clone());
        }
    }
    PropRef::new(
        concept,
        props.first().map(|p| p.label.clone()).unwrap_or_default(),
    )
}

/// The focus concept's only measure property (None when 0 or ≥2).
fn sole_measure_of(ctx: &SchemaContext, concept: &str) -> Option<PropRef> {
    let measures = ctx.ontology.measures_of(concept);
    if measures.len() == 1 {
        Some(PropRef::new(concept, measures[0].label.clone()))
    } else {
        None
    }
}

/// The ATHENA/NaLIR-class interpreter: full capability mask.
#[derive(Debug, Default)]
pub struct EntityInterpreter;

impl EntityInterpreter {
    /// Construct.
    pub fn new() -> EntityInterpreter {
        EntityInterpreter
    }
}

impl Interpreter for EntityInterpreter {
    fn kind(&self) -> InterpreterKind {
        InterpreterKind::Entity
    }

    fn interpret(&self, question: &PreparedQuestion, ctx: &SchemaContext) -> Vec<Interpretation> {
        interpret_with(question, ctx, Capabilities::full(), InterpreterKind::Entity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};

    fn setup() -> (Database, SchemaContext) {
        let mut db = Database::new("shop");
        db.create_table(
            TableSchema::new("customers")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("city", ColumnType::Text)
                .column("signup_date", ColumnType::Date)
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
        for (id, n, c, d) in [
            (1, "Ada", "Austin", "2019-01-05"),
            (2, "Bob", "Boston", "2020-06-10"),
        ] {
            db.insert(
                "customers",
                vec![
                    Value::Int(id),
                    Value::from(n),
                    Value::from(c),
                    Value::from(d),
                ],
            )
            .unwrap();
        }
        db.insert(
            "orders",
            vec![Value::Int(1), Value::Int(1), Value::Float(99.0)],
        )
        .unwrap();
        let ctx = SchemaContext::build(&db);
        (db, ctx)
    }

    #[test]
    fn ambiguous_values_yield_candidates_with_distinct_provenance() {
        // "Austin" is a city of both patients and doctors: the family
        // must emit both readings, each grounding the same question
        // span to a different column.
        let mut db = Database::new("clinic");
        db.create_table(
            TableSchema::new("patients")
                .column("id", ColumnType::Int)
                .column("city", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("doctors")
                .column("id", ColumnType::Int)
                .column("city", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("visits")
                .column("id", ColumnType::Int)
                .column("patient_id", ColumnType::Int)
                .column("doctor_id", ColumnType::Int)
                .primary_key("id")
                .foreign_key("patient_id", "patients", "id")
                .foreign_key("doctor_id", "doctors", "id"),
        )
        .unwrap();
        for i in 0..2i64 {
            db.insert("patients", vec![Value::Int(i), Value::from("Austin")])
                .unwrap();
            db.insert("doctors", vec![Value::Int(i), Value::from("Austin")])
                .unwrap();
            db.insert("visits", vec![Value::Int(i), Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let ctx = SchemaContext::build(&db);
        let q = PreparedQuestion::new("show visits in Austin", &ctx);
        let set = crate::candidates::gather(&EntityInterpreter::new(), &q, &ctx, 5);
        assert!(
            set.len() >= 2,
            "both readings expected: {:?}",
            set.candidates
        );
        let value_targets: Vec<Vec<&str>> = set
            .candidates
            .iter()
            .map(|c| {
                c.provenance
                    .iter()
                    .filter(|g| g.target.starts_with("value:"))
                    .map(|g| g.target.as_str())
                    .collect()
            })
            .collect();
        assert_ne!(
            value_targets[0], value_targets[1],
            "the two readings must ground the value differently"
        );
    }

    fn best_sql(q: &str, ctx: &SchemaContext) -> String {
        EntityInterpreter::new()
            .best(q, ctx)
            .unwrap_or_else(|| panic!("no interpretation for: {q}"))
            .sql
            .to_string()
    }

    #[test]
    fn selection_with_value_filter() {
        let (_db, ctx) = setup();
        assert_eq!(
            best_sql("show customers in Austin", &ctx),
            "SELECT * FROM customers WHERE city = 'Austin'"
        );
    }

    #[test]
    fn projection_of_named_property() {
        let (_db, ctx) = setup();
        assert_eq!(
            best_sql("names of customers in Austin", &ctx),
            "SELECT name FROM customers WHERE city = 'Austin'"
        );
    }

    #[test]
    fn aggregation_with_group() {
        let (_db, ctx) = setup();
        let sql = best_sql("total order amount by customer city", &ctx);
        assert!(sql.contains("SUM(orders.amount)"), "{sql}");
        assert!(sql.contains("GROUP BY customers.city"), "{sql}");
        assert!(sql.contains("JOIN"), "{sql}");
    }

    #[test]
    fn count_question() {
        let (_db, ctx) = setup();
        assert_eq!(
            best_sql("how many customers are there", &ctx),
            "SELECT COUNT(*) FROM customers"
        );
    }

    #[test]
    fn comparison_filter() {
        let (_db, ctx) = setup();
        assert_eq!(
            best_sql("orders with amount greater than 50", &ctx),
            "SELECT * FROM orders WHERE amount > 50"
        );
    }

    #[test]
    fn negation_produces_not_in() {
        let (_db, ctx) = setup();
        let sql = best_sql("customers without orders", &ctx);
        assert!(
            sql.contains("NOT IN (SELECT orders.customer_id FROM orders)"),
            "{sql}"
        );
    }

    #[test]
    fn above_average_produces_scalar_subquery() {
        let (_db, ctx) = setup();
        let sql = best_sql("orders with amount above average", &ctx);
        assert!(sql.contains("(SELECT AVG(amount) FROM orders)"), "{sql}");
    }

    #[test]
    fn related_count_produces_having() {
        let (_db, ctx) = setup();
        let sql = best_sql("customers with more than 5 orders", &ctx);
        assert!(sql.contains("HAVING COUNT(*) > 5"), "{sql}");
        assert!(sql.contains("JOIN orders"), "{sql}");
        assert!(sql.contains("GROUP BY customers.name"), "{sql}");
    }

    #[test]
    fn top_n() {
        let (_db, ctx) = setup();
        let sql = best_sql("top 3 orders by amount", &ctx);
        assert!(sql.ends_with("ORDER BY amount DESC LIMIT 3"), "{sql}");
    }

    #[test]
    fn date_filter() {
        let (_db, ctx) = setup();
        let sql = best_sql("customers who signed up in 2019", &ctx);
        assert!(
            sql.contains("signup_date BETWEEN '2019-01-01' AND '2019-12-31'"),
            "{sql}"
        );
    }

    #[test]
    fn no_mentions_no_interpretations() {
        let (_db, ctx) = setup();
        assert!(EntityInterpreter::new()
            .best("quantum flux capacitors", &ctx)
            .is_none());
    }

    #[test]
    fn capability_mask_blocks_joins() {
        let (_db, ctx) = setup();
        // Single-table mask asked a join question: it should produce a
        // single-table (wrong or empty) reading, never a join.
        let out = interpret_with(
            &PreparedQuestion::new("total order amount by customer city", &ctx),
            &ctx,
            Capabilities::single_table_patterns(),
            InterpreterKind::Pattern,
        );
        for i in &out {
            assert!(i.sql.joins.is_empty(), "mask must prevent joins: {}", i.sql);
        }
    }

    #[test]
    fn capability_mask_blocks_nested() {
        let (_db, ctx) = setup();
        let out = interpret_with(
            &PreparedQuestion::new("customers without orders", &ctx),
            &ctx,
            Capabilities::single_table_patterns(),
            InterpreterKind::Pattern,
        );
        assert!(out.is_empty(), "nested question must be out of scope");
    }

    #[test]
    fn date_direction_before_after() {
        let (_db, ctx) = setup();
        let sql = best_sql("customers who signed up before 2020", &ctx);
        assert!(sql.contains("signup_date < '2020-01-01'"), "{sql}");
        let sql = best_sql("customers who signed up after 2019", &ctx);
        assert!(sql.contains("signup_date > '2019-12-31'"), "{sql}");
        let sql = best_sql("customers who signed up since 2019", &ctx);
        assert!(sql.contains("signup_date >= '2019-01-01'"), "{sql}");
    }

    #[test]
    fn value_disjunction_becomes_in_list() {
        let (_db, ctx) = setup();
        let sql = best_sql("show customers in Austin or Boston", &ctx);
        assert!(
            sql.contains("city IN ('Austin', 'Boston')")
                || sql.contains("city IN ('Boston', 'Austin')"),
            "{sql}"
        );
    }

    #[test]
    fn explanations_present() {
        let (_db, ctx) = setup();
        let i = EntityInterpreter::new()
            .best("customers in Austin", &ctx)
            .unwrap();
        assert!(i.explanation.iter().any(|e| e.contains("focus concept")));
        assert!(i.confidence > 0.5);
    }
}
