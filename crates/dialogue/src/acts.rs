//! Dialogue-act detection: what does this turn *do* to the running
//! query?

use nlidb_core::linking::{LinkedMention, PreparedQuestion};
use nlidb_core::signals;

/// The acts a data-exploration turn can perform.
#[derive(Debug, Clone, PartialEq)]
pub enum DialogueAct {
    /// A full, self-contained question.
    NewQuery,
    /// Swap a filter value: "what about Boston".
    ReplaceValue {
        /// The linked replacement value mention.
        mention: LinkedMention,
    },
    /// Narrow the current result: "only those with amount over 50".
    AddFilter,
    /// Change the measure/aggregate: "what is the average amount".
    SetAggregation,
    /// Regroup: "break that down by city".
    SetGroup {
        /// The grouping property mention.
        mention: LinkedMention,
    },
    /// Keep only the top/bottom N: "just the top 5".
    SetTopN,
    /// Reorder the result: "sorted by amount".
    SetOrder,
    /// Widen back out: "remove the filters".
    RemoveFilters,
    /// Change the subject: "show their orders instead".
    SwitchFocus {
        /// The new focus concept.
        concept: String,
    },
    /// Nothing recognizable.
    Unknown,
}

impl DialogueAct {
    /// Stable label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            DialogueAct::NewQuery => "new_query",
            DialogueAct::ReplaceValue { .. } => "replace_value",
            DialogueAct::AddFilter => "add_filter",
            DialogueAct::SetAggregation => "set_aggregation",
            DialogueAct::SetGroup { .. } => "set_group",
            DialogueAct::SetTopN => "set_top_n",
            DialogueAct::SetOrder => "set_order",
            DialogueAct::RemoveFilters => "remove_filters",
            DialogueAct::SwitchFocus { .. } => "switch_focus",
            DialogueAct::Unknown => "unknown",
        }
    }
}

/// Classify one prepared turn against the running context.
/// `has_context` is false on the first turn — everything then is a new
/// query (or unknown).
pub fn detect_act(utterance: &PreparedQuestion, has_context: bool) -> DialogueAct {
    let (tokens, mentions) = (&utterance.tokens, &utterance.mentions);
    let norms: Vec<&str> = tokens.iter().map(|t| t.norm.as_str()).collect();

    if !has_context {
        return if mentions.is_empty() {
            DialogueAct::Unknown
        } else {
            DialogueAct::NewQuery
        };
    }

    let starts_with = |prefix: &[&str]| norms.starts_with(prefix);
    let contains = |w: &str| norms.contains(&w);

    // "remove/clear/drop the filter(s)" or "show everything again".
    if (contains("remove") || contains("clear") || contains("drop"))
        && (contains("filter") || contains("filters") || contains("condition"))
        || starts_with(&["show", "everything"])
    {
        return DialogueAct::RemoveFilters;
    }

    // "what about X" / "how about X" / "and for X".
    let deictic_head = starts_with(&["what", "about"])
        || starts_with(&["how", "about"])
        || starts_with(&["and", "for"])
        || starts_with(&["and", "in"])
        || starts_with(&["what", "if"])
        || starts_with(&["instead"]);
    if deictic_head {
        if let Some(m) = mentions.iter().find(|m| m.is_value()) {
            return DialogueAct::ReplaceValue { mention: m.clone() };
        }
        if let Some(m) = mentions.iter().find(|m| m.is_concept()) {
            return DialogueAct::SwitchFocus {
                concept: m.concept().to_string(),
            };
        }
        if let Some(m) = mentions.iter().find(|m| m.is_property()) {
            return DialogueAct::SetGroup { mention: m.clone() };
        }
        return DialogueAct::Unknown;
    }

    // Focus switch: "show their/the orders instead", "… instead".
    if contains("instead") {
        if let Some(m) = mentions.iter().find(|m| m.is_concept()) {
            return DialogueAct::SwitchFocus {
                concept: m.concept().to_string(),
            };
        }
    }

    // Grouping fragments: "break that down by X", "group by X", "per X".
    if (contains("break") && contains("down"))
        || starts_with(&["group"])
        || starts_with(&["split"])
        || starts_with(&["per"])
        || starts_with(&["by"])
    {
        if let Some(m) = mentions.iter().find(|m| m.is_property()) {
            return DialogueAct::SetGroup { mention: m.clone() };
        }
    }

    // Top-N fragments: short, anchored on a top cue.
    if let Some(_top) = signals::find_top_cue(tokens) {
        let short = tokens.len() <= 6;
        if short && mentions.iter().all(|m| !m.is_concept()) {
            return DialogueAct::SetTopN;
        }
    }

    // Ordering fragments.
    if signals::find_order_cue(tokens).is_some() && tokens.len() <= 6 {
        return DialogueAct::SetOrder;
    }

    // Aggregation fragments: "how many of those", "what is the average
    // amount", "total amount".
    if let Some(_cue) = signals::find_agg_cue(tokens) {
        let anaphoric = contains("those") || contains("them") || contains("that");
        let no_new_concept = mentions.iter().all(|m| !m.is_concept());
        if anaphoric || (no_new_concept && tokens.len() <= 6) {
            return DialogueAct::SetAggregation;
        }
    }

    // Narrowing: "only …", "just …", or anaphora plus a comparison or
    // value mention.
    let narrowing_head =
        starts_with(&["only"]) || starts_with(&["just"]) || contains("those") || contains("them");
    if narrowing_head
        && (!signals::find_comparisons(tokens).is_empty() || mentions.iter().any(|m| m.is_value()))
    {
        return DialogueAct::AddFilter;
    }

    // Bare comparison fragment: "with amount over 50".
    if !signals::find_comparisons(tokens).is_empty()
        && mentions.iter().all(|m| !m.is_concept())
        && tokens.len() <= 7
    {
        return DialogueAct::AddFilter;
    }

    // Bare value fragment: "in Boston".
    if tokens.len() <= 3 {
        if let Some(m) = mentions.iter().find(|m| m.is_value()) {
            return DialogueAct::ReplaceValue { mention: m.clone() };
        }
    }

    if mentions.is_empty() {
        DialogueAct::Unknown
    } else {
        DialogueAct::NewQuery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_core::pipeline::SchemaContext;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};

    fn detect(utterance: &str, ctx: &SchemaContext, has_context: bool) -> DialogueAct {
        detect_act(&PreparedQuestion::new(utterance, ctx), has_context)
    }

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
        SchemaContext::build(&db)
    }

    #[test]
    fn first_turn_is_new_query() {
        let ctx = ctx();
        assert_eq!(
            detect("show customers in Austin", &ctx, false),
            DialogueAct::NewQuery
        );
        assert_eq!(detect("blah blah", &ctx, false), DialogueAct::Unknown);
    }

    #[test]
    fn what_about_value_is_replace() {
        let ctx = ctx();
        match detect("what about Boston", &ctx, true) {
            DialogueAct::ReplaceValue { mention } => assert_eq!(mention.text, "boston"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn what_about_concept_is_switch() {
        let ctx = ctx();
        match detect("what about orders", &ctx, true) {
            DialogueAct::SwitchFocus { concept } => assert_eq!(concept, "order"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn only_with_comparison_is_add_filter() {
        let ctx = ctx();
        assert_eq!(
            detect("only those with amount over 50", &ctx, true),
            DialogueAct::AddFilter
        );
        assert_eq!(
            detect("with amount over 50", &ctx, true),
            DialogueAct::AddFilter
        );
    }

    #[test]
    fn how_many_of_those_is_aggregation() {
        let ctx = ctx();
        assert_eq!(
            detect("how many of those are there", &ctx, true),
            DialogueAct::SetAggregation
        );
    }

    #[test]
    fn break_down_by_is_group() {
        let ctx = ctx();
        match detect("break that down by city", &ctx, true) {
            DialogueAct::SetGroup { mention } => assert_eq!(mention.text, "city"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn top_fragment_is_top_n() {
        let ctx = ctx();
        assert_eq!(detect("just the top 5", &ctx, true), DialogueAct::SetTopN);
    }

    #[test]
    fn remove_filters_detected() {
        let ctx = ctx();
        assert_eq!(
            detect("remove the filters please", &ctx, true),
            DialogueAct::RemoveFilters
        );
    }

    #[test]
    fn full_question_with_context_is_new_query() {
        let ctx = ctx();
        assert_eq!(
            detect("show all customers in Boston with their names", &ctx, true),
            DialogueAct::NewQuery
        );
    }

    #[test]
    fn labels_stable() {
        assert_eq!(DialogueAct::NewQuery.label(), "new_query");
        assert_eq!(DialogueAct::Unknown.label(), "unknown");
    }
}
