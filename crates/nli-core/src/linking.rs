//! Mention detection and entity linking: mapping question spans to
//! ontology concepts, properties, and data values.
//!
//! This is the shared "lookup step" of the entity-based family: USI
//! Answers "produces the candidate entities mentioned in the query";
//! SODA looks terms up in data and metadata indices; NaLIR maps parse
//! tree nodes with a similarity function. The linker scans token
//! sub-spans longest-first, consulting the metadata index before the
//! value index, and never re-consumes a token.

use nlidb_nlp::{is_stopword, tokenize, Token, TokenKind};
use nlidb_obs::TraceBuilder;
use nlidb_vindex::MetaKind;

use crate::pipeline::SchemaContext;

/// What a linked mention refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkKind {
    /// A concept (table).
    Concept {
        /// Concept label.
        concept: String,
    },
    /// A data property (column).
    Property {
        /// Owning concept.
        concept: String,
        /// Property label.
        property: String,
    },
    /// A data value, located to its column.
    Value {
        /// Owning concept.
        concept: String,
        /// Property label of the column holding the value.
        property: String,
        /// The stored value (original casing).
        value: String,
    },
}

/// A linked span of the question.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedMention {
    /// First token index of the span.
    pub start: usize,
    /// Number of tokens in the span.
    pub len: usize,
    /// The matched surface text (normalized).
    pub text: String,
    /// What it linked to.
    pub kind: LinkKind,
    /// Link confidence in `[0, 1]`.
    pub score: f64,
}

impl LinkedMention {
    /// Concept this mention belongs to, whatever its kind.
    pub fn concept(&self) -> &str {
        match &self.kind {
            LinkKind::Concept { concept }
            | LinkKind::Property { concept, .. }
            | LinkKind::Value { concept, .. } => concept,
        }
    }

    /// Is this a concept mention?
    pub fn is_concept(&self) -> bool {
        matches!(self.kind, LinkKind::Concept { .. })
    }

    /// Is this a property mention?
    pub fn is_property(&self) -> bool {
        matches!(self.kind, LinkKind::Property { .. })
    }

    /// Is this a value mention?
    pub fn is_value(&self) -> bool {
        matches!(self.kind, LinkKind::Value { .. })
    }
}

/// Words that carry operator/aggregate semantics and must not be
/// consumed as entity mentions.
const CUE_WORDS: &[&str] = &[
    "total",
    "sum",
    "average",
    "mean",
    "avg",
    "count",
    "number",
    "many",
    "maximum",
    "minimum",
    "max",
    "min",
    "top",
    "bottom",
    "largest",
    "smallest",
    "highest",
    "lowest",
    "biggest",
    "cheapest",
    "best",
    "worst",
    "most",
    "least",
    "greatest",
    "fewest",
    "more",
    "less",
    "fewer",
    "greater",
    "higher",
    "lower",
    "larger",
    "smaller",
    "than",
    "between",
    "over",
    "under",
    "above",
    "below",
    "least",
    "exactly",
    "without",
    "never",
    "no",
    "not",
    "each",
    "per",
    "distinct",
    "unique",
    "different",
    "order",
    "sort",
    "rank",
    "sorted",
    "ranked",
    "ordered",
    "descending",
    "ascending",
    "desc",
    "asc",
    "oldest",
    "newest",
    "earliest",
    "latest",
    "by",
    "per",
];

/// Is this (lowercased) word operator/aggregate signal vocabulary?
pub fn is_cue_word(word: &str) -> bool {
    CUE_WORDS.contains(&word)
}

fn linkable(token: &Token) -> bool {
    match token.kind {
        TokenKind::Word => !is_stopword(&token.norm) && !CUE_WORDS.contains(&token.norm.as_str()),
        TokenKind::Quoted => true,
        TokenKind::Number | TokenKind::Punct => false,
    }
}

/// Minimum acceptable link score.
const LINK_THRESHOLD: f64 = 0.78;

/// Link all mentions in a token stream. Spans are tried longest-first
/// (up to 3 tokens), metadata before values; consumed tokens are not
/// reused. Quoted tokens are only matched against values.
pub fn link_mentions(tokens: &[Token], ctx: &SchemaContext) -> Vec<LinkedMention> {
    let mut consumed = vec![false; tokens.len()];
    let mut out = Vec::new();

    for span_len in (1..=3usize).rev() {
        let mut i = 0;
        while i + span_len <= tokens.len() {
            if (i..i + span_len).any(|j| consumed[j] || !linkable(&tokens[j])) {
                i += 1;
                continue;
            }
            // Quoted spans are value-only and must be a single token.
            let has_quoted = tokens[i..i + span_len]
                .iter()
                .any(|t| t.kind == TokenKind::Quoted);
            if has_quoted && span_len > 1 {
                i += 1;
                continue;
            }
            let text: String = tokens[i..i + span_len]
                .iter()
                .map(|t| t.norm.as_str())
                .collect::<Vec<_>>()
                .join(" ");

            // Multi-token spans must match strongly (exact/stem/synonym
            // territory); weak fuzzy matches on long spans swallow
            // structural words between two real mentions.
            let meta_threshold = if span_len > 1 { 0.88 } else { LINK_THRESHOLD };
            let mut linked: Option<LinkedMention> = None;
            if !has_quoted {
                if let Some(hit) = ctx.indices.metadata.lookup(&text).into_iter().next() {
                    if hit.score >= meta_threshold {
                        linked = Some(LinkedMention {
                            start: i,
                            len: span_len,
                            text: text.clone(),
                            kind: match hit.kind {
                                MetaKind::Concept => LinkKind::Concept {
                                    concept: hit.concept,
                                },
                                MetaKind::Property => LinkKind::Property {
                                    concept: hit.concept,
                                    property: hit.property,
                                },
                            },
                            score: hit.score,
                        });
                    }
                }
            }
            if linked.is_none() {
                if let Some(vhit) = ctx.indices.values.lookup(&text).into_iter().next() {
                    let min = if has_quoted {
                        0.6
                    } else {
                        LINK_THRESHOLD + 0.07
                    };
                    if vhit.score >= min {
                        if let Some(concept) = ctx.ontology.concept_for_table(&vhit.table) {
                            if let Some(prop) = ctx
                                .ontology
                                .properties_of(&concept.label)
                                .into_iter()
                                .find(|p| p.column == vhit.column)
                            {
                                linked = Some(LinkedMention {
                                    start: i,
                                    len: span_len,
                                    text: text.clone(),
                                    kind: LinkKind::Value {
                                        concept: concept.label.clone(),
                                        property: prop.label.clone(),
                                        value: vhit.value,
                                    },
                                    score: vhit.score,
                                });
                            }
                        }
                    }
                }
            }
            if let Some(m) = linked {
                for c in consumed.iter_mut().skip(i).take(span_len) {
                    *c = true;
                }
                out.push(m);
                i += span_len;
            } else {
                i += 1;
            }
        }
    }
    out.sort_by_key(|m| m.start);
    out
}

/// A question tokenized and linked once — the front half every
/// family, the candidate gatherer, `suggest` and a dialogue turn read
/// instead of re-deriving it (Affolter et al.'s shared preprocessing
/// stage). Families that edit mentions clone them locally.
#[derive(Debug, Clone)]
pub struct PreparedQuestion {
    /// The question as asked.
    pub text: String,
    /// Its tokens.
    pub tokens: Vec<Token>,
    /// Its linked mentions, by span start.
    pub mentions: Vec<LinkedMention>,
}

impl PreparedQuestion {
    /// Tokenize and link `text` against `ctx`.
    pub fn new(text: &str, ctx: &SchemaContext) -> PreparedQuestion {
        Self::traced(text, ctx, None)
    }

    /// [`PreparedQuestion::new`], wrapping each step in a `tokenize` /
    /// `link` span of `tb` when one is given.
    pub(crate) fn traced(
        text: &str,
        ctx: &SchemaContext,
        mut tb: Option<&mut TraceBuilder>,
    ) -> PreparedQuestion {
        let span = tb.as_deref_mut().map(|t| t.open("tokenize"));
        let tokens = tokenize(text);
        if let (Some(t), Some(s)) = (tb.as_deref_mut(), span) {
            t.annotate(s, "tokens", tokens.len().to_string());
            t.close(s);
        }
        let span = tb.as_deref_mut().map(|t| t.open("link"));
        let mentions = link_mentions(&tokens, ctx);
        if let (Some(t), Some(s)) = (tb, span) {
            t.annotate(s, "mentions", mentions.len().to_string());
            t.close(s);
        }
        PreparedQuestion {
            text: text.to_string(),
            tokens,
            mentions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SchemaContext;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};

    fn ctx() -> (Database, SchemaContext) {
        let mut db = Database::new("shop");
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
        for (id, n, c) in [(1, "Ada", "Austin"), (2, "Bob", "New York")] {
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
        let ctx = SchemaContext::build(&db);
        (db, ctx)
    }

    #[test]
    fn links_concept_property_value() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("customers in Austin"), &ctx);
        assert_eq!(m.len(), 2);
        assert!(m[0].is_concept());
        assert_eq!(m[0].concept(), "customer");
        assert!(m[1].is_value());
        assert_eq!(
            m[1].kind,
            LinkKind::Value {
                concept: "customer".into(),
                property: "city".into(),
                value: "Austin".into()
            }
        );
    }

    #[test]
    fn multiword_value_links() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("customers in new york"), &ctx);
        let val = m.iter().find(|m| m.is_value()).unwrap();
        assert_eq!(val.len, 2);
        assert_eq!(val.text, "new york");
    }

    #[test]
    fn quoted_value_links() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("customers in 'New York'"), &ctx);
        assert!(m.iter().any(|m| m.is_value()));
    }

    #[test]
    fn cue_words_not_consumed() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("total amount by city"), &ctx);
        // "total" must not become a mention; amount + city must link.
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|m| m.is_property()));
    }

    #[test]
    fn synonym_property_links() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("clients"), &ctx);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].concept(), "customer");
    }

    #[test]
    fn tokens_consumed_once() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("customer city"), &ctx);
        // "customer city" should ideally link as the property "city"
        // (with concept context), not twice.
        let mut covered = std::collections::HashSet::new();
        for mention in &m {
            for t in mention.start..mention.start + mention.len {
                assert!(covered.insert(t), "token {t} linked twice");
            }
        }
    }

    #[test]
    fn mentions_sorted_by_position() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("amount of orders of customers in Austin"), &ctx);
        for w in m.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn unknown_words_unlinked() {
        let (_db, ctx) = ctx();
        let m = link_mentions(&tokenize("show flibber glorp"), &ctx);
        assert!(m.is_empty());
    }
}
