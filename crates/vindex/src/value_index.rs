//! Inverted index over distinct data values.

use std::collections::{HashMap, HashSet};

use nlidb_engine::{ColumnType, Database, Value};
use nlidb_nlp::{mention_score, porter_stem, tokenize, TokenKind};

/// One indexed-value hit for a mention lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueHit {
    /// Table containing the value.
    pub table: String,
    /// Column containing the value.
    pub column: String,
    /// The stored value (original casing).
    pub value: String,
    /// Match confidence in `[0, 1]`.
    pub score: f64,
}

#[derive(Debug, Clone)]
struct Entry {
    table: String,
    column: String,
    value: String,
    lower: String,
}

/// Inverted index over every distinct text/date value of every column.
///
/// Lookup is token-driven: a mention's (stemmed) tokens select
/// candidate entries, which are then scored with the blended fuzzy
/// [`mention_score`]. Exact full-string matches are also served from a
/// direct map so they cost O(1).
#[derive(Debug, Default)]
pub struct ValueIndex {
    entries: Vec<Entry>,
    by_token: HashMap<String, Vec<u32>>,
    exact: HashMap<String, Vec<u32>>,
}

impl ValueIndex {
    /// Index all text/date columns of `db`.
    pub fn build(db: &Database) -> ValueIndex {
        let mut idx = ValueIndex::default();
        for table in db.tables() {
            for col in &table.schema.columns {
                if !matches!(col.ty, ColumnType::Text | ColumnType::Date) {
                    continue;
                }
                for v in table.distinct_values(&col.name) {
                    if let Value::Str(s) = v {
                        idx.add(&table.schema.name, &col.name, &s);
                    }
                }
            }
        }
        idx
    }

    fn add(&mut self, table: &str, column: &str, value: &str) {
        let lower = value.to_lowercase();
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            table: table.to_string(),
            column: column.to_string(),
            value: value.to_string(),
            lower: lower.clone(),
        });
        self.exact.entry(lower.clone()).or_default().push(id);
        for tok in index_tokens(&lower) {
            self.by_token.entry(tok).or_default().push(id);
        }
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a mention. Returns hits sorted by descending score,
    /// deduplicated per (table, column, value); only hits scoring
    /// ≥ 0.82 (or exact) are returned.
    pub fn lookup(&self, mention: &str) -> Vec<ValueHit> {
        let mention_lower = mention.to_lowercase();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut out: Vec<ValueHit> = Vec::new();

        if let Some(ids) = self.exact.get(&mention_lower) {
            for &id in ids {
                if seen.insert(id) {
                    let e = &self.entries[id as usize];
                    out.push(ValueHit {
                        table: e.table.clone(),
                        column: e.column.clone(),
                        value: e.value.clone(),
                        score: 1.0,
                    });
                }
            }
        }
        // Candidate generation by token overlap. Candidates are
        // visited in id order: iterating a `HashSet` here would leak
        // the process-random hasher seed into result order (equal
        // score+value hits keep insertion order through the stable
        // sort below), breaking run-over-run determinism.
        let mut candidates: Vec<u32> = Vec::new();
        for tok in index_tokens(&mention_lower) {
            if let Some(ids) = self.by_token.get(&tok) {
                candidates.extend(ids.iter().copied());
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for id in candidates {
            if seen.contains(&id) {
                continue;
            }
            let e = &self.entries[id as usize];
            let score = mention_score(&mention_lower, &e.lower);
            if score >= 0.82 {
                seen.insert(id);
                out.push(ValueHit {
                    table: e.table.clone(),
                    column: e.column.clone(),
                    value: e.value.clone(),
                    score,
                });
            }
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.value.cmp(&b.value))
                .then_with(|| a.table.cmp(&b.table))
                .then_with(|| a.column.cmp(&b.column))
        });
        out
    }
}

/// Tokens under which a value is indexed: surface words plus their
/// Porter stems.
fn index_tokens(lower: &str) -> Vec<String> {
    let mut out = Vec::new();
    for t in tokenize(lower) {
        if t.kind == TokenKind::Word {
            let stem = porter_stem(&t.norm);
            if stem != t.norm {
                out.push(stem);
            }
            out.push(t.norm);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("customers")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("city", ColumnType::Text),
        )
        .unwrap();
        for (id, name, city) in [
            (1, "Ada Lovelace", "New York"),
            (2, "Bob Smith", "San Jose"),
            (3, "Carol Jones", "New York"),
            (4, "Dan Brown", "Newark"),
        ] {
            db.insert(
                "customers",
                vec![Value::Int(id), Value::from(name), Value::from(city)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn exact_lookup_scores_one() {
        let idx = ValueIndex::build(&db());
        let hits = idx.lookup("New York");
        assert_eq!(hits[0].score, 1.0);
        assert_eq!(hits[0].column, "city");
        assert_eq!(hits[0].value, "New York");
    }

    #[test]
    fn distinct_values_indexed_once() {
        let idx = ValueIndex::build(&db());
        // 4 names + 3 distinct cities.
        assert_eq!(idx.len(), 7);
        assert!(!idx.is_empty());
    }

    #[test]
    fn case_insensitive() {
        let idx = ValueIndex::build(&db());
        assert_eq!(idx.lookup("new york")[0].score, 1.0);
        assert_eq!(idx.lookup("NEW YORK")[0].score, 1.0);
    }

    #[test]
    fn fuzzy_typo_tolerated() {
        let idx = ValueIndex::build(&db());
        let hits = idx.lookup("San Jsoe");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].value, "San Jose");
        assert!(hits[0].score < 1.0);
    }

    #[test]
    fn partial_token_candidates() {
        let idx = ValueIndex::build(&db());
        // "york" shares a token with "New York" but full-string score is
        // below threshold — should not explode into noise.
        let hits = idx.lookup("zzz unrelated");
        assert!(hits.is_empty());
    }

    #[test]
    fn hits_name_the_owning_table() {
        let idx = ValueIndex::build(&db());
        let hits = idx.lookup("New York");
        assert!(hits.iter().any(|h| h.table == "customers"));
        assert!(!hits.iter().any(|h| h.table == "orders"));
    }

    #[test]
    fn hits_sorted_and_deterministic() {
        let idx = ValueIndex::build(&db());
        let hits = idx.lookup("new");
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert_eq!(idx.lookup("new"), idx.lookup("new"));
    }

    #[test]
    fn numeric_columns_not_indexed() {
        let idx = ValueIndex::build(&db());
        assert!(idx.lookup("1").is_empty());
    }
}
