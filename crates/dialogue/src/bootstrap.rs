//! Ontology-driven bootstrap of conversation artifacts — the Quamar
//! et al. approach: "capturing patterns in the expected workload,
//! mapping these patterns against the domain ontology to generate
//! artifacts (i.e., intents, training examples, entities)".
//!
//! From a domain ontology this module generates, with zero manual
//! setup:
//! * one *intent* per workload pattern × concept (show / count /
//!   aggregate / filter / rank), each with template-expanded training
//!   examples enriched by lexicon synonyms,
//! * *entities* (value lists) from the database's categorical columns,
//! * a trainable [`IntentClassifier`] over those examples (E10).

use nlidb_core::pipeline::SchemaContext;
use nlidb_engine::{Database, Value};
use nlidb_ml::{Mlp, MlpConfig};
use nlidb_nlp::{fnv1a, porter_stem, tokenize, TokenKind, FNV1A_OFFSET};
use nlidb_ontology::PropertyRole;

/// One generated intent with its training examples.
#[derive(Debug, Clone)]
pub struct IntentArtifact {
    /// Intent name, e.g. `aggregate_order_amount`.
    pub name: String,
    /// Generated training utterances.
    pub examples: Vec<String>,
}

/// One generated entity (value list) for slot recognition.
#[derive(Debug, Clone)]
pub struct EntityArtifact {
    /// Entity name, e.g. `customer_city`.
    pub name: String,
    /// Known values.
    pub values: Vec<String>,
}

/// The full bootstrap output.
#[derive(Debug, Clone, Default)]
pub struct ConversationArtifacts {
    /// Generated intents.
    pub intents: Vec<IntentArtifact>,
    /// Generated entities.
    pub entities: Vec<EntityArtifact>,
}

impl ConversationArtifacts {
    /// Total number of generated training examples.
    pub fn example_count(&self) -> usize {
        self.intents.iter().map(|i| i.examples.len()).sum()
    }
}

/// Expand a template over a word and its lexicon synonyms.
fn expand(templates: &[&str], ctx: &SchemaContext, word: &str) -> Vec<String> {
    let mut variants = vec![word.to_string()];
    variants.extend(
        ctx.lexicon
            .synonyms_of(word)
            .iter()
            .take(2)
            .map(|s| s.to_string()),
    );
    let mut out = Vec::with_capacity(templates.len() * variants.len());
    for t in templates {
        for v in &variants {
            out.push(t.replace("{x}", v));
        }
    }
    out
}

/// Generate intents + entities from the ontology (and value lists from
/// the database).
pub fn bootstrap_from_ontology(db: &Database, ctx: &SchemaContext) -> ConversationArtifacts {
    let mut artifacts = ConversationArtifacts::default();
    for concept in &ctx.ontology.concepts {
        let c = &concept.label;
        artifacts.intents.push(IntentArtifact {
            name: format!("show_{c}"),
            examples: expand(
                &[
                    "show all {x}s",
                    "list the {x}s",
                    "display {x}s",
                    "give me every {x}",
                ],
                ctx,
                c,
            ),
        });
        artifacts.intents.push(IntentArtifact {
            name: format!("count_{c}"),
            examples: expand(
                &[
                    "how many {x}s are there",
                    "count the {x}s",
                    "number of {x}s",
                ],
                ctx,
                c,
            ),
        });
        for m in ctx.ontology.measures_of(c) {
            let label = &m.label;
            artifacts.intents.push(IntentArtifact {
                name: format!("aggregate_{c}_{}", m.column),
                examples: expand(
                    &[
                        "total {x}",
                        "sum of {x}",
                        "average {x}",
                        "what is the overall {x}",
                        "mean {x}",
                    ],
                    ctx,
                    label,
                ),
            });
            artifacts.intents.push(IntentArtifact {
                name: format!("rank_{c}_{}", m.column),
                examples: expand(
                    &["top {x}", "highest {x}", "largest {x}", "rank by {x}"],
                    ctx,
                    label,
                ),
            });
        }
        for p in ctx.ontology.properties_of(c) {
            if p.role == PropertyRole::Categorical {
                artifacts.intents.push(IntentArtifact {
                    name: format!("filter_{c}_{}", p.column),
                    examples: expand(
                        &[
                            "{x}s in",
                            "filter by {x}",
                            "only a certain {x}",
                            "restrict the {x}",
                        ],
                        ctx,
                        &p.label,
                    )
                    .into_iter()
                    .map(|e| e.replace("{x}s in", &format!("{c}s with some {}", p.label)))
                    .collect(),
                });
                // Entity from data values.
                if let Ok(table) = db.table(&concept.table) {
                    let values: Vec<String> = table
                        .distinct_values(&p.column)
                        .into_iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => Some(s),
                            _ => None,
                        })
                        .collect();
                    if !values.is_empty() {
                        artifacts.entities.push(EntityArtifact {
                            name: format!("{c}_{}", p.column),
                            values,
                        });
                    }
                }
            }
        }
    }
    artifacts
}

/// A trainable intent classifier over bootstrap artifacts.
pub struct IntentClassifier {
    mlp: Mlp,
    labels: Vec<String>,
}

const IDIM: usize = 160;

fn features(utterance: &str) -> Vec<f64> {
    let mut v = vec![0.0; IDIM];
    let mut any = false;
    for t in tokenize(utterance) {
        if t.kind != TokenKind::Word {
            continue;
        }
        let h = fnv1a(FNV1A_OFFSET, porter_stem(&t.norm).as_bytes());
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[h as usize % IDIM] += sign;
        any = true;
    }
    if any {
        let n = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
        v.iter_mut().for_each(|x| *x /= n);
    }
    v
}

impl IntentClassifier {
    /// Train on bootstrap artifacts.
    pub fn train(artifacts: &ConversationArtifacts, seed: u64) -> IntentClassifier {
        let labels: Vec<String> = artifacts.intents.iter().map(|i| i.name.clone()).collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (li, intent) in artifacts.intents.iter().enumerate() {
            for e in &intent.examples {
                xs.push(features(e));
                ys.push(li);
            }
        }
        let cfg = MlpConfig {
            hidden: 48,
            epochs: 120,
            lr: 0.1,
            seed,
            l2: 1e-4,
        };
        let mut mlp = Mlp::new(IDIM, labels.len().max(2), &cfg);
        mlp.train(&xs, &ys, &cfg);
        IntentClassifier { mlp, labels }
    }

    /// Classify an utterance; returns (intent name, confidence).
    pub fn classify(&self, utterance: &str) -> (&str, f64) {
        let p = self.mlp.predict_proba(&features(utterance));
        let i = nlidb_ml::matrix::argmax(&p);
        (self.labels.get(i).map(String::as_str).unwrap_or(""), p[i])
    }

    /// Accuracy over labeled (utterance, intent) pairs.
    pub fn accuracy(&self, pairs: &[(String, String)]) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let ok = pairs
            .iter()
            .filter(|(u, gold)| self.classify(u).0 == gold)
            .count();
        ok as f64 / pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, TableSchema};

    fn setup() -> (Database, SchemaContext) {
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
        let ctx = SchemaContext::build(&db);
        (db, ctx)
    }

    #[test]
    fn generates_intents_per_pattern() {
        let (db, ctx) = setup();
        let a = bootstrap_from_ontology(&db, &ctx);
        let names: Vec<&str> = a.intents.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"show_customer"));
        assert!(names.contains(&"count_customer"));
        assert!(names.contains(&"show_order"));
        assert!(names.contains(&"aggregate_order_amount"));
        assert!(names.contains(&"rank_order_amount"));
        assert!(names.contains(&"filter_customer_city"));
        assert!(a.example_count() > 30, "rich training set expected");
    }

    #[test]
    fn entities_from_data_values() {
        let (db, ctx) = setup();
        let a = bootstrap_from_ontology(&db, &ctx);
        let city = a
            .entities
            .iter()
            .find(|e| e.name == "customer_city")
            .unwrap();
        assert!(city.values.contains(&"Austin".to_string()));
        assert!(city.values.contains(&"Boston".to_string()));
    }

    #[test]
    fn examples_include_synonyms() {
        let (db, ctx) = setup();
        let a = bootstrap_from_ontology(&db, &ctx);
        let show = a
            .intents
            .iter()
            .find(|i| i.name == "show_customer")
            .unwrap();
        // "client" is a lexicon synonym of "customer".
        assert!(
            show.examples.iter().any(|e| e.contains("client")),
            "{:?}",
            show.examples
        );
    }

    #[test]
    fn classifier_learns_generated_intents() {
        let (db, ctx) = setup();
        let a = bootstrap_from_ontology(&db, &ctx);
        let clf = IntentClassifier::train(&a, 5);
        let (intent, conf) = clf.classify("how many customers are there");
        assert_eq!(intent, "count_customer");
        assert!(conf > 0.3);
        let (intent, _) = clf.classify("show all the clients");
        assert_eq!(intent, "show_customer");
        let (intent, _) = clf.classify("total amount");
        assert_eq!(intent, "aggregate_order_amount");
    }

    #[test]
    fn accuracy_metric() {
        let (db, ctx) = setup();
        let a = bootstrap_from_ontology(&db, &ctx);
        let clf = IntentClassifier::train(&a, 5);
        let pairs = vec![
            (
                "count the customers".to_string(),
                "count_customer".to_string(),
            ),
            (
                "list the customers".to_string(),
                "show_customer".to_string(),
            ),
        ];
        assert!(clf.accuracy(&pairs) > 0.49);
        assert_eq!(clf.accuracy(&[]), 0.0);
    }
}
