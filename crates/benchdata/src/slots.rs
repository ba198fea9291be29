//! Template slots derived automatically from a domain's ontology.
//!
//! The template engine never hard-codes a schema: it asks the derived
//! ontology for dimension/fact concepts, their descriptors, measures,
//! categoricals, temporals, and live data values — so any database
//! that the ontology generator understands can feed the benchmark.

use nlidb_engine::{Database, Value};
use nlidb_ontology::{generate_ontology, JoinGraph, Ontology, PropertyRole};

/// One concept's template-relevant handles.
#[derive(Debug, Clone)]
pub struct ConceptSlots {
    /// Concept label (singular).
    pub concept: String,
    /// Backing table.
    pub table: String,
    /// Plural surface form used in questions.
    pub plural: String,
    /// Descriptor property (label, column), if any.
    pub descriptor: Option<(String, String)>,
    /// Categorical properties (label, column, sample values).
    pub categoricals: Vec<(String, String, Vec<String>)>,
    /// Measure properties (label, column, sorted sample values).
    pub measures: Vec<(String, String, Vec<f64>)>,
    /// Temporal property (label, column, distinct years in the data),
    /// if any.
    pub temporal: Option<(String, String, Vec<i32>)>,
    /// Primary-key column, if any.
    pub primary_key: Option<String>,
}

/// A related pair: `fact` carries a foreign key to `dim`.
#[derive(Debug, Clone)]
pub struct RelatedPair {
    /// Index into [`SlotSet::concepts`] of the dimension side.
    pub dim: usize,
    /// Index into [`SlotSet::concepts`] of the fact side.
    pub fact: usize,
    /// FK column on the fact table.
    pub fk_column: String,
    /// Referenced column on the dimension table.
    pub pk_column: String,
}

/// All slots derived for one domain.
#[derive(Debug, Clone)]
pub struct SlotSet {
    /// Domain (database) name.
    pub domain: String,
    /// Per-concept handles.
    pub concepts: Vec<ConceptSlots>,
    /// Direct FK pairs.
    pub pairs: Vec<RelatedPair>,
    /// The derived ontology (templates occasionally need roles).
    pub ontology: Ontology,
    /// Join graph over the ontology.
    pub graph: JoinGraph,
}

impl SlotSet {
    /// Concepts that have at least one categorical with values.
    pub fn with_categorical(&self) -> Vec<usize> {
        (0..self.concepts.len())
            .filter(|&i| {
                self.concepts[i]
                    .categoricals
                    .iter()
                    .any(|(_, _, v)| !v.is_empty())
            })
            .collect()
    }

    /// Concepts that have at least one measure.
    pub fn with_measure(&self) -> Vec<usize> {
        (0..self.concepts.len())
            .filter(|&i| !self.concepts[i].measures.is_empty())
            .collect()
    }

    /// Concepts with both a categorical and a measure (single-table
    /// aggregation templates).
    pub fn with_both(&self) -> Vec<usize> {
        self.with_measure()
            .into_iter()
            .filter(|i| self.with_categorical().contains(i))
            .collect()
    }
}

/// Derive the slot set for a database.
pub fn derive_slots(db: &Database) -> SlotSet {
    let ontology = generate_ontology(db);
    let graph = JoinGraph::from_ontology(&ontology);
    let mut concepts = Vec::new();
    for c in &ontology.concepts {
        let table = db.table(&c.table).expect("ontology table exists");
        let mut slots = ConceptSlots {
            concept: c.label.clone(),
            table: c.table.clone(),
            plural: c.table.clone(), // table names are already plural
            descriptor: None,
            categoricals: Vec::new(),
            measures: Vec::new(),
            temporal: None,
            primary_key: c.primary_key.clone(),
        };
        for p in ontology.properties_of(&c.label) {
            match p.role {
                PropertyRole::Descriptor => {
                    slots.descriptor = Some((p.label.clone(), p.column.clone()));
                }
                PropertyRole::Categorical => {
                    let values: Vec<String> = table
                        .distinct_values(&p.column)
                        .into_iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => Some(s),
                            _ => None,
                        })
                        .collect();
                    slots
                        .categoricals
                        .push((p.label.clone(), p.column.clone(), values));
                }
                PropertyRole::Measure => {
                    let mut values: Vec<f64> = table
                        .distinct_values(&p.column)
                        .into_iter()
                        .filter_map(|v| v.as_f64())
                        .collect();
                    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    slots
                        .measures
                        .push((p.label.clone(), p.column.clone(), values));
                }
                PropertyRole::Temporal => {
                    let mut years: Vec<i32> = table
                        .distinct_values(&p.column)
                        .into_iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => s.get(0..4).and_then(|y| y.parse().ok()),
                            _ => None,
                        })
                        .collect();
                    years.sort_unstable();
                    years.dedup();
                    slots.temporal = Some((p.label.clone(), p.column.clone(), years));
                }
                PropertyRole::Identifier => {}
            }
        }
        concepts.push(slots);
    }
    let position_of = |label: &str| concepts.iter().position(|c| c.concept == label);
    let mut pairs = Vec::new();
    for r in &ontology.object_properties {
        if let (Some(fact), Some(dim)) = (position_of(&r.from), position_of(&r.to)) {
            pairs.push(RelatedPair {
                dim,
                fact,
                fk_column: r.from_column.clone(),
                pk_column: r.to_column.clone(),
            });
        }
    }
    SlotSet {
        domain: db.name.clone(),
        concepts,
        pairs,
        ontology,
        graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemas::retail_database;

    #[test]
    fn retail_slots_are_complete() {
        let s = derive_slots(&retail_database(5));
        assert_eq!(s.domain, "retail");
        assert_eq!(s.concepts.len(), 3);
        let customer = s.concepts.iter().find(|c| c.concept == "customer").unwrap();
        assert_eq!(customer.descriptor.as_ref().unwrap().1, "name");
        assert!(customer
            .categoricals
            .iter()
            .any(|(l, _, v)| l == "city" && !v.is_empty()));
        assert!(customer.temporal.is_some());
        let order = s.concepts.iter().find(|c| c.concept == "order").unwrap();
        assert_eq!(order.measures.len(), 1);
        assert!(
            order.measures[0].2.windows(2).all(|w| w[0] <= w[1]),
            "sorted"
        );
    }

    #[test]
    fn pairs_cover_both_fks() {
        let s = derive_slots(&retail_database(5));
        assert_eq!(s.pairs.len(), 2);
        let facts: Vec<&str> = s
            .pairs
            .iter()
            .map(|p| s.concepts[p.fact].concept.as_str())
            .collect();
        assert_eq!(facts, vec!["order", "order"]);
    }

    #[test]
    fn helper_filters() {
        let s = derive_slots(&retail_database(5));
        assert!(!s.with_categorical().is_empty());
        assert!(!s.with_measure().is_empty());
        // products have both a categorical (category) and measure (price)
        let product_idx = s
            .concepts
            .iter()
            .position(|c| c.concept == "product")
            .unwrap();
        assert!(s.with_both().contains(&product_idx));
    }

    #[test]
    fn all_domains_derive() {
        for db in crate::schemas::all_domains(9) {
            let s = derive_slots(&db);
            assert!(!s.concepts.is_empty(), "{}", db.name);
            assert!(!s.pairs.is_empty(), "{}", db.name);
        }
    }
}
