//! Metadata (schema/ontology vocabulary) index.

use nlidb_nlp::Lexicon;
use nlidb_ontology::{match_term, Ontology, TermMatch, TermTarget};

/// What kind of schema element a metadata hit refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaKind {
    /// A concept / table.
    Concept,
    /// A data property / column.
    Property,
}

/// One metadata hit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaHit {
    /// Hit kind.
    pub kind: MetaKind,
    /// Concept label (owning concept for properties).
    pub concept: String,
    /// Property label (empty for concept hits).
    pub property: String,
    /// Match confidence in `[0, 1]`.
    pub score: f64,
}

/// Vocabulary index over concept and property labels. Thin,
/// lexicon-expanded wrapper around [`nlidb_ontology::match_term`],
/// owning clones of the ontology vocabulary so lookups need no
/// ontology reference.
#[derive(Debug)]
pub struct MetadataIndex {
    ontology: Ontology,
    lexicon: Lexicon,
}

impl MetadataIndex {
    /// Build from an ontology and a lexicon.
    pub fn build(onto: &Ontology, lexicon: &Lexicon) -> MetadataIndex {
        MetadataIndex {
            ontology: onto.clone(),
            lexicon: lexicon.clone(),
        }
    }

    /// Look up a (possibly multi-word) term; hits sorted by score.
    pub fn lookup(&self, term: &str) -> Vec<MetaHit> {
        match_term(term, &self.ontology, &self.lexicon)
            .into_iter()
            .map(|m: TermMatch| match m.target {
                TermTarget::Concept { concept } => MetaHit {
                    kind: MetaKind::Concept,
                    concept,
                    property: String::new(),
                    score: m.score,
                },
                TermTarget::Property { concept, property } => MetaHit {
                    kind: MetaKind::Property,
                    concept,
                    property,
                    score: m.score,
                },
            })
            .collect()
    }

    /// The wrapped ontology (for interpreters needing structure).
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, Database, TableSchema};
    use nlidb_ontology::generate_ontology;

    fn index() -> MetadataIndex {
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
        let onto = generate_ontology(&db);
        MetadataIndex::build(&onto, &Lexicon::business_default())
    }

    /// `lookup`'s hits of one kind, best first.
    fn hits(idx: &MetadataIndex, term: &str, kind: MetaKind) -> Vec<MetaHit> {
        idx.lookup(term)
            .into_iter()
            .filter(|h| h.kind == kind)
            .collect()
    }

    #[test]
    fn concept_lookup() {
        let idx = index();
        let hit = &hits(&idx, "customers", MetaKind::Concept)[0];
        assert_eq!(hit.concept, "customer");
        assert!(hit.score > 0.9);
    }

    #[test]
    fn synonym_concept_lookup() {
        let idx = index();
        let hit = &hits(&idx, "clients", MetaKind::Concept)[0];
        assert_eq!(hit.concept, "customer");
    }

    #[test]
    fn property_lookup_scoped() {
        let idx = index();
        let props = hits(&idx, "amount", MetaKind::Property);
        let hit = props.iter().find(|h| h.concept == "order").unwrap();
        assert_eq!(hit.property, "amount");
        assert!(!props.iter().any(|h| h.concept == "customer"));
    }

    #[test]
    fn property_synonym() {
        let idx = index();
        // "price" ~ "amount" via the price/cost/amount/value ring.
        let hit = &hits(&idx, "price", MetaKind::Property)[0];
        assert_eq!(hit.property, "amount");
    }

    #[test]
    fn no_hit_for_unknown() {
        let idx = index();
        assert!(idx.lookup("zeppelin").is_empty());
    }

    #[test]
    fn ontology_accessible() {
        let idx = index();
        assert_eq!(idx.ontology().concepts.len(), 2);
    }
}
