#![warn(missing_docs)]

//! # nlidb-ontology — domain ontologies over relational schemas
//!
//! ATHENA interprets natural language against a *domain ontology*
//! rather than the raw schema, and the tooling framework of Jammi et
//! al. generates that ontology automatically from database metadata.
//! This crate reproduces both:
//!
//! * [`model`] — concepts, data properties (with semantic roles:
//!   identifier / descriptor / measure / temporal / categorical), and
//!   object properties (relationships),
//! * [`generate`] — automatic ontology construction from an
//!   [`nlidb_engine::Database`] catalog (tables → concepts, foreign
//!   keys → relationships, column types → property roles),
//! * [`graph`] — the join graph plus ATHENA-style join-path inference:
//!   BFS shortest paths for concept pairs and a Steiner-tree
//!   approximation when a query touches three or more concepts,
//! * [`relax`] — vocabulary matching of user terms against ontology
//!   labels through a synonym/hypernym lexicon (the query-relaxation
//!   technique of Lei et al.).

pub mod generate;
pub mod graph;
pub mod model;
pub mod relax;

pub use generate::generate_ontology;
pub use graph::{JoinEdge, JoinGraph, JoinPlan};
pub use model::{Concept, DataProperty, ObjectProperty, Ontology, PropertyRole};
pub use relax::{match_term, TermMatch, TermTarget};
