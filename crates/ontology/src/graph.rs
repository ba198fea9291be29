//! The join graph and ATHENA-style join-path inference.
//!
//! Entity-based systems must connect the concepts a question mentions:
//! "customers in California with more than 5 orders" touches
//! `customer` and `order`, so the generated SQL needs the FK path
//! between them. For two concepts a BFS shortest path suffices; for
//! three or more, ATHENA computes a minimal connecting tree — we use
//! the classic 2-approximation: grow the tree by repeatedly attaching
//! the nearest unconnected terminal by its shortest path.

use std::collections::{HashMap, VecDeque};

use crate::model::Ontology;

/// One traversable FK edge (stored in both directions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Source concept.
    pub from: String,
    /// Target concept.
    pub to: String,
    /// Join column on the source concept's table.
    pub from_column: String,
    /// Join column on the target concept's table.
    pub to_column: String,
}

/// A join plan: the concepts to include and the edges connecting them,
/// in an order where each edge attaches one new concept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinPlan {
    /// Concepts in attach order; the first is the plan root.
    pub concepts: Vec<String>,
    /// Edges in attach order (`edges.len() == concepts.len() - 1`).
    pub edges: Vec<JoinEdge>,
}

/// Undirected join graph over ontology concepts.
#[derive(Debug, Clone, Default)]
pub struct JoinGraph {
    adjacency: HashMap<String, Vec<JoinEdge>>,
}

impl JoinGraph {
    /// Build from an ontology's object properties.
    pub fn from_ontology(onto: &Ontology) -> Self {
        let mut g = JoinGraph::default();
        for r in &onto.object_properties {
            g.adjacency
                .entry(r.from.clone())
                .or_default()
                .push(JoinEdge {
                    from: r.from.clone(),
                    to: r.to.clone(),
                    from_column: r.from_column.clone(),
                    to_column: r.to_column.clone(),
                });
            g.adjacency.entry(r.to.clone()).or_default().push(JoinEdge {
                from: r.to.clone(),
                to: r.from.clone(),
                from_column: r.to_column.clone(),
                to_column: r.from_column.clone(),
            });
        }
        for c in &onto.concepts {
            g.adjacency.entry(c.label.clone()).or_default();
        }
        g
    }

    /// Neighbors of a concept.
    pub fn neighbors(&self, concept: &str) -> &[JoinEdge] {
        self.adjacency
            .get(concept)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// BFS shortest edge path between two concepts (deterministic:
    /// neighbor order follows ontology declaration order).
    pub fn shortest_path(&self, from: &str, to: &str) -> Option<Vec<JoinEdge>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<String, JoinEdge> = HashMap::new();
        let mut queue = VecDeque::from([from.to_string()]);
        let mut visited = std::collections::HashSet::from([from.to_string()]);
        while let Some(cur) = queue.pop_front() {
            for edge in self.neighbors(&cur) {
                if visited.insert(edge.to.clone()) {
                    prev.insert(edge.to.clone(), edge.clone());
                    if edge.to == to {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut node = to.to_string();
                        while node != from {
                            let e = prev[&node].clone();
                            node = e.from.clone();
                            path.push(e);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(edge.to.clone());
                }
            }
        }
        None
    }

    /// Steiner-tree approximation connecting all `terminals`.
    ///
    /// Grows from the first terminal; at each step attaches the
    /// unconnected terminal with the shortest path to any connected
    /// concept. Returns `None` if the terminals are not all connected
    /// in the graph.
    pub fn steiner_plan(&self, terminals: &[&str]) -> Option<JoinPlan> {
        let mut terminals: Vec<&str> = {
            let mut seen = std::collections::HashSet::new();
            terminals
                .iter()
                .copied()
                .filter(|t| seen.insert(*t))
                .collect()
        };
        let Some(first) = terminals.first().copied() else {
            return Some(JoinPlan::default());
        };
        if !self.adjacency.contains_key(first) {
            return None;
        }
        let mut plan = JoinPlan {
            concepts: vec![first.to_string()],
            edges: Vec::new(),
        };
        terminals.remove(0);

        while !terminals.is_empty() {
            // Find (terminal, path) with minimal path length to the tree.
            let mut best: Option<(usize, usize, Vec<JoinEdge>)> = None;
            for (ti, t) in terminals.iter().enumerate() {
                for anchor in &plan.concepts {
                    if let Some(path) = self.shortest_path(anchor, t) {
                        let better = match &best {
                            None => true,
                            Some((_, len, _)) => path.len() < *len,
                        };
                        if better {
                            best = Some((ti, path.len(), path));
                        }
                    }
                }
            }
            let (ti, _, path) = best?;
            terminals.remove(ti);
            for edge in path {
                if !plan.concepts.contains(&edge.to) {
                    plan.concepts.push(edge.to.clone());
                    plan.edges.push(edge);
                }
            }
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Concept, ObjectProperty, Ontology};

    /// Star schema: orders → customers, orders → products,
    /// orders → stores; stores → regions.
    fn star() -> Ontology {
        let concept = |l: &str, t: &str| Concept {
            label: l.into(),
            table: t.into(),
            primary_key: Some("id".into()),
        };
        let rel = |from: &str, to: &str, col: &str| ObjectProperty {
            from: from.into(),
            to: to.into(),
            from_column: col.into(),
            to_column: "id".into(),
            label: to.into(),
        };
        Ontology {
            concepts: vec![
                concept("order", "orders"),
                concept("customer", "customers"),
                concept("product", "products"),
                concept("store", "stores"),
                concept("region", "regions"),
                concept("island", "islands"),
            ],
            data_properties: vec![],
            object_properties: vec![
                rel("order", "customer", "customer_id"),
                rel("order", "product", "product_id"),
                rel("order", "store", "store_id"),
                rel("store", "region", "region_id"),
            ],
        }
    }

    #[test]
    fn shortest_path_direct() {
        let g = JoinGraph::from_ontology(&star());
        let p = g.shortest_path("order", "customer").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].from_column, "customer_id");
    }

    #[test]
    fn shortest_path_two_hops() {
        let g = JoinGraph::from_ontology(&star());
        let p = g.shortest_path("customer", "product").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].to, "order");
        assert_eq!(p[1].to, "product");
    }

    #[test]
    fn reverse_edges_have_swapped_columns() {
        let g = JoinGraph::from_ontology(&star());
        let p = g.shortest_path("customer", "order").unwrap();
        assert_eq!(p[0].from_column, "id");
        assert_eq!(p[0].to_column, "customer_id");
    }

    #[test]
    fn disconnected_returns_none() {
        let g = JoinGraph::from_ontology(&star());
        assert!(g.shortest_path("order", "island").is_none());
        assert!(g.steiner_plan(&["order", "island"]).is_none());
    }

    #[test]
    fn same_node_is_empty_path() {
        let g = JoinGraph::from_ontology(&star());
        assert_eq!(g.shortest_path("order", "order").unwrap().len(), 0);
    }

    #[test]
    fn steiner_three_terminals() {
        let g = JoinGraph::from_ontology(&star());
        let plan = g.steiner_plan(&["customer", "product", "region"]).unwrap();
        // Tree must contain all terminals plus the connectors order+store.
        for t in ["customer", "product", "region", "order", "store"] {
            assert!(plan.concepts.contains(&t.to_string()), "missing {t}");
        }
        assert_eq!(plan.edges.len(), plan.concepts.len() - 1);
    }

    #[test]
    fn steiner_dedups_terminals() {
        let g = JoinGraph::from_ontology(&star());
        let plan = g.steiner_plan(&["order", "order", "customer"]).unwrap();
        assert_eq!(plan.concepts.len(), 2);
        assert_eq!(plan.edges.len(), 1);
    }

    #[test]
    fn steiner_single_terminal() {
        let g = JoinGraph::from_ontology(&star());
        let plan = g.steiner_plan(&["customer"]).unwrap();
        assert_eq!(plan.concepts, vec!["customer".to_string()]);
        assert!(plan.edges.is_empty());
    }

    #[test]
    fn steiner_empty() {
        let g = JoinGraph::from_ontology(&star());
        assert_eq!(g.steiner_plan(&[]).unwrap(), JoinPlan::default());
    }

    #[test]
    fn parallel_fact_edges_to_two_dims() {
        // Clinic shape: visits → patients, visits → doctors.
        let concept = |l: &str, t: &str| Concept {
            label: l.into(),
            table: t.into(),
            primary_key: Some("id".into()),
        };
        let onto = Ontology {
            concepts: vec![
                concept("visit", "visits"),
                concept("patient", "patients"),
                concept("doctor", "doctors"),
            ],
            data_properties: vec![],
            object_properties: vec![
                ObjectProperty {
                    from: "visit".into(),
                    to: "patient".into(),
                    from_column: "patient_id".into(),
                    to_column: "id".into(),
                    label: "patient".into(),
                },
                ObjectProperty {
                    from: "visit".into(),
                    to: "doctor".into(),
                    from_column: "doctor_id".into(),
                    to_column: "id".into(),
                    label: "doctor".into(),
                },
            ],
        };
        let g = JoinGraph::from_ontology(&onto);
        // Patient ↔ doctor connect through the fact table.
        let p = g.shortest_path("patient", "doctor").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].to, "visit");
        let plan = g.steiner_plan(&["patient", "doctor", "visit"]).unwrap();
        assert_eq!(plan.concepts.len(), 3);
        assert_eq!(plan.edges.len(), 2);
    }

    #[test]
    fn each_edge_attaches_new_concept() {
        let g = JoinGraph::from_ontology(&star());
        let plan = g.steiner_plan(&["region", "customer"]).unwrap();
        let mut present = std::collections::HashSet::new();
        present.insert(plan.concepts[0].clone());
        for e in &plan.edges {
            assert!(
                present.contains(&e.from),
                "edge source must already be attached"
            );
            assert!(present.insert(e.to.clone()), "edge target must be new");
        }
    }
}
