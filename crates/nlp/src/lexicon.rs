//! Synonym / hypernym lexicon — the WordNet stand-in.
//!
//! NaLIR maps parse-tree nodes to schema elements with a WordNet-based
//! similarity function; the query-relaxation work of Lei et al. bridges
//! colloquial user vocabulary and knowledge-base terms. This module
//! provides the same contract offline: synonym rings, a hypernym tree,
//! and a Wu-Palmer-style similarity over that tree, extensible per
//! domain at build time.

use std::collections::HashMap;

use crate::similarity::mention_score;
use crate::stem::porter_stem;

/// Builder for a [`Lexicon`].
#[derive(Debug, Default)]
pub struct LexiconBuilder {
    synonyms: Vec<Vec<String>>,
    hypernyms: Vec<(String, String)>,
}

impl LexiconBuilder {
    /// Start an empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a synonym ring; every member becomes interchangeable.
    pub fn synonyms<I, S>(mut self, ring: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.synonyms
            .push(ring.into_iter().map(|s| s.into().to_lowercase()).collect());
        self
    }

    /// Declare `child` IS-A `parent` in the hypernym tree.
    pub fn hypernym(mut self, child: &str, parent: &str) -> Self {
        self.hypernyms
            .push((child.to_lowercase(), parent.to_lowercase()));
        self
    }

    /// Finalize into an immutable [`Lexicon`].
    pub fn build(self) -> Lexicon {
        let mut ring_of: HashMap<String, usize> = HashMap::new();
        let mut rings: Vec<Vec<String>> = Vec::new();
        for ring in self.synonyms {
            // Merge rings sharing a member (synonymy is transitive here).
            let existing: Vec<usize> = ring
                .iter()
                .filter_map(|w| ring_of.get(w.as_str()).copied())
                .collect();
            let target = if let Some(&first) = existing.first() {
                first
            } else {
                rings.push(Vec::new());
                rings.len() - 1
            };
            for w in ring {
                let prev = ring_of.insert(w.clone(), target);
                if let Some(p) = prev {
                    if p != target {
                        // Move all members of ring p into target.
                        let moved = std::mem::take(&mut rings[p]);
                        for m in moved {
                            ring_of.insert(m.clone(), target);
                            rings[target].push(m);
                        }
                    }
                }
                if !rings[target].contains(&w) {
                    rings[target].push(w);
                }
            }
        }
        let parent: HashMap<String, String> = self.hypernyms.into_iter().collect();
        Lexicon {
            rings,
            ring_of,
            parent,
        }
    }
}

/// Immutable synonym/hypernym lexicon.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    rings: Vec<Vec<String>>,
    ring_of: HashMap<String, usize>,
    parent: HashMap<String, String>,
}

impl Lexicon {
    /// A lexicon pre-loaded with general business-intelligence
    /// vocabulary (the register the survey's BI use cases live in).
    pub fn business_default() -> Lexicon {
        LexiconBuilder::new()
            .synonyms(["revenue", "sales", "turnover", "income", "earnings"])
            .synonyms(["customer", "client", "buyer", "purchaser", "account"])
            .synonyms(["product", "item", "good", "merchandise", "sku"])
            .synonyms(["employee", "staff", "worker", "personnel"])
            .synonyms(["order", "purchase", "transaction"])
            .synonyms(["price", "cost", "amount", "value"])
            .synonyms(["region", "area", "territory", "zone"])
            .synonyms(["city", "town", "municipality"])
            .synonyms(["country", "nation"])
            .synonyms(["quantity", "count", "number", "volume"])
            .synonyms(["supplier", "vendor", "provider"])
            .synonyms(["profit", "margin", "gain"])
            .synonyms(["date", "day", "time"])
            .synonyms(["category", "type", "kind", "class", "segment"])
            .synonyms(["department", "division", "unit"])
            .synonyms(["salary", "wage", "pay", "compensation"])
            .synonyms(["year", "fiscal"])
            .synonyms(["name", "title", "label"])
            .synonyms(["big", "large", "huge"])
            .synonyms(["cheap", "inexpensive", "affordable"])
            .synonyms(["expensive", "costly", "pricey"])
            .hypernym("city", "location")
            .hypernym("region", "location")
            .hypernym("country", "location")
            .hypernym("state", "location")
            .hypernym("customer", "person")
            .hypernym("employee", "person")
            .hypernym("supplier", "organization")
            .hypernym("revenue", "measure")
            .hypernym("profit", "measure")
            .hypernym("price", "measure")
            .hypernym("quantity", "measure")
            .hypernym("salary", "measure")
            .build()
    }

    /// All synonyms of `word` (lowercased), excluding itself.
    /// Falls back to stem-equality if the exact word is unknown.
    pub fn synonyms_of(&self, word: &str) -> Vec<&str> {
        let w = word.to_lowercase();
        match self.ring_index(&w) {
            Some(i) => self.rings[i]
                .iter()
                .filter(|s| **s != w)
                .map(String::as_str)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Ring index for a word, falling back to stem equality with ring
    /// members so inflected forms ("clients") land in their ring.
    fn ring_index(&self, word: &str) -> Option<usize> {
        if let Some(&i) = self.ring_of.get(word) {
            return Some(i);
        }
        // The stem fallback can match several rings ("purchases" stems
        // like both "purchaser" and "purchase"); take the smallest
        // matching key so the winner never depends on `HashMap`
        // iteration order, which varies per process.
        let stem = porter_stem(word);
        self.ring_of
            .iter()
            .filter(|(k, _)| porter_stem(k) == stem)
            .min_by(|(a, _), (b, _)| a.cmp(b))
            .map(|(_, &v)| v)
    }

    /// Are the two words synonyms (or stem-equal)?
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        let (a, b) = (a.to_lowercase(), b.to_lowercase());
        if porter_stem(&a) == porter_stem(&b) {
            return true;
        }
        match (self.ring_index(&a), self.ring_index(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Chain of hypernym ancestors of `word`, nearest first.
    pub fn hypernym_chain(&self, word: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = word.to_lowercase();
        let mut guard = 0;
        while let Some(p) = self.parent.get(cur.as_str()) {
            out.push(p.as_str());
            cur = p.clone();
            guard += 1;
            if guard > 32 {
                break; // defensive: malformed cyclic input
            }
        }
        out
    }

    /// Wu-Palmer-style similarity in `[0, 1]` over the hypernym tree:
    /// `2*depth(lcs) / (depth(a) + depth(b))` where depth counts edges
    /// from a virtual root. Synonyms score 1. Unrelated words fall back
    /// to a scaled surface similarity.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        if self.are_synonyms(a, b) {
            return 1.0;
        }
        // Canonicalize both words to a ring representative so that
        // "client" inherits the taxonomy position of "customer".
        let canon = |w: &str| -> String {
            let lw = w.to_lowercase();
            match self.ring_of.get(lw.as_str()) {
                Some(&i) => self.rings[i]
                    .iter()
                    .find(|m| self.parent.contains_key(*m))
                    .cloned()
                    .unwrap_or(lw),
                None => lw,
            }
        };
        let (ca, cb) = (canon(a), canon(b));
        let mut chain_a = vec![ca.clone()];
        chain_a.extend(self.hypernym_chain(&ca).iter().map(|s| s.to_string()));
        let mut chain_b = vec![cb.clone()];
        chain_b.extend(self.hypernym_chain(&cb).iter().map(|s| s.to_string()));
        // Find lowest common subsumer.
        for (da, wa) in chain_a.iter().enumerate() {
            if let Some(db) = chain_b.iter().position(|wb| wb == wa) {
                let depth_a = chain_a.len() - da; // edges below+1 proxy
                let depth_b = chain_b.len() - db;
                let depth_lcs = chain_a.len() - da;
                let denom = (depth_a + (db + depth_b)) as f64;
                let score = 2.0 * depth_lcs as f64 / denom.max(1.0);
                return score.min(0.9); // related-but-not-synonym cap
            }
        }
        0.5 * mention_score(&a.to_lowercase(), &b.to_lowercase())
    }

    /// Expand a word into itself + synonyms + (optionally) hypernyms —
    /// the relaxation step of Lei et al.
    pub fn expand(&self, word: &str, include_hypernyms: bool) -> Vec<String> {
        let w = word.to_lowercase();
        let mut out = vec![w.clone()];
        out.extend(self.synonyms_of(&w).iter().map(|s| s.to_string()));
        if include_hypernyms {
            out.extend(self.hypernym_chain(&w).iter().map(|s| s.to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synonym_ring_membership() {
        let lex = Lexicon::business_default();
        let syns = lex.synonyms_of("revenue");
        assert!(syns.contains(&"sales"));
        assert!(syns.contains(&"turnover"));
        assert!(!syns.contains(&"revenue"));
    }

    #[test]
    fn synonyms_symmetric() {
        let lex = Lexicon::business_default();
        assert!(lex.are_synonyms("customer", "client"));
        assert!(lex.are_synonyms("client", "customer"));
        assert!(!lex.are_synonyms("customer", "product"));
    }

    #[test]
    fn stem_equality_is_synonymy() {
        let lex = Lexicon::business_default();
        assert!(lex.are_synonyms("customers", "customer"));
        assert!(lex.are_synonyms("orders", "ordering"));
    }

    #[test]
    fn plural_falls_into_ring() {
        let lex = Lexicon::business_default();
        let syns = lex.synonyms_of("clients");
        assert!(syns.contains(&"customer"), "got {syns:?}");
    }

    #[test]
    fn hypernym_chain_walks_up() {
        let lex = Lexicon::business_default();
        assert_eq!(lex.hypernym_chain("city"), vec!["location"]);
        assert!(lex.hypernym_chain("widget").is_empty());
    }

    #[test]
    fn similarity_orders_sensibly() {
        let lex = Lexicon::business_default();
        let syn = lex.similarity("revenue", "sales");
        let related = lex.similarity("city", "region"); // share "location"
        let unrelated = lex.similarity("city", "salary");
        assert_eq!(syn, 1.0);
        assert!(
            related > unrelated,
            "related {related} vs unrelated {unrelated}"
        );
        assert!((0.0..=1.0).contains(&related));
    }

    #[test]
    fn canonicalization_gives_ring_members_taxonomy() {
        let lex = Lexicon::business_default();
        // "client" is not directly in the hypernym map but "customer" is.
        let s = lex.similarity("client", "employee");
        assert!(s > 0.3, "client~employee share 'person': {s}");
    }

    #[test]
    fn expand_with_hypernyms() {
        let lex = Lexicon::business_default();
        let e = lex.expand("city", true);
        assert!(e.contains(&"city".to_string()));
        assert!(e.contains(&"town".to_string()));
        assert!(e.contains(&"location".to_string()));
        let e2 = lex.expand("city", false);
        assert!(!e2.contains(&"location".to_string()));
    }

    #[test]
    fn ring_merge_transitivity() {
        let lex = LexiconBuilder::new()
            .synonyms(["a", "b"])
            .synonyms(["b", "c"])
            .build();
        assert!(lex.are_synonyms("a", "c"));
        assert_eq!(lex.rings.iter().filter(|r| !r.is_empty()).count(), 1);
    }

    #[test]
    fn empty_lexicon_behaves() {
        let lex = LexiconBuilder::new().build();
        assert!(lex.synonyms_of("anything").is_empty());
        assert!(!lex.are_synonyms("alpha", "beta"));
        assert!(lex.rings.iter().all(|r| r.is_empty()));
    }
}
