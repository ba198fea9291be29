#![warn(missing_docs)]

//! # nlidb-nlp — natural-language substrate
//!
//! Lightweight, dependency-free NLP building blocks used by every
//! interpreter family in the survey taxonomy:
//!
//! * [`token`] — span-preserving tokenizer,
//! * [`stem`] — Porter stemmer,
//! * [`pos`] — lexicon + suffix-rule part-of-speech tagger,
//! * [`mod@chunk`] — noun/verb-phrase chunker,
//! * [`parse`] — lightweight dependency-style parse (head attachment),
//! * [`similarity`] — string similarity measures (Levenshtein,
//!   Jaro-Winkler, n-gram Dice, token-set overlap),
//! * [`literal`] — number / date / comparison literal recognition,
//! * [`lexicon`] — synonym/hypernym lexicon with Wu-Palmer-style
//!   similarity, standing in for WordNet as used by NaLIR and the
//!   query-relaxation work of Lei et al.,
//! * [`hash`] — FNV-1a, the seedless hash behind feature buckets,
//!   digests and fingerprints across the workspace.
//!
//! Entity-based NLIDB systems (SODA, NaLIR, ATHENA) need token spans,
//! heads and attachments rather than a full statistical parser; this
//! crate provides exactly that interface contract so the interpreter
//! crates can be written against a stable, deterministic substrate.

pub mod chunk;
pub mod hash;
pub mod lexicon;
pub mod literal;
pub mod parse;
pub mod pos;
pub mod similarity;
pub mod stem;
pub mod stopwords;
pub mod token;

pub use chunk::{chunk, Chunk, ChunkKind};
pub use hash::{fnv1a, FNV1A_OFFSET};
pub use lexicon::{Lexicon, LexiconBuilder};
pub use literal::{parse_date, parse_number, ComparisonCue, DateValue};
pub use parse::{parse_dependencies, DepLabel, DepNode, DepTree};
pub use pos::{tag, PosTag, TaggedToken};
pub use similarity::{
    edit_similarity, jaro_winkler, levenshtein, mention_score, ngram_dice, token_set_ratio,
};
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use token::{tokenize, Span, Token, TokenKind};

/// End-to-end convenience: tokenize, tag, and chunk one utterance.
///
/// ```
/// let a = nlidb_nlp::analyze("show me the total revenue by region");
/// assert!(a.tokens.len() >= 6);
/// assert!(!a.chunks.is_empty());
/// ```
pub fn analyze(text: &str) -> Analysis {
    let tokens = tokenize(text);
    let tagged = tag(&tokens);
    let chunks = chunk(&tagged);
    let tree = parse_dependencies(&tagged);
    Analysis {
        tokens,
        tagged,
        chunks,
        tree,
    }
}

/// The result of [`analyze`]: all substrate views over one utterance.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Raw tokens with byte spans into the original text.
    pub tokens: Vec<Token>,
    /// Tokens with part-of-speech tags.
    pub tagged: Vec<TaggedToken>,
    /// Phrase chunks (noun phrases, verb phrases, …).
    pub chunks: Vec<Chunk>,
    /// Lightweight dependency tree.
    pub tree: DepTree,
}

impl Analysis {
    /// Content words (non-stopword word tokens), lowercased.
    pub fn content_words(&self) -> Vec<String> {
        self.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Word && !is_stopword(&t.norm))
            .map(|t| t.norm.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_produces_consistent_views() {
        let a = analyze("list customers in California with more than 5 orders");
        assert_eq!(a.tokens.len(), a.tagged.len());
        assert_eq!(a.tree.nodes.len(), a.tagged.len());
        let words = a.content_words();
        assert!(words.contains(&"customers".to_string()));
        assert!(words.contains(&"california".to_string()));
        assert!(!words.contains(&"in".to_string()));
    }

    #[test]
    fn analyze_empty_is_empty() {
        let a = analyze("");
        assert!(a.tokens.is_empty());
        assert!(a.chunks.is_empty());
    }
}
