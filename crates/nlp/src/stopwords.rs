//! English stopword list tuned for database question answering.
//!
//! The list deliberately *excludes* words that carry query semantics in
//! NLIDB ("by", "than", "not", "between", "top") even though classic IR
//! stoplists contain them — pattern-based interpreters key off exactly
//! those words (SQAK-style "total … by …" templates).

/// Words filtered out before entity lookup.
static STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "at", "to", "for", "from", "with", "about", "as", "into",
    "is", "are", "was", "were", "be", "been", "being", "am", "do", "does", "did", "doing", "have",
    "has", "had", "having", "i", "me", "my", "we", "our", "you", "your", "he", "him", "his", "she",
    "her", "it", "its", "they", "them", "their", "this", "that", "these", "those", "there", "here",
    "what", "which", "who", "whom", "whose", "when", "where", "why", "how", "can", "could", "will",
    "would", "shall", "should", "may", "might", "must", "please", "show", "give", "get", "find",
    "list", "display", "tell", "want", "need", "like", "see", "let", "us", "all", "any", "some",
    "each", "every", "also", "so", "too", "very", "just", "only", "own", "same", "s", "t", "don",
    "now", "and", "or", "if", "then", "else", "out", "up", "down", "again", "further", "once",
    "many", "much",
];

/// Is `word` (already lowercased) a stopword?
///
/// ```
/// assert!(nlidb_nlp::is_stopword("the"));
/// assert!(!nlidb_nlp::is_stopword("revenue"));
/// assert!(!nlidb_nlp::is_stopword("by")); // query-bearing in NLIDB
/// ```
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.contains(&word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_bearing_words_kept() {
        for w in [
            "by", "than", "not", "between", "top", "total", "average", "most", "least",
        ] {
            assert!(!is_stopword(w), "{w} must be kept");
        }
    }

    #[test]
    fn classic_stopwords_removed() {
        for w in ["the", "of", "is", "show", "please", "a"] {
            assert!(is_stopword(w), "{w} must be removed");
        }
    }

    #[test]
    fn filtering_keeps_the_query_bearing_words() {
        let v: Vec<&str> = ["show", "me", "the", "revenue", "by", "region"]
            .into_iter()
            .filter(|w| !is_stopword(w))
            .collect();
        assert_eq!(v, vec!["revenue", "by", "region"]);
    }
}
