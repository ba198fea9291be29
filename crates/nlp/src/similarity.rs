//! String similarity measures used for fuzzy entity matching.
//!
//! The index crate ranks candidate matches between user mentions and
//! schema/data vocabulary with a blend of these measures (SODA uses
//! exact+fuzzy lookups; NaLIR uses WordNet similarity, approximated in
//! [`crate::lexicon`]).

/// Jaro similarity in `[0, 1]`.
fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched = vec![false; a.len()];
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                a_matched[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions among matched characters.
    let a_seq: Vec<char> = a
        .iter()
        .zip(&a_matched)
        .filter(|(_, m)| **m)
        .map(|(c, _)| *c)
        .collect();
    let b_seq: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter(|(_, m)| **m)
        .map(|(c, _)| *c)
        .collect();
    let transpositions = a_seq.iter().zip(&b_seq).filter(|(x, y)| x != y).count() as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
}

/// Jaro-Winkler similarity in `[0, 1]` with the standard prefix scale
/// of 0.1 over at most 4 common leading characters.
///
/// ```
/// let s = nlidb_nlp::jaro_winkler("customer", "customers");
/// assert!(s > 0.95);
/// ```
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Character n-gram Dice coefficient in `[0, 1]`.
///
/// Strings shorter than `n` compare by equality. Uses sorted gram
/// vectors with two-pointer intersection (no hashing needed).
pub fn ngram_dice(a: &str, b: &str, n: usize) -> f64 {
    let grams = |s: &str| -> Vec<String> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() < n {
            return vec![s.to_string()];
        }
        let mut v: Vec<String> = chars.windows(n).map(|w| w.iter().collect()).collect();
        v.sort_unstable();
        v
    };
    let ga = grams(a);
    let gb = grams(b);
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

/// Token-set overlap ratio in `[0, 1]`: `|A ∩ B| / max(|A|, |B|)` over
/// whitespace-split, lowercased tokens. Good for multi-word mentions
/// where order differs ("sales total" vs "total sales").
pub fn token_set_ratio(a: &str, b: &str) -> f64 {
    let set = |s: &str| -> Vec<String> {
        let mut v: Vec<String> = s.split_whitespace().map(|w| w.to_lowercase()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let sa = set(a);
    let sb = set(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.iter().filter(|w| sb.binary_search(w).is_ok()).count();
    inter as f64 / sa.len().max(sb.len()) as f64
}

/// Blended mention-vs-vocabulary score used by the index: the maximum
/// of Jaro-Winkler, trigram Dice, and token-set ratio, so both
/// character-level typos and word-order variation are tolerated.
pub fn mention_score(mention: &str, candidate: &str) -> f64 {
    jaro_winkler(mention, candidate)
        .max(ngram_dice(mention, candidate, 3))
        .max(token_set_ratio(mention, candidate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaro_winkler_reference() {
        // Classic reference pair: MARTHA/MARHTA ≈ 0.9611.
        let s = jaro_winkler("martha", "marhta");
        assert!((s - 0.9611).abs() < 0.001, "got {s}");
        // DIXON/DICKSONX ≈ 0.8133 (jw).
        let s = jaro_winkler("dixon", "dicksonx");
        assert!((s - 0.8133).abs() < 0.001, "got {s}");
    }

    #[test]
    fn jaro_winkler_identity_and_disjoint() {
        assert_eq!(jaro_winkler("same", "same"), 1.0);
        assert_eq!(jaro_winkler("abc", "xyz"), 0.0);
    }

    #[test]
    fn ngram_dice_behaviour() {
        assert_eq!(ngram_dice("night", "night", 2), 1.0);
        let s = ngram_dice("night", "nacht", 2);
        assert!(s > 0.0 && s < 1.0);
        // Short strings fall back to equality.
        assert_eq!(ngram_dice("a", "a", 3), 1.0);
        assert_eq!(ngram_dice("a", "b", 3), 0.0);
    }

    #[test]
    fn token_set_handles_reorder() {
        assert_eq!(token_set_ratio("total sales", "sales total"), 1.0);
        assert!(token_set_ratio("total sales", "total revenue") > 0.0);
        assert_eq!(token_set_ratio("", ""), 1.0);
    }

    #[test]
    fn mention_score_tolerates_typos_and_plural() {
        assert!(mention_score("custmer", "customer") > 0.85);
        assert!(mention_score("customers", "customer") > 0.9);
        assert!(mention_score("region sales", "sales region") > 0.99);
        assert!(mention_score("zebra", "customer") < 0.5);
    }

    #[test]
    fn similarity_in_unit_interval() {
        let pairs = [
            ("a", "b"),
            ("abc", "abcd"),
            ("hello world", "world hello"),
            ("", "x"),
        ];
        for (a, b) in pairs {
            for s in [
                jaro_winkler(a, b),
                ngram_dice(a, b, 3),
                token_set_ratio(a, b),
            ] {
                assert!((0.0..=1.0).contains(&s), "{a} vs {b} gave {s}");
            }
        }
    }
}
