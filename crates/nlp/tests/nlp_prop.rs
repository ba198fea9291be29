//! Property tests on the NLP substrate.

use proptest::prelude::*;

use nlidb_nlp::{jaro_winkler, ngram_dice, porter_stem, token_set_ratio, tokenize, TokenKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokenizer_spans_are_ordered_and_faithful(input in "[ -~]{0,60}") {
        let tokens = tokenize(&input);
        let mut last_end = 0;
        for t in &tokens {
            prop_assert!(t.span.start >= last_end, "overlapping spans");
            prop_assert!(t.span.end <= input.len());
            prop_assert_eq!(&input[t.span.start..t.span.end], t.text.as_str());
            last_end = t.span.end;
        }
    }

    #[test]
    fn tokenizer_deterministic(input in "[ -~]{0,60}") {
        prop_assert_eq!(tokenize(&input), tokenize(&input));
    }

    #[test]
    fn tokenizer_word_norms_lowercase(input in "[A-Za-z ]{0,40}") {
        for t in tokenize(&input) {
            if t.kind == TokenKind::Word {
                prop_assert_eq!(t.norm.clone(), t.norm.to_lowercase());
                prop_assert!(!t.norm.is_empty());
            }
        }
    }

    #[test]
    fn stem_never_longer_than_input_plus_one(word in "[a-z]{1,15}") {
        let stem = porter_stem(&word);
        prop_assert!(!stem.is_empty());
        prop_assert!(stem.len() <= word.len() + 1, "{word} → {stem}");
        prop_assert!(stem.bytes().all(|b| b.is_ascii_lowercase()));
    }

    #[test]
    fn similarities_in_unit_interval(a in "[a-z ]{0,12}", b in "[a-z ]{0,12}") {
        for s in [
            jaro_winkler(&a, &b),
            ngram_dice(&a, &b, 2),
            ngram_dice(&a, &b, 3),
            token_set_ratio(&a, &b),
        ] {
            prop_assert!((0.0..=1.0).contains(&s), "{a:?} vs {b:?}: {s}");
        }
    }

    #[test]
    fn jaro_winkler_identity(a in "[a-z]{1,12}") {
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaro_winkler_symmetric(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        // Jaro is symmetric; the Winkler prefix bonus uses the common
        // prefix, also symmetric.
        prop_assert!((jaro_winkler(&a, &b) - jaro_winkler(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn number_tokens_parse(n in -100000i64..100000) {
        let s = n.to_string();
        let tokens = tokenize(&s);
        // Leading '-' at utterance start attaches to the number.
        prop_assert_eq!(tokens.len(), 1, "{:?}", tokens);
        prop_assert_eq!(tokens[0].as_number(), Some(n as f64));
    }
}
