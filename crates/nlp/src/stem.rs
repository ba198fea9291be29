//! Porter stemming algorithm (M.F. Porter, 1980), implemented in full.
//!
//! Entity-based interpreters match user words against schema and data
//! vocabulary after stemming, so "customers" finds the `customer`
//! table and "shipped" matches a `ship_date` column token.

/// Returns `true` if byte `i` of `w` is a consonant under Porter's
/// definition (y is a consonant when preceded by a vowel-position).
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                !is_consonant(w, i - 1)
            }
        }
        _ => true,
    }
}

/// Porter's measure m of the prefix `w[..=j]`: the number of VC
/// sequences in its C?(VC)^m V? decomposition.
fn measure(w: &[u8], j: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i <= j {
        if !is_consonant(w, i) {
            break;
        }
        i += 1;
    }
    loop {
        // Skip vowels.
        while i <= j {
            if is_consonant(w, i) {
                break;
            }
            i += 1;
        }
        if i > j {
            return m;
        }
        // Skip consonants.
        while i <= j {
            if !is_consonant(w, i) {
                break;
            }
            i += 1;
        }
        m += 1;
        if i > j {
            return m;
        }
    }
}

/// True if `w[..=j]` contains a vowel.
fn has_vowel(w: &[u8], j: usize) -> bool {
    (0..=j).any(|i| !is_consonant(w, i))
}

/// True if `w[..=j]` ends with a double consonant.
fn ends_double_consonant(w: &[u8], j: usize) -> bool {
    j >= 1 && w[j] == w[j - 1] && is_consonant(w, j)
}

/// True if `w[..=j]` ends consonant-vowel-consonant where the final
/// consonant is not w, x, or y ("cvc" condition enabling e-restoration).
fn ends_cvc(w: &[u8], j: usize) -> bool {
    if j < 2 || !is_consonant(w, j) || is_consonant(w, j - 1) || !is_consonant(w, j - 2) {
        return false;
    }
    !matches!(w[j], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], j: usize, suffix: &str) -> bool {
    let s = suffix.as_bytes();
    if s.len() > j + 1 {
        return false;
    }
    &w[j + 1 - s.len()..=j] == s
}

/// Stem a single lowercase word with the Porter algorithm.
///
/// Words of length ≤ 2 are returned unchanged, as in the original
/// paper. Input is expected to be lowercase ASCII letters; other
/// content is returned unchanged.
///
/// ```
/// use nlidb_nlp::stem::porter_stem;
/// assert_eq!(porter_stem("caresses"), "caress");
/// assert_eq!(porter_stem("relational"), "relat");
/// assert_eq!(porter_stem("customers"), "custom");
/// ```
pub fn porter_stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_string();
    }
    let mut w = word.as_bytes().to_vec();
    let mut j = w.len() - 1; // index of last char of current stem

    // ---- Step 1a ----
    if ends_with(&w, j, "sses") || ends_with(&w, j, "ies") {
        j -= 2;
    } else if w[j] == b's' && j >= 1 && w[j - 1] != b's' {
        j -= 1;
    }

    // ---- Step 1b ----
    let mut extra_e = false;
    if ends_with(&w, j, "eed") {
        if measure(&w, j - 3) > 0 {
            j -= 1;
        }
    } else if (ends_with(&w, j, "ed") && has_vowel(&w, j - 2))
        || (ends_with(&w, j, "ing") && j >= 3 && has_vowel(&w, j - 3))
    {
        j -= if ends_with(&w, j, "ed") { 2 } else { 3 };
        if ends_with(&w, j, "at") || ends_with(&w, j, "bl") || ends_with(&w, j, "iz") {
            extra_e = true;
        } else if ends_double_consonant(&w, j) && !matches!(w[j], b'l' | b's' | b'z') {
            j -= 1;
        } else if measure(&w, j) == 1 && ends_cvc(&w, j) {
            extra_e = true;
        }
    }
    if extra_e {
        w.truncate(j + 1);
        w.push(b'e');
        j = w.len() - 1;
    }

    // ---- Step 1c ----
    if w[j] == b'y' && j >= 1 && has_vowel(&w, j - 1) {
        w[j] = b'i';
    }

    // ---- Step 2 ----
    let step2: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    j = apply_rules(&mut w, j, step2);

    // ---- Step 3 ----
    let step3: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    j = apply_rules(&mut w, j, step3);

    // ---- Step 4 ----
    let step4: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
        "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    for suf in step4 {
        if ends_with(&w, j, suf) {
            let stem_end = j - suf.len();
            // Special case: -ion only removable after s or t.
            if measure(&w, stem_end) > 1 {
                j = stem_end;
            }
            break;
        }
    }
    if ends_with(&w, j, "ion") && j >= 3 && matches!(w[j - 3], b's' | b't') {
        let stem_end = j - 3;
        if measure(&w, stem_end) > 1 {
            j = stem_end;
        }
    }

    // ---- Step 5a ----
    if w[j] == b'e' && j >= 1 {
        let m = measure(&w, j - 1);
        if m > 1 || (m == 1 && !ends_cvc(&w, j - 1)) {
            j -= 1;
        }
    }
    // ---- Step 5b ----
    if j >= 1 && w[j] == b'l' && ends_double_consonant(&w, j) && measure(&w, j) > 1 {
        j -= 1;
    }

    w.truncate(j + 1);
    String::from_utf8(w).expect("ascii input stays ascii")
}

/// Apply the first matching (suffix → replacement) rule whose stem has
/// measure > 0; returns the new last index.
fn apply_rules(w: &mut Vec<u8>, j: usize, rules: &[(&str, &str)]) -> usize {
    for (suf, rep) in rules {
        if ends_with(w, j, suf) {
            let stem_end = j - suf.len();
            if measure(w, stem_end) > 0 {
                w.truncate(stem_end + 1);
                w.extend_from_slice(rep.as_bytes());
                return w.len() - 1;
            }
            return j;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference pairs from Porter's published examples.
    #[test]
    fn porter_reference_vectors() {
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, want) in cases {
            assert_eq!(porter_stem(input), want, "stem({input})");
        }
    }

    #[test]
    fn short_words_unchanged() {
        assert_eq!(porter_stem("go"), "go");
        assert_eq!(porter_stem("a"), "a");
    }

    #[test]
    fn non_ascii_passthrough() {
        assert_eq!(porter_stem("café"), "café");
        assert_eq!(porter_stem("Sales"), "Sales"); // not lowercase → unchanged
    }

    #[test]
    fn database_vocabulary() {
        assert_eq!(porter_stem("customers"), "custom");
        assert_eq!(porter_stem("customer"), "custom");
        assert_eq!(porter_stem("orders"), porter_stem("order"));
        assert_eq!(porter_stem("shipped"), porter_stem("shipping"));
    }

    #[test]
    fn schema_plurals_stem_to_singular() {
        for (word, stem) in [("total", "total"), ("sales", "sale"), ("orders", "order")] {
            assert_eq!(porter_stem(word), stem);
        }
    }

    #[test]
    fn idempotent_on_common_words() {
        for w in ["customer", "region", "revenue", "product", "order"] {
            let once = porter_stem(w);
            assert_eq!(porter_stem(&once), once, "idempotency for {w}");
        }
    }
}
