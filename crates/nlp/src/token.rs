//! Span-preserving tokenizer.
//!
//! The tokenizer is the first stage of every interpreter pipeline. It
//! keeps byte spans into the original utterance so downstream stages
//! (entity linking, clarification dialogs) can point back at exactly
//! what the user typed.

/// Byte range `[start, end)` into the original input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Span {
    /// Construct a span; `start <= end` is the caller's contract.
    pub fn new(start: usize, end: usize) -> Self {
        debug_assert!(start <= end);
        Span { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (possibly with internal apostrophe: `don't`).
    Word,
    /// Numeric literal, including decimals and thousands separators.
    Number,
    /// Single- or double-quoted string; `norm` holds the unquoted body.
    Quoted,
    /// Punctuation or symbol character(s).
    Punct,
}

/// One token of the input utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Original surface text.
    pub text: String,
    /// Lowercased (and for `Quoted`, unquoted) form used for matching.
    pub norm: String,
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte span in the original input.
    pub span: Span,
}

impl Token {
    /// Whether this token is the given word, case-insensitively.
    pub fn is_word(&self, w: &str) -> bool {
        self.kind == TokenKind::Word && self.norm == w
    }

    /// Parse the token as `f64` if it is a number.
    pub fn as_number(&self) -> Option<f64> {
        if self.kind == TokenKind::Number {
            self.norm.replace(',', "").parse().ok()
        } else {
            None
        }
    }
}

/// Tokenize an utterance into words, numbers, quoted strings and
/// punctuation, preserving byte spans.
///
/// Rules:
/// * letters (plus internal apostrophes and hyphens) form `Word`s;
/// * digits with optional decimal point and `,` separators form
///   `Number`s (`1,234.5`), including a leading sign when attached;
/// * `'…'` and `"…"` form `Quoted` tokens whose `norm` is the body;
/// * everything else that is not whitespace becomes `Punct`.
///
/// ```
/// use nlidb_nlp::token::{tokenize, TokenKind};
/// let t = tokenize("revenue > 1,500.25 in \"New York\"");
/// assert_eq!(t[2].kind, TokenKind::Number);
/// assert_eq!(t[2].as_number(), Some(1500.25));
/// assert_eq!(t[4].kind, TokenKind::Quoted);
/// assert_eq!(t[4].norm, "new york");
/// ```
pub fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Decode the real char: punning the lead byte (`bytes[i] as
        // char`) misreads multi-byte sequences and desyncs `i` from
        // char boundaries.
        let c = input[i..].chars().next().expect("i is a char boundary");
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == '"' || c == '\'' {
            // A quote only opens a quoted literal if a matching close
            // quote exists; otherwise (e.g. apostrophe) treat as punct.
            if let Some(rel) = input[i + 1..].find(c) {
                let end = i + 1 + rel;
                let body = &input[i + 1..end];
                tokens.push(Token {
                    text: input[i..=end].to_string(),
                    norm: body.to_lowercase(),
                    kind: TokenKind::Quoted,
                    span: Span::new(i, end + 1),
                });
                i = end + 1;
                continue;
            }
        }
        if c.is_ascii_digit()
            || ((c == '-' || c == '+')
                && i + 1 < bytes.len()
                && (bytes[i + 1] as char).is_ascii_digit()
                && sign_starts_number(&tokens))
        {
            let start = i;
            if c == '-' || c == '+' {
                i += 1;
            }
            let mut seen_dot = false;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_digit()
                    || (d == ',' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit())
                {
                    i += 1;
                } else if d == '.'
                    && !seen_dot
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    seen_dot = true;
                    i += 1;
                } else {
                    break;
                }
            }
            let text = &input[start..i];
            tokens.push(Token {
                text: text.to_string(),
                norm: text.to_string(),
                kind: TokenKind::Number,
                span: Span::new(start, i),
            });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let d = input[i..].chars().next().expect("i is a char boundary");
                let interior = (d == '\'' || d == '-')
                    && input[i + 1..]
                        .chars()
                        .next()
                        .is_some_and(|n| n.is_alphabetic());
                if d.is_alphanumeric() || d == '_' || interior {
                    i += d.len_utf8();
                } else {
                    break;
                }
            }
            let text = &input[start..i];
            tokens.push(Token {
                text: text.to_string(),
                norm: text.to_lowercase(),
                kind: TokenKind::Word,
                span: Span::new(start, i),
            });
            continue;
        }
        // Multi-char comparison operators stay together: >=, <=, !=, <>.
        let two = input.get(i..i + 2);
        let punct_len = match two {
            Some(">=") | Some("<=") | Some("!=") | Some("<>") | Some("==") => 2,
            _ => c.len_utf8(),
        };
        let end = (i + punct_len).min(input.len());
        let text = &input[i..end];
        tokens.push(Token {
            text: text.to_string(),
            norm: text.to_string(),
            kind: TokenKind::Punct,
            span: Span::new(i, end),
        });
        i = end;
    }
    tokens
}

/// A `-`/`+` starts a number only at utterance start or after a
/// non-number context (operator/punct), so `5-3` lexes as `5`, `-`, `3`
/// but `revenue > -3` keeps the sign.
fn sign_starts_number(tokens: &[Token]) -> bool {
    match tokens.last() {
        None => true,
        Some(t) => t.kind == TokenKind::Punct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norms(input: &str) -> Vec<String> {
        tokenize(input).into_iter().map(|t| t.norm).collect()
    }

    #[test]
    fn words_lowercase() {
        assert_eq!(norms("Show Customers"), vec!["show", "customers"]);
    }

    #[test]
    fn spans_roundtrip_surface() {
        let input = "Top 5 products by total sales";
        for t in tokenize(input) {
            assert_eq!(&input[t.span.start..t.span.end], t.text);
        }
    }

    #[test]
    fn numbers_with_separators() {
        let t = tokenize("1,234,567.89");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].as_number(), Some(1_234_567.89));
    }

    #[test]
    fn negative_number_after_operator() {
        let t = tokenize("profit < -10.5");
        assert_eq!(t[2].kind, TokenKind::Number);
        assert_eq!(t[2].as_number(), Some(-10.5));
    }

    #[test]
    fn hyphen_between_numbers_is_punct() {
        let t = tokenize("5-3");
        assert_eq!(
            t.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![TokenKind::Number, TokenKind::Punct, TokenKind::Number]
        );
    }

    #[test]
    fn quoted_strings_preserve_body() {
        let t = tokenize("city = 'San Jose'");
        let q = t.last().unwrap();
        assert_eq!(q.kind, TokenKind::Quoted);
        assert_eq!(q.norm, "san jose");
        assert_eq!(q.text, "'San Jose'");
    }

    #[test]
    fn unterminated_quote_is_punct() {
        let t = tokenize("it's");
        // "it's" has an internal apostrophe so it stays one word.
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].kind, TokenKind::Word);
        let t2 = tokenize("' lonely");
        assert_eq!(t2[0].kind, TokenKind::Punct);
    }

    #[test]
    fn comparison_operators_stick_together() {
        let t = tokenize("price >= 10");
        assert_eq!(t[1].norm, ">=");
        let t = tokenize("a <> b");
        assert_eq!(t[1].norm, "<>");
    }

    #[test]
    fn hyphenated_words_stay_together() {
        let t = tokenize("year-over-year growth");
        assert_eq!(t[0].norm, "year-over-year");
    }

    #[test]
    fn unicode_words() {
        let t = tokenize("café räksmörgås");
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].norm, "café");
    }

    #[test]
    fn span_length() {
        let a = Span::new(2, 5);
        assert!(!a.is_empty());
        assert!(Span::new(4, 4).is_empty());
        assert_eq!(a.len(), 3);
    }
}
