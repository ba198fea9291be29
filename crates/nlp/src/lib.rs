#![warn(missing_docs)]

//! # nlidb-nlp — natural-language substrate
//!
//! Lightweight, dependency-free NLP building blocks used by every
//! interpreter family in the survey taxonomy:
//!
//! * [`token`] — span-preserving tokenizer,
//! * [`stem`] — Porter stemmer,
//! * [`stopwords`] — the function-word list the linker skips,
//! * [`similarity`] — string similarity measures (Jaro-Winkler,
//!   n-gram Dice, token-set overlap) blended into one mention score,
//! * [`literal`] — number / date / comparison literal recognition,
//! * [`lexicon`] — synonym/hypernym lexicon with Wu-Palmer-style
//!   similarity, standing in for WordNet as used by NaLIR and the
//!   query-relaxation work of Lei et al.,
//! * [`hash`] — FNV-1a, the seedless hash behind feature buckets,
//!   digests and fingerprints across the workspace.
//!
//! There is no tagger and no parser. The interpreters read token
//! spans, literal cues and (through `nli-core`'s linker) mentions
//! scored with [`similarity`] and [`lexicon`]; where NaLIR maps a
//! dependency parse, the entity family here reads those spans and
//! cues directly, with no parse tree.

pub mod hash;
pub mod lexicon;
pub mod literal;
pub mod similarity;
pub mod stem;
pub mod stopwords;
pub mod token;

pub use hash::{fnv1a, FNV1A_OFFSET};
pub use lexicon::{Lexicon, LexiconBuilder};
pub use literal::{parse_date, parse_number, ComparisonCue, DateValue};
pub use similarity::mention_score;
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use token::{tokenize, Span, Token, TokenKind};
