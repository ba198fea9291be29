#![warn(missing_docs)]

//! # nlidb-ml — the learning substrate, from scratch
//!
//! The survey's ML-based family (Seq2SQL, SQLNet, TypeSQL, DBPal, …)
//! rests on trainable encoders and classifiers. With no GPU and no
//! pretrained checkpoints available offline, this crate implements the
//! required pieces directly:
//!
//! * [`matrix`] — dense row-major matrices with the handful of ops the
//!   trainers need,
//! * [`mlp`] — multi-layer perceptron with ReLU hiddens, softmax
//!   cross-entropy loss, and plain SGD backprop,
//! * [`scorer`] — a bilinear question/column scorer (the
//!   column-attention mechanism of SQLNet, reduced to its trainable
//!   core).
//!
//! Everything is seeded and deterministic: the same seed reproduces
//! the same training run bit-for-bit, which the experiment harness
//! relies on.

pub mod matrix;
pub mod mlp;
pub mod scorer;

pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use scorer::BilinearScorer;
