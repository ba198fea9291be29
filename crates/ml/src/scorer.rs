//! Bilinear question/column scorer — SQLNet's column attention reduced
//! to its trainable core: `score(q, c) = qᵀ W c + b`, trained with
//! logistic loss on (question, column, selected?) triples.
//!
//! Scoring and training read only the rows of `W` where `q ≠ 0` and the
//! columns where `c ≠ 0`, so a step costs `nnz(q) · nnz(c)`, not
//! `dq · dc`. The weights match those of the dense computation bit for
//! bit; the unit tests train both and compare every weight.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::matrix::{dot, nonzeros, sigmoid, Matrix};

/// Trainable bilinear compatibility scorer between two encodings.
#[derive(Debug, Clone)]
pub struct BilinearScorer {
    w: Matrix, // dq × dc
    bias: f64,
    dq: usize,
    dc: usize,
}

/// A feature vector's non-zero entries, `(index, value)` ascending.
type Sparse = Vec<(usize, f64)>;

impl BilinearScorer {
    /// New scorer for query dim `dq` and candidate dim `dc`.
    pub fn new(dq: usize, dc: usize, seed: u64) -> BilinearScorer {
        let mut rng = StdRng::seed_from_u64(seed);
        BilinearScorer {
            w: Matrix::xavier(dq, dc, &mut rng),
            bias: 0.0,
            dq,
            dc,
        }
    }

    /// Raw compatibility score.
    pub fn score(&self, q: &[f64], c: &[f64]) -> f64 {
        debug_assert_eq!(q.len(), self.dq);
        debug_assert_eq!(c.len(), self.dc);
        self.sparse_score(&nonzeros(q), &nonzeros(c))
    }

    /// `Σ_r q_r (W c)_r + b` over the non-zero `q_r` and `c_k`. The
    /// outer sum skips terms `q_r (W c)_r` with `q_r = 0`; those are
    /// signed zeros, which can change only the sign of a zero sum, and
    /// adding the bias (never `-0.0`: it starts at `+0.0` and moves by
    /// subtraction) erases that.
    fn sparse_score(&self, q: &[(usize, f64)], c: &[(usize, f64)]) -> f64 {
        q.iter()
            .map(|&(r, qr)| qr * dot(self.w.row(r), c))
            .sum::<f64>()
            + self.bias
    }

    /// One SGD step of logistic loss on a labeled pair; returns the
    /// pair's loss. Only `W[r][k]` with `q_r ≠ 0` and `c_k ≠ 0` have a
    /// non-zero gradient, so only those move.
    fn step(&mut self, q: &[(usize, f64)], c: &[(usize, f64)], label: bool, lr: f64) -> f64 {
        let p = sigmoid(self.sparse_score(q, c));
        let y = if label { 1.0 } else { 0.0 };
        let loss = -(if label { p } else { 1.0 - p }).max(1e-12).ln();
        let dscore = p - y;
        for &(r, qr) in q {
            let scaled_q = dscore * qr;
            let row = self.w.row_mut(r);
            for &(k, ck) in c {
                // `0.0 +` maps a `-0.0` product to `+0.0`, as summing
                // into a zeroed gradient does, so a `-0.0` weight keeps
                // its sign as in the dense computation.
                let g = 0.0 + scaled_q * ck;
                row[k] -= lr * g;
            }
        }
        self.bias -= lr * dscore;
        loss
    }

    /// Train over borrowed `(q, c, label)` triples for `epochs`;
    /// returns the final epoch's mean loss.
    pub fn train(&mut self, triples: &[(&[f64], &[f64], bool)], epochs: usize, lr: f64) -> f64 {
        let sparse: Vec<(Sparse, Sparse, bool)> = triples
            .iter()
            .map(|(q, c, y)| (nonzeros(q), nonzeros(c), *y))
            .collect();
        let mut last = 0.0;
        for _ in 0..epochs {
            let mut total = 0.0;
            for (q, c, y) in &sparse {
                total += self.step(q, c, *y, lr);
            }
            last = total / triples.len().max(1) as f64;
        }
        last
    }

    /// Index of the best-scoring candidate for a query.
    pub fn best<'a>(&self, q: &[f64], candidates: impl Iterator<Item = &'a [f64]>) -> usize {
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, c) in candidates.enumerate() {
            let s = self.score(q, c);
            if s > best_score {
                best_score = s;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::testing::{dense_matvec, hashed_bag};
    use rand::Rng;

    /// Borrowed view of owned triples, as [`BilinearScorer::train`]
    /// takes them.
    fn borrowed(triples: &[(Vec<f64>, Vec<f64>, bool)]) -> Vec<(&[f64], &[f64], bool)> {
        triples
            .iter()
            .map(|(q, c, y)| (q.as_slice(), c.as_slice(), *y))
            .collect()
    }

    #[test]
    fn learns_alignment() {
        // Candidates are 4-dim one-hot; queries equal the correct
        // candidate's one-hot. The scorer must learn the identity
        // alignment.
        let mut triples = Vec::new();
        for i in 0..4usize {
            let mut q = vec![0.0; 4];
            q[i] = 1.0;
            for j in 0..4usize {
                let mut c = vec![0.0; 4];
                c[j] = 1.0;
                triples.push((q.clone(), c, i == j));
            }
        }
        let mut s = BilinearScorer::new(4, 4, 2);
        let loss = s.train(&borrowed(&triples), 500, 0.5);
        assert!(loss < 0.2, "final loss {loss}");
        for i in 0..4usize {
            let mut q = vec![0.0; 4];
            q[i] = 1.0;
            let cands: Vec<Vec<f64>> = (0..4)
                .map(|j| {
                    let mut c = vec![0.0; 4];
                    c[j] = 1.0;
                    c
                })
                .collect();
            assert_eq!(s.best(&q, cands.iter().map(|c| c.as_slice())), i);
        }
    }

    #[test]
    fn deterministic_training() {
        let triples = [(&[1.0, 0.0][..], &[0.0, 1.0][..], true)];
        let mut a = BilinearScorer::new(2, 2, 3);
        let mut b = BilinearScorer::new(2, 2, 3);
        assert_eq!(a.train(&triples, 10, 0.1), b.train(&triples, 10, 0.1));
    }

    #[test]
    fn extreme_scores_keep_the_loss_finite() {
        // Scores far beyond sigmoid's saturation: the probability must
        // stay in [0, 1] and the clamped loss finite and non-negative.
        let triples = [
            (&[10.0, -10.0][..], &[5.0, 5.0][..], true),
            (&[1e3, 1e3][..], &[1e3, -1e3][..], false),
        ];
        let mut s = BilinearScorer::new(2, 2, 4);
        let loss = s.train(&triples, 3, 0.1);
        assert!(loss.is_finite() && loss >= 0.0, "loss {loss}");
    }

    /// The dense step this module took before it went sparse: `W·c`
    /// over every entry, a zeroed `dq × dc` gradient `dscore · q cᵀ`,
    /// then `W -= lr · grad` over every weight.
    fn dense_sgd_pair(s: &mut BilinearScorer, q: &[f64], c: &[f64], label: bool, lr: f64) -> f64 {
        let wc = dense_matvec(&s.w, c);
        let p = sigmoid(q.iter().zip(&wc).map(|(a, b)| a * b).sum::<f64>() + s.bias);
        let y = if label { 1.0 } else { 0.0 };
        let loss = -(if label { p } else { 1.0 - p }).max(1e-12).ln();
        let dscore = p - y;
        let mut grad = vec![0.0; s.dq * s.dc];
        for (r, qr) in q.iter().enumerate() {
            let scaled_q = dscore * qr;
            for (k, ck) in c.iter().enumerate() {
                grad[r * s.dc + k] += scaled_q * ck;
            }
        }
        for (r, g) in grad.chunks(s.dc).enumerate() {
            for (w, g) in s.w.row_mut(r).iter_mut().zip(g) {
                *w -= lr * g;
            }
        }
        s.bias -= lr * dscore;
        loss
    }

    fn dense_train(
        s: &mut BilinearScorer,
        triples: &[(Vec<f64>, Vec<f64>, bool)],
        epochs: usize,
        lr: f64,
    ) -> f64 {
        let mut last = 0.0;
        for _ in 0..epochs {
            let mut total = 0.0;
            for (q, c, y) in triples {
                total += dense_sgd_pair(s, q, c, *y, lr);
            }
            last = total / triples.len().max(1) as f64;
        }
        last
    }

    #[test]
    fn sparse_training_matches_the_dense_reference_bit_for_bit() {
        let (dq, dc) = (24, 8);
        let mut rng = StdRng::seed_from_u64(26);
        let mut triples: Vec<(Vec<f64>, Vec<f64>, bool)> = (0..60)
            .map(|i| {
                let q = hashed_bag(&mut rng, dq, if i % 9 == 0 { 0 } else { 1 + i % 7 });
                let c = hashed_bag(&mut rng, dc, if i % 11 == 0 { 0 } else { 1 + i % 3 });
                (q, c, rng.gen_bool(0.3))
            })
            .collect();
        // A dense query and a signed-zero entry.
        triples.push((
            (0..dq).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            hashed_bag(&mut rng, dc, 2),
            true,
        ));
        triples[1].0[0] = -0.0;
        for (lr, epochs) in [(0.12, 25), (0.9, 40)] {
            let mut sparse = BilinearScorer::new(dq, dc, 7);
            let mut dense = sparse.clone();
            let loss = sparse.train(&borrowed(&triples), epochs, lr);
            let dense_loss = dense_train(&mut dense, &triples, epochs, lr);
            assert_eq!(loss.to_bits(), dense_loss.to_bits(), "loss at lr {lr}");
            assert_eq!(
                sparse.bias.to_bits(),
                dense.bias.to_bits(),
                "bias at lr {lr}"
            );
            for r in 0..dq {
                let bits =
                    |s: &BilinearScorer| s.w.row(r).iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sparse), bits(&dense), "row {r} at lr {lr}");
            }
            for (q, c, _) in &triples {
                let wc = dense_matvec(&dense.w, c);
                let score = q.iter().zip(&wc).map(|(a, b)| a * b).sum::<f64>() + dense.bias;
                assert_eq!(sparse.score(q, c).to_bits(), score.to_bits());
            }
        }
    }
}
