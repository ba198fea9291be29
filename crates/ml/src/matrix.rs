//! Dense row-major matrices — just the operations the trainers need.
//! `W·x` skips `x`'s zero entries, so its cost follows `x`'s non-zeros
//! (the trainers' hashed bags of words hold about 10 of 192).

use rand::Rng;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Xavier/Glorot-uniform initialized matrix.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Row view.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row view.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · x` for a column vector `x` (len == cols), summing each
    /// row over `x`'s non-zero entries only.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let x = nonzeros(x);
        (0..self.rows).map(|r| dot(self.row(r), &x)).collect()
    }

    /// `selfᵀ · x` for a column vector `x` (len == rows).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            let row = self.row(r);
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * xr;
            }
        }
        out
    }
}

/// `x`'s non-zero entries as `(index, value)`, in ascending index order.
pub(crate) fn nonzeros(x: &[f64]) -> Vec<(usize, f64)> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| **v != 0.0)
        .map(|(i, v)| (i, *v))
        .collect()
}

/// `row · x` for `x` given by its non-zero entries, accumulated from
/// `+0.0` in ascending index order. Bit-identical to the dense sum over
/// every index for finite `row`: a skipped term is a signed zero, and
/// an accumulator that starts at `+0.0` is never `-0.0` under
/// round-to-nearest, so adding a zero never changes it.
pub(crate) fn dot(row: &[f64], x: &[(usize, f64)]) -> f64 {
    let mut acc = 0.0;
    for &(k, xk) in x {
        acc += row[k] * xk;
    }
    acc
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in xs.iter().enumerate() {
        if *x > xs[best] {
            best = i;
        }
    }
    best
}

/// Logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Dense references and sparse inputs for the trainers' bit-identity
/// tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::Matrix;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `m · x` summed over every entry of `x`: the dense product that
    /// [`Matrix::matvec`] must match bit for bit.
    pub(crate) fn dense_matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..m.rows)
            .map(|r| {
                let mut acc = 0.0;
                for (a, b) in m.row(r).iter().zip(x) {
                    acc += a * b;
                }
                acc
            })
            .collect()
    }

    /// A hashed bag of `words` random words with ±1 signs in `dim`
    /// buckets, L2-normalized like the interpreter's features: sparse,
    /// with negative entries, a zero where opposite signs collide, and
    /// all zeros when `words` is 0.
    pub(crate) fn hashed_bag(rng: &mut StdRng, dim: usize, words: usize) -> Vec<f64> {
        let mut v = vec![0.0; dim];
        for _ in 0..words {
            let h = rng.gen_range(0..dim);
            v[h] += if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        }
        if words > 0 {
            // A forced collision: +1 then -1 in one empty bucket.
            let h = rng.gen_range(0..dim);
            if v[h] == 0.0 {
                v[h] += 1.0;
                v[h] -= 1.0;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            v.iter_mut().for_each(|x| *x /= norm);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::testing::dense_matvec;
    use super::*;
    use rand::SeedableRng;

    /// A `rows × cols` matrix from row-major `data`.
    fn matrix(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    #[test]
    fn matvec_known_result() {
        let m = matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_known_result() {
        let m = matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_matches_the_dense_product_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let m = Matrix::xavier(7, 9, &mut rng);
        let inputs = [
            vec![0.0; 9],
            vec![0.0, -0.5, 0.0, 0.25, -0.0, 0.0, 0.0, 1.5, 0.0],
            (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        ];
        for x in &inputs {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(m.matvec(x)), bits(dense_matvec(&m, x)));
        }
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
        let p = softmax(&[-1e9, 0.0]);
        assert!(p[1] > 0.999);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[0.5]), 0);
    }

    #[test]
    fn xavier_is_seeded() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(Matrix::xavier(3, 3, &mut r1), Matrix::xavier(3, 3, &mut r2));
    }

    #[test]
    fn sigmoid_bounds() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
