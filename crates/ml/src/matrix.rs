//! Dense row-major matrices — just the operations the trainers need.

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
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialized matrix.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Row view.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · x` for a column vector `x` (len == cols).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *o = acc;
        }
        out
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

    /// SGD step: `self -= lr * grad`.
    pub fn sgd_step(&mut self, grad: &Matrix, lr: f64) {
        debug_assert_eq!((self.rows, self.cols), (grad.rows, grad.cols));
        for (w, g) in self.data.iter_mut().zip(&grad.data) {
            *w -= lr * g;
        }
    }

    /// Rank-1 accumulation: `self += a · bᵀ` (outer product).
    pub fn add_outer(&mut self, a: &[f64], b: &[f64]) {
        debug_assert_eq!(a.len(), self.rows);
        debug_assert_eq!(b.len(), self.cols);
        for (r, ar) in a.iter().enumerate() {
            let base = r * self.cols;
            for (c, bc) in b.iter().enumerate() {
                self.data[base + c] += ar * bc;
            }
        }
    }

    /// Zero all entries (gradient reset without reallocation).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
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

#[cfg(test)]
mod tests {
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
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 8.0);
        m.clear();
        assert_eq!(m.get(1, 1), 0.0);
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
    fn sgd_step_moves_against_gradient() {
        let mut w = matrix(1, 2, vec![1.0, -1.0]);
        let g = matrix(1, 2, vec![0.5, -0.5]);
        w.sgd_step(&g, 0.1);
        assert!((w.get(0, 0) - 0.95).abs() < 1e-12);
        assert!((w.get(0, 1) + 0.95).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_bounds() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
