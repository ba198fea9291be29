//! Multi-layer perceptron: ReLU hidden layers, softmax cross-entropy
//! output, plain SGD. The classifier behind intent detection, sketch
//! slot prediction, and the agent dialogue policy.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::matrix::{argmax, softmax, Matrix};

/// Hyper-parameters for [`Mlp::train`].
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Hidden layer width (one hidden layer; 0 = logistic regression).
    pub hidden: usize,
    /// Number of epochs over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
    /// L2 weight decay coefficient.
    pub l2: f64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 32,
            epochs: 60,
            lr: 0.05,
            seed: 42,
            l2: 1e-4,
        }
    }
}

#[derive(Clone)]
struct Dense {
    w: Matrix, // out × in
    b: Vec<f64>,
}

impl Dense {
    fn new(inp: usize, out: usize, rng: &mut StdRng) -> Dense {
        Dense {
            w: Matrix::xavier(out, inp, rng),
            b: vec![0.0; out],
        }
    }

    /// `W x + b`; the product skips `x`'s zero entries.
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.w.matvec(x);
        for (yi, bi) in y.iter_mut().zip(&self.b) {
            *yi += bi;
        }
        y
    }

    /// One SGD step given `d`, the loss gradient at this layer's
    /// pre-activations, and the layer's input `x`: `b -= lr·d`, and for
    /// every weight `g = d·x + l2·w; w += −lr·g`. L2 decay moves every
    /// weight, so the step is dense; it runs over row slices.
    fn step(&mut self, d: &[f64], x: &[f64], lr: f64, l2: f64) {
        for (r, dr) in d.iter().enumerate() {
            self.b[r] -= lr * dr;
            for (w, xc) in self.w.row_mut(r).iter_mut().zip(x) {
                let g = dr * xc + l2 * *w;
                *w += -lr * g;
            }
        }
    }
}

/// A (0- or 1-hidden-layer) perceptron classifier.
#[derive(Clone)]
pub struct Mlp {
    hidden: Option<Dense>,
    output: Dense,
    /// Input dimensionality.
    pub input_dim: usize,
    /// Number of classes.
    pub classes: usize,
}

impl Mlp {
    /// Fresh network with seeded Xavier init.
    pub fn new(input_dim: usize, classes: usize, cfg: &MlpConfig) -> Mlp {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (hidden, out_in) = if cfg.hidden > 0 {
            (
                Some(Dense::new(input_dim, cfg.hidden, &mut rng)),
                cfg.hidden,
            )
        } else {
            (None, input_dim)
        };
        Mlp {
            hidden,
            output: Dense::new(out_in, classes, &mut rng),
            input_dim,
            classes,
        }
    }

    /// Class probabilities for one input.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        softmax(&self.logits(x))
    }

    /// Most probable class.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.logits(x))
    }

    fn logits(&self, x: &[f64]) -> Vec<f64> {
        match &self.hidden {
            Some(h) => {
                let mut a = h.forward(x);
                for v in &mut a {
                    *v = v.max(0.0); // ReLU
                }
                self.output.forward(&a)
            }
            None => self.output.forward(x),
        }
    }

    /// Train with SGD on (features, label) pairs; returns the final
    /// epoch's mean cross-entropy loss.
    pub fn train(&mut self, xs: &[Vec<f64>], ys: &[usize], cfg: &MlpConfig) -> f64 {
        assert_eq!(xs.len(), ys.len());
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut last_loss = 0.0;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                total += self.sgd_example(&xs[i], ys[i], cfg.lr, cfg.l2);
            }
            last_loss = total / xs.len().max(1) as f64;
        }
        last_loss
    }

    /// One SGD step on one example; returns its loss.
    fn sgd_example(&mut self, x: &[f64], y: usize, lr: f64, l2: f64) -> f64 {
        // Forward.
        let (hidden_pre, hidden_act): (Vec<f64>, Vec<f64>) = match &self.hidden {
            Some(h) => {
                let pre = h.forward(x);
                let act = pre.iter().map(|v| v.max(0.0)).collect();
                (pre, act)
            }
            None => (Vec::new(), Vec::new()),
        };
        let input_to_out: &[f64] = if self.hidden.is_some() {
            &hidden_act
        } else {
            x
        };
        let logits = self.output.forward(input_to_out);
        let probs = softmax(&logits);
        let loss = -probs[y].max(1e-12).ln();

        // Backward: dL/dlogit = p - onehot(y).
        let mut dlogit = probs;
        dlogit[y] -= 1.0;

        // Output layer, then the hidden layer through the ReLU.
        let dinput_out = self.output.w.matvec_t(&dlogit);
        self.output.step(&dlogit, input_to_out, lr, l2);
        if let Some(h) = &mut self.hidden {
            let dh: Vec<f64> = hidden_pre
                .iter()
                .zip(&dinput_out)
                .map(|(pre, d)| if *pre > 0.0 { *d } else { 0.0 })
                .collect();
            h.step(&dh, x, lr, l2);
        }
        loss
    }

    /// Classification accuracy over a labeled set.
    pub fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, y)| self.predict(x) == **y)
            .count();
        correct as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::testing::{dense_matvec, hashed_bag};

    /// Linearly separable two-class problem.
    fn linear_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let t = i as f64 / 10.0;
            xs.push(vec![t, 1.0]);
            ys.push(0);
            xs.push(vec![-t - 0.1, 1.0]);
            ys.push(1);
        }
        (xs, ys)
    }

    #[test]
    fn learns_linear_separation_without_hidden() {
        let (xs, ys) = linear_data();
        let cfg = MlpConfig {
            hidden: 0,
            epochs: 40,
            lr: 0.1,
            seed: 1,
            l2: 0.0,
        };
        let mut m = Mlp::new(2, 2, &cfg);
        m.train(&xs, &ys, &cfg);
        assert!(m.accuracy(&xs, &ys) > 0.95);
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0, 1, 1, 0];
        let cfg = MlpConfig {
            hidden: 16,
            epochs: 3000,
            lr: 0.1,
            seed: 3,
            l2: 0.0,
        };
        let mut m = Mlp::new(2, 2, &cfg);
        m.train(&xs, &ys, &cfg);
        assert_eq!(
            m.accuracy(&xs, &ys),
            1.0,
            "XOR should be solvable with a hidden layer"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = linear_data();
        let cfg = MlpConfig {
            hidden: 8,
            epochs: 10,
            lr: 0.05,
            seed: 9,
            l2: 1e-4,
        };
        let mut a = Mlp::new(2, 2, &cfg);
        let mut b = Mlp::new(2, 2, &cfg);
        let la = a.train(&xs, &ys, &cfg);
        let lb = b.train(&xs, &ys, &cfg);
        assert_eq!(la, lb);
        assert_eq!(a.predict_proba(&xs[0]), b.predict_proba(&xs[0]));
    }

    #[test]
    fn loss_decreases_with_training() {
        let (xs, ys) = linear_data();
        let cfg1 = MlpConfig {
            hidden: 8,
            epochs: 1,
            lr: 0.05,
            seed: 4,
            l2: 0.0,
        };
        let cfg50 = MlpConfig { epochs: 50, ..cfg1 };
        let mut m1 = Mlp::new(2, 2, &cfg1);
        let l1 = m1.train(&xs, &ys, &cfg1);
        let mut m50 = Mlp::new(2, 2, &cfg50);
        let l50 = m50.train(&xs, &ys, &cfg50);
        assert!(l50 < l1, "more epochs should reduce loss ({l50} vs {l1})");
    }

    #[test]
    fn proba_sums_to_one() {
        let cfg = MlpConfig::default();
        let m = Mlp::new(4, 3, &cfg);
        let p = m.predict_proba(&[0.1, -0.2, 0.3, 0.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiclass_learning() {
        // Three clusters on a line.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let noise = (i % 5) as f64 * 0.02;
            xs.push(vec![-1.0 + noise]);
            ys.push(0);
            xs.push(vec![0.0 + noise]);
            ys.push(1);
            xs.push(vec![1.0 + noise]);
            ys.push(2);
        }
        let cfg = MlpConfig {
            hidden: 16,
            epochs: 200,
            lr: 0.1,
            seed: 5,
            l2: 0.0,
        };
        let mut m = Mlp::new(1, 3, &cfg);
        m.train(&xs, &ys, &cfg);
        assert!(m.accuracy(&xs, &ys) > 0.95);
    }

    #[test]
    fn empty_accuracy_is_zero() {
        let cfg = MlpConfig::default();
        let m = Mlp::new(2, 2, &cfg);
        assert_eq!(m.accuracy(&[], &[]), 0.0);
    }

    /// `W x + b` with the product over every entry of `x`.
    fn dense_forward(d: &Dense, x: &[f64]) -> Vec<f64> {
        let mut y = dense_matvec(&d.w, x);
        for (yi, bi) in y.iter_mut().zip(&d.b) {
            *yi += bi;
        }
        y
    }

    /// The step this module took before its layers stepped over row
    /// slices: a dense forward, and each weight updated through its
    /// `(row, column)` index.
    fn dense_sgd_example(m: &mut Mlp, x: &[f64], y: usize, lr: f64, l2: f64) -> f64 {
        let (hidden_pre, hidden_act): (Vec<f64>, Vec<f64>) = match &m.hidden {
            Some(h) => {
                let pre = dense_forward(h, x);
                let act = pre.iter().map(|v| v.max(0.0)).collect();
                (pre, act)
            }
            None => (Vec::new(), Vec::new()),
        };
        let input_to_out: &[f64] = if m.hidden.is_some() { &hidden_act } else { x };
        let probs = softmax(&dense_forward(&m.output, input_to_out));
        let loss = -probs[y].max(1e-12).ln();
        let mut dlogit = probs;
        dlogit[y] -= 1.0;
        let dinput_out = m.output.w.matvec_t(&dlogit);
        for (r, dr) in dlogit.iter().enumerate() {
            m.output.b[r] -= lr * dr;
            for (c, xc) in input_to_out.iter().enumerate() {
                let g = dr * xc + l2 * m.output.w.row(r)[c];
                m.output.w.row_mut(r)[c] += -lr * g;
            }
        }
        if let Some(h) = &mut m.hidden {
            for (r, pre) in hidden_pre.iter().enumerate() {
                let dh = if *pre > 0.0 { dinput_out[r] } else { 0.0 };
                h.b[r] -= lr * dh;
                for (c, xc) in x.iter().enumerate() {
                    let g = dh * xc + l2 * h.w.row(r)[c];
                    h.w.row_mut(r)[c] += -lr * g;
                }
            }
        }
        loss
    }

    fn dense_train(m: &mut Mlp, xs: &[Vec<f64>], ys: &[usize], cfg: &MlpConfig) -> f64 {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut last_loss = 0.0;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                total += dense_sgd_example(m, &xs[i], ys[i], cfg.lr, cfg.l2);
            }
            last_loss = total / xs.len().max(1) as f64;
        }
        last_loss
    }

    /// Every weight and bias of a layer, as bits.
    fn bits(d: &Dense) -> Vec<u64> {
        (0..d.w.rows)
            .flat_map(|r| d.w.row(r).to_vec())
            .chain(d.b.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn sparse_training_matches_the_dense_reference_bit_for_bit() {
        use rand::Rng;
        let (dim, classes) = (30, 4);
        let mut rng = StdRng::seed_from_u64(26);
        let mut xs: Vec<Vec<f64>> = (0..50)
            .map(|i| hashed_bag(&mut rng, dim, if i % 9 == 0 { 0 } else { 1 + i % 8 }))
            .collect();
        // A dense input and a signed-zero entry.
        xs.push((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect());
        xs[1][0] = -0.0;
        let ys: Vec<usize> = xs.iter().map(|_| rng.gen_range(0..classes)).collect();
        for (hidden, l2) in [(12, 1e-4), (12, 0.0), (0, 1e-4)] {
            let cfg = MlpConfig {
                hidden,
                epochs: 15,
                lr: 0.08,
                seed: 5,
                l2,
            };
            let mut sparse = Mlp::new(dim, classes, &cfg);
            let mut dense = sparse.clone();
            let loss = sparse.train(&xs, &ys, &cfg);
            let dense_loss = dense_train(&mut dense, &xs, &ys, &cfg);
            let run = format!("hidden {hidden}, l2 {l2}");
            assert_eq!(loss.to_bits(), dense_loss.to_bits(), "loss, {run}");
            assert_eq!(bits(&sparse.output), bits(&dense.output), "output, {run}");
            assert_eq!(
                sparse.hidden.as_ref().map(bits),
                dense.hidden.as_ref().map(bits),
                "hidden, {run}"
            );
        }
    }
}
