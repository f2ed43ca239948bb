use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A fully-connected layer `y = x·Wᵀ + b` with cached activations for
/// backpropagation and accumulated gradients for mini-batch training.
///
/// Weights are stored `out × in`; inputs are `N × in` (one row per cell in
/// the paper's cell-wise networks, so the same parameters process every cell
/// in parallel).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    #[serde(skip)]
    gw: Option<Matrix>,
    #[serde(skip)]
    gb: Vec<f32>,
    #[serde(skip)]
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform initialization
    /// (`U(±sqrt(6/fan_in))`), the PyTorch default for `nn.Linear` trunks.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / in_dim as f32).sqrt();
        let mut w = Matrix::zeros(out_dim, in_dim);
        for v in w.as_mut_slice() {
            *v = rng.gen_range(-bound..bound);
        }
        Self {
            w,
            b: vec![0.0; out_dim],
            gw: None,
            gb: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass; caches the input for the next [`backward`](Self::backward).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.affine(x);
        self.cached_input = Some(x.clone());
        y
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        self.affine(x)
    }

    /// `x·Wᵀ + b` with the bias broadcast row-wise.
    fn affine(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_t(&self.w);
        let out = self.b.len();
        for orow in y.as_mut_slice().chunks_exact_mut(out) {
            for (o, &b) in orow.iter_mut().zip(&self.b) {
                *o += b;
            }
        }
        y
    }

    /// Backward pass: accumulates `∂L/∂W`, `∂L/∂b` and returns `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`forward`](Self::forward).
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_params(grad_out);
        grad_out.matmul(&self.w)
    }

    /// [`backward`](Self::backward) without the input gradient: accumulates
    /// `∂L/∂W` and `∂L/∂b` only, for a first layer whose `∂L/∂x` nobody
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`forward`](Self::forward).
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        let x = self.cached_input.take().expect("backward without forward");
        // gw += grad_outᵀ · x   (out×in)
        let gw_step = grad_out.t_matmul(&x);
        match &mut self.gw {
            Some(gw) => {
                for (g, s) in gw.as_mut_slice().iter_mut().zip(gw_step.as_slice()) {
                    *g += s;
                }
            }
            None => self.gw = Some(gw_step),
        }
        for r in 0..grad_out.rows() {
            for (gb, &g) in self.gb.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.gw = None;
        for g in &mut self.gb {
            *g = 0.0;
        }
    }

    /// Visits `(params, grads)` flat slices: first weights, then biases.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &[f32])) {
        let gw = self
            .gw
            .get_or_insert_with(|| Matrix::zeros(self.w.rows(), self.w.cols()))
            .as_slice()
            .to_vec();
        f(self.w.as_mut_slice(), &gw);
        let gb = self.gb.clone();
        f(&mut self.b, &gb);
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// ReLU activation with the backward mask cached from the forward pass.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the activation mask.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
        let mut y = x.clone();
        y.map_inplace(|v| v.max(0.0));
        y
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        y.map_inplace(|v| v.max(0.0));
        y
    }

    /// Backward pass through the cached mask.
    ///
    /// # Panics
    ///
    /// Panics when the gradient shape does not match the cached forward.
    pub fn backward(&self, grad_out: &Matrix) -> Matrix {
        assert_eq!(
            grad_out.as_slice().len(),
            self.mask.len(),
            "relu backward shape"
        );
        let mut g = grad_out.clone();
        for (v, &m) in g.as_mut_slice().iter_mut().zip(&self.mask) {
            if !m {
                *v = 0.0;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn linear_forward_matches_manual() {
        let mut l = Linear::new(2, 3, &mut rng());
        // Overwrite with known weights.
        l.w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        l.b = vec![0.5, -0.5, 0.0];
        let x = Matrix::from_rows(&[&[2.0, 3.0]]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[2.5, 2.5, 5.0]);
        assert_eq!(l.forward_inference(&x).as_slice(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut l = Linear::new(3, 2, &mut rng());
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[0.2, 0.5, -0.4]]);
        // Loss = sum of outputs; dL/dy = ones.
        let y = l.forward(&x);
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let gx = l.backward(&ones);

        // Finite-difference check for one weight and one input element.
        let eps = 1e-3f32;
        let sum = |m: &Matrix| m.as_slice().iter().sum::<f32>();
        let base = sum(&l.forward_inference(&x));
        l.w[(1, 2)] += eps;
        let bumped = sum(&l.forward_inference(&x));
        l.w[(1, 2)] -= eps;
        let num_grad = (bumped - base) / eps;
        // Analytic: gw accumulated in visit()
        let mut grads = Vec::new();
        l.visit(&mut |_, g| grads.push(g.to_vec()));
        let gw = &grads[0];
        let analytic = gw[3 + 2];
        assert!(
            (num_grad - analytic).abs() < 1e-2,
            "{num_grad} vs {analytic}"
        );

        // Input gradient: dL/dx[0,0] = sum_k w[k,0]
        let expect = l.w[(0, 0)] + l.w[(1, 0)];
        assert!((gx[(0, 0)] - expect).abs() < 1e-5);
    }

    #[test]
    fn gradient_accumulation_and_zeroing() {
        let mut l = Linear::new(2, 2, &mut rng());
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        for _ in 0..3 {
            let _ = l.forward(&x);
            let _ = l.backward(&g);
        }
        let mut gb_sum = 0.0;
        l.visit(&mut |_, grads| gb_sum += grads.iter().sum::<f32>());
        assert!(
            (gb_sum - (3.0 * 4.0 + 3.0 * 2.0)).abs() < 1e-4,
            "3 accumulations"
        );
        l.zero_grads();
        let mut total = 0.0;
        l.visit(&mut |_, grads| total += grads.iter().map(|g| g.abs()).sum::<f32>());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn relu_masks_backward() {
        let mut r = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0, 0.0]]);
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0]);
        let g = r.backward(&Matrix::from_rows(&[&[5.0, 5.0, 5.0]]));
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn num_params() {
        let l = Linear::new(13, 256, &mut rng());
        assert_eq!(l.num_params(), 13 * 256 + 256);
    }
}
