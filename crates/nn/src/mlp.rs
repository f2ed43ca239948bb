use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::{Linear, Relu};
use crate::matrix::Matrix;

/// A multi-layer perceptron: `Linear → ReLU → … → Linear` (no activation
/// after the last layer).
///
/// This is the building block of the paper's cell-wise networks (Fig. 4):
/// the shared trunk is `Mlp::new(&[13, 256, 256])`, the policy and value
/// heads are `Mlp::new(&[256, 1])`.
///
/// ```
/// use rlleg_nn::{Mlp, Matrix};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut mlp = Mlp::new(&[4, 8, 2], &mut rng);
/// let x = Matrix::zeros(3, 4);
/// assert_eq!(mlp.forward(&x).cols(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    linears: Vec<Linear>,
    relus: Vec<Relu>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths (`dims.len() - 1` linear
    /// layers, ReLU between them).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], rng: &mut impl Rng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let linears = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect::<Vec<_>>();
        let relus = (0..linears.len().saturating_sub(1))
            .map(|_| Relu::new())
            .collect();
        Self { linears, relus }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.linears[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.linears.last().expect("nonempty").out_dim()
    }

    /// Training forward pass (caches activations for [`backward`](Self::backward)).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = self.linears[0].forward(x);
        for i in 0..self.relus.len() {
            h = self.relus[i].forward(&h);
            h = self.linears[i + 1].forward(&h);
        }
        h
    }

    /// Inference forward pass (no caching; usable through `&self`).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h = self.linears[0].forward_inference(x);
        for i in 0..self.relus.len() {
            h = self.relus[i].forward_inference(&h);
            h = self.linears[i + 1].forward_inference(&h);
        }
        h
    }

    /// Backward pass; accumulates parameter gradients, returns `∂L/∂x`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self.backward_upper(grad_out) {
            Some(g) => self.linears[0].backward(&g),
            None => self.linears[0].backward(grad_out),
        }
    }

    /// [`backward`](Self::backward) for a network whose input gradient
    /// nobody reads: accumulates the same parameter gradients and stops
    /// there, skipping the first layer's `∂L/∂x` product.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        match self.backward_upper(grad_out) {
            Some(g) => self.linears[0].backward_params(&g),
            None => self.linears[0].backward_params(grad_out),
        }
    }

    /// Backpropagates through every layer after the first, returning the
    /// gradient at the first layer's output (`None` for a single layer,
    /// where that is `grad_out` itself).
    fn backward_upper(&mut self, grad_out: &Matrix) -> Option<Matrix> {
        let mut g: Option<Matrix> = None;
        for i in (0..self.relus.len()).rev() {
            let up = self.linears[i + 1].backward(g.as_ref().unwrap_or(grad_out));
            g = Some(self.relus[i].backward(&up));
        }
        g
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.linears {
            l.zero_grads();
        }
    }

    /// Visits `(params, grads)` slices of every layer in a fixed order.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &[f32])) {
        for l in &mut self.linears {
            l.visit(f);
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.linears.iter().map(Linear::num_params).sum()
    }

    /// Copies all parameters into a flat vector (matching [`visit`](Self::visit) order).
    pub fn params_flat(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit(&mut |p, _| out.extend_from_slice(p));
        out
    }

    /// Copies all gradients into a flat vector.
    pub fn grads_flat(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit(&mut |_, g| out.extend_from_slice(g));
        out
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "parameter vector size mismatch"
        );
        let mut off = 0;
        self.visit(&mut |p, _| {
            p.copy_from_slice(&flat[off..off + p.len()]);
            off += p.len();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn shapes() {
        let mut m = Mlp::new(&[13, 32, 32, 1], &mut rng());
        assert_eq!(m.in_dim(), 13);
        assert_eq!(m.out_dim(), 1);
        let x = Matrix::zeros(5, 13);
        assert_eq!(m.forward(&x).rows(), 5);
        assert_eq!(m.num_params(), 13 * 32 + 32 + 32 * 32 + 32 + 32 + 1);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut m = Mlp::new(&[4, 8, 3], &mut rng());
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.7], &[1.0, 2.0, -3.0, 0.0]]);
        let a = m.forward(&x);
        let b = m.forward_inference(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn full_network_gradient_check() {
        let mut m = Mlp::new(&[3, 6, 1], &mut rng());
        let x = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-0.1, 0.9, 0.2]]);
        // Loss: sum of outputs.
        let y = m.forward(&x);
        let ones = Matrix::from_vec(y.rows(), 1, vec![1.0; y.rows()]);
        let _ = m.backward(&ones);
        let analytic = m.grads_flat();

        let eps = 1e-3f32;
        let loss = |m: &Mlp| m.forward_inference(&x).as_slice().iter().sum::<f32>();
        let mut params = m.params_flat();
        // Spot-check a handful of parameters across layers.
        for &idx in &[0usize, 5, 17, analytic.len() - 1, analytic.len() / 2] {
            let orig = params[idx];
            params[idx] = orig + eps;
            m.set_params_flat(&params);
            let hi = loss(&m);
            params[idx] = orig - eps;
            m.set_params_flat(&params);
            let lo = loss(&m);
            params[idx] = orig;
            m.set_params_flat(&params);
            let num = (hi - lo) / (2.0 * eps);
            assert!(
                (num - analytic[idx]).abs() < 1e-2 * (1.0 + num.abs()),
                "param {idx}: numeric {num} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn backward_params_accumulates_the_same_gradients() {
        let x = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-0.1, 0.9, 0.2], &[1.5, 0.0, -2.0]]);
        for dims in [&[3, 6, 5, 2][..], &[3, 2][..]] {
            let mut full = Mlp::new(dims, &mut rng());
            let mut params_only = full.clone();
            let y = full.forward(&x);
            params_only.forward(&x);
            let g = Matrix::from_vec(
                y.rows(),
                y.cols(),
                (0..y.as_slice().len())
                    .map(|i| 0.3 - i as f32 * 0.1)
                    .collect(),
            );
            let _ = full.backward(&g);
            params_only.backward_params(&g);
            let bits = |m: &mut Mlp| {
                m.grads_flat()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&mut full), bits(&mut params_only), "dims {dims:?}");
        }
    }

    #[test]
    fn params_round_trip() {
        let mut m = Mlp::new(&[4, 5, 2], &mut rng());
        let p = m.params_flat();
        let mut m2 = Mlp::new(&[4, 5, 2], &mut rng());
        m2.set_params_flat(&p);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(m.forward_inference(&x), m2.forward_inference(&x));
    }

    #[test]
    fn serde_round_trip() {
        let mut m = Mlp::new(&[4, 5, 2], &mut rng());
        let json = serde_json::to_string(&m).expect("serialize");
        let m2: Mlp = serde_json::from_str(&json).expect("deserialize");
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0, 0.1]]);
        assert_eq!(m.forward(&x), m2.forward_inference(&x));
    }
}
