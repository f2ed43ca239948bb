//! Gaussian-process Bayesian optimization with expected improvement.
//!
//! The paper tunes its network dimension and RL hyperparameters (learning
//! rate, discount, batch size, loss coefficients) with Bayesian
//! optimization, capped at 50 iterations (Sec. III-E-3). This crate is that
//! optimizer: an RBF-kernel [`gp::GaussianProcess`] surrogate plus
//! expected-improvement acquisition over random candidates, for
//! **minimization** of a black-box objective.
//!
//! # Example
//!
//! ```
//! use rlleg_bayesopt::BayesOpt;
//!
//! // Minimize (x-0.3)² + (y-0.7)² over the unit square.
//! let mut opt = BayesOpt::new(vec![(0.0, 1.0), (0.0, 1.0)], 42);
//! for _ in 0..30 {
//!     let x = opt.suggest();
//!     let y = (x[0] - 0.3f64).powi(2) + (x[1] - 0.7f64).powi(2);
//!     opt.observe(x, y);
//! }
//! let (best_x, best_y) = opt.best().expect("observations exist");
//! assert!(best_y < 0.05, "found {best_y} at {best_x:?}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gp;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gp::GaussianProcess;

/// Standard normal probability density.
fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ~1.5e-7, plenty for acquisition ranking).
fn norm_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

/// A sequential Bayesian optimizer (minimization).
#[derive(Debug, Clone)]
pub struct BayesOpt {
    bounds: Vec<(f64, f64)>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    rng: ChaCha8Rng,
    /// Number of purely random warm-up suggestions.
    pub init_points: usize,
    /// Random candidates scored per EI maximization.
    pub candidates: usize,
}

impl BayesOpt {
    /// Creates an optimizer over `bounds` (one `(lo, hi)` pair per
    /// dimension).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or any `lo >= hi`.
    pub fn new(bounds: Vec<(f64, f64)>, seed: u64) -> Self {
        assert!(!bounds.is_empty(), "need at least one dimension");
        assert!(
            bounds.iter().all(|&(lo, hi)| lo < hi),
            "bounds must be increasing"
        );
        Self {
            bounds,
            xs: Vec::new(),
            ys: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            init_points: 5,
            candidates: 512,
        }
    }

    fn random_point(&mut self) -> Vec<f64> {
        self.bounds
            .iter()
            .map(|&(lo, hi)| self.rng.gen_range(lo..hi))
            .collect()
    }

    fn to_unit(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.bounds)
            .map(|(v, &(lo, hi))| (v - lo) / (hi - lo))
            .collect()
    }

    /// Proposes the next point to evaluate: random during warm-up, then the
    /// expected-improvement maximizer over random candidates.
    pub fn suggest(&mut self) -> Vec<f64> {
        if self.xs.len() < self.init_points {
            return self.random_point();
        }
        let unit_xs: Vec<Vec<f64>> = self.xs.iter().map(|x| self.to_unit(x)).collect();
        let gp = GaussianProcess::fit(unit_xs, &self.ys, 0.25, 1e-3);
        let best = self.ys.iter().copied().fold(f64::INFINITY, f64::min);
        let mut best_cand = self.random_point();
        let mut best_ei = f64::NEG_INFINITY;
        for _ in 0..self.candidates {
            let cand = self.random_point();
            let (mu, sd) = gp.predict(&self.to_unit(&cand));
            let z = (best - mu) / sd;
            let ei = (best - mu) * norm_cdf(z) + sd * norm_pdf(z);
            if ei > best_ei {
                best_ei = ei;
                best_cand = cand;
            }
        }
        best_cand
    }

    /// Records an evaluated point.
    ///
    /// # Panics
    ///
    /// Panics when `x` has the wrong dimensionality or `y` is not finite.
    pub fn observe(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(x.len(), self.bounds.len(), "dimensionality mismatch");
        assert!(y.is_finite(), "objective must be finite");
        self.xs.push(x);
        self.ys.push(y);
    }

    /// The best observation so far, `(x, y)`.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        let (i, y) = self
            .ys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))?;
        Some((&self.xs[i], *y))
    }

    /// Number of observations recorded.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_sane() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(norm_cdf(3.0) > 0.99);
        assert!(norm_cdf(-3.0) < 0.01);
        assert!((norm_cdf(1.0) - 0.8413).abs() < 1e-3);
    }

    #[test]
    fn beats_random_search_on_rosenbrock_like() {
        // 2-D quadratic valley; compare best-after-25 against pure random
        // with the same budget and seed.
        let f = |x: &[f64]| (x[0] - 0.8f64).powi(2) * 4.0 + (x[1] - 0.2f64).powi(2);
        let mut opt = BayesOpt::new(vec![(0.0, 1.0), (0.0, 1.0)], 7);
        for _ in 0..25 {
            let x = opt.suggest();
            let y = f(&x);
            opt.observe(x, y);
        }
        let (_, bo_best) = opt.best().expect("has data");

        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut rand_best = f64::INFINITY;
        for _ in 0..25 {
            let x = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            rand_best = rand_best.min(f(&x));
        }
        assert!(bo_best <= rand_best, "BO {bo_best} vs random {rand_best}");
        assert!(bo_best < 0.05);
    }

    #[test]
    fn handles_one_dimension_and_flat_objective() {
        let mut opt = BayesOpt::new(vec![(0.0, 10.0)], 1);
        for _ in 0..12 {
            let x = opt.suggest();
            opt.observe(x, 1.0); // flat
        }
        let (_, y) = opt.best().expect("data");
        assert_eq!(y, 1.0);
        assert_eq!(opt.len(), 12);
    }

    #[test]
    #[should_panic(expected = "bounds must be increasing")]
    fn rejects_bad_bounds() {
        let _ = BayesOpt::new(vec![(1.0, 1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_observations() {
        let mut opt = BayesOpt::new(vec![(0.0, 1.0)], 0);
        opt.observe(vec![0.5], f64::NAN);
    }
}
