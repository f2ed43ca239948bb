//! A minimal, dependency-free neural-network library for the RL-Legalizer
//! reproduction.
//!
//! The Rust ML ecosystem is thin for this use case (a tiny cell-wise MLP
//! trained with a custom actor-critic loss), so the reproduction builds its
//! own stack:
//!
//! - [`Matrix`] — dense row-major `f32` matrices with the handful of
//!   products backprop needs,
//! - [`Linear`] / [`Relu`] / [`Mlp`] — layers with cached-activation
//!   backpropagation and accumulated (mini-batch) gradients,
//! - [`ops`] — softmax, entropy, smooth-L1, feature-wise L2 normalization,
//! - [`optim`] — Adam and global-norm gradient clipping,
//! - [`sparse`] — CSR matrices, SpMV, and a Jacobi-preconditioned conjugate
//!   gradient solver for the global placer's quadratic wirelength systems.
//!
//! Everything is deterministic given a seeded RNG and serializable with
//! serde, so trained policies can be saved and reloaded (the paper trains
//! once and tests with frozen weights).
//!
//! # Example
//!
//! ```
//! use rlleg_nn::{Mlp, Matrix, optim::Adam};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut net = Mlp::new(&[2, 16, 1], &mut rng);
//! let mut adam = Adam::new(net.num_params(), 1e-2);
//! // Fit y = x0 + x1 on a fixed batch.
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
//! let target = [0.0, 1.0, 1.0, 2.0];
//! for _ in 0..200 {
//!     net.zero_grads();
//!     let y = net.forward(&x);
//!     let grad: Vec<f32> = y.as_slice().iter().zip(&target).map(|(p, t)| p - t).collect();
//!     net.backward(&Matrix::from_vec(4, 1, grad));
//!     let g = net.grads_flat();
//!     let mut p = net.params_flat();
//!     adam.step(&mut p, &g);
//!     net.set_params_flat(&p);
//! }
//! let out = net.forward_inference(&x);
//! assert!((out.as_slice()[3] - 2.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod layer;
mod matrix;
mod mlp;
pub mod ops;
pub mod optim;
pub mod sparse;

pub use layer::{Linear, Relu};
pub use matrix::{Matrix, BLOCKED_MIN_ROWS};
pub use mlp::Mlp;
