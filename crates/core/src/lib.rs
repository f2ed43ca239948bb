//! **RL-Legalizer**: deep-RL cell-priority optimization for mixed-height
//! standard-cell legalization — a from-scratch Rust reproduction of
//! S.-Y. Lee et al., DATE 2023.
//!
//! Sequential legalizers fix the order in which cells are legalized (by
//! size, by x-coordinate, …), and that order strongly affects displacement
//! and wirelength. This crate learns the order instead: a cell-wise
//! policy/value network ([`CellWiseNet`], Fig. 4) reads 13 features per
//! movable cell, an A3C trainer ([`train`], Algorithm 1) optimizes it
//! against the Eq.-2 reward inside the legalizer MDP ([`LegalizeEnv`]), and
//! [`RlLegalizer`] applies the frozen network to new designs.
//!
//! The pixel-wise search legalizer itself, the Gcell/bin partitioning, and
//! the feature extraction live in [`rlleg_legalize`]; the neural network
//! stack lives in [`rlleg_nn`].
//!
//! # Quickstart
//!
//! ```
//! use rl_legalizer::{train, RlConfig, RlLegalizer};
//! use rlleg_design::{legality, DesignBuilder, Technology};
//! use rlleg_geom::Point;
//!
//! // A tiny overlapping placement.
//! let mut b = DesignBuilder::new("demo", Technology::contest(), 24, 6);
//! for i in 0..10i64 {
//!     b.add_cell(format!("u{i}"), 1 + i % 2, 1, Point::new(i * 150, 500));
//! }
//! let design = b.build();
//!
//! // Train briefly, then legalize with the learned priorities.
//! let cfg = RlConfig { episodes: 3, agents: 1, hidden_dim: 12, ..RlConfig::default() };
//! let result = train(std::slice::from_ref(&design), &cfg);
//! let mut test = design.clone();
//! let report = RlLegalizer::new(result.model).legalize(&mut test);
//! assert!(report.is_complete());
//! assert!(legality::is_legal(&test));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod config;
mod env;
mod infer;
mod model;
mod reward;
mod store;
mod train;
mod trainer;

pub use checkpoint::{
    crc32, decode, encode, CheckpointError, CheckpointStore, TrainerState, FORMAT_VERSION,
};
pub use config::{Backend, ReturnMode, RlConfig, StateMode};
pub use env::{LegalizeEnv, StepOutcome};
pub use infer::{DegradeReason, InferenceBudget, InferenceReport, RlLegalizer, Selection};
pub use model::{CellWiseNet, Forward};
pub use reward::{RewardParams, FAIL_REWARD};
pub use store::ParamStore;
pub use train::{train, TrainResult, TrainSample};
pub use trainer::{RestoreError, Trainer};
