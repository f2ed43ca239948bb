//! Umbrella crate for the RL-Legalizer reproduction workspace.
//!
//! Re-exports every member crate under one roof so downstream users (and
//! the repository's own `/examples` and `/tests`) can depend on a single
//! crate:
//!
//! - [`geom`] — geometry primitives and the R-tree,
//! - [`design`] — the mixed-height design model, DEF I/O, metrics, DRC,
//! - [`benchgen`] — synthetic ICCAD-2017/OpenCores-style benchmarks,
//! - [`gplace`] — the analytical global placer (quadratic + diffusion),
//! - [`legalize`] — the pixel-wise search legalizer, Gcells, features,
//! - [`nn`] — the neural-network stack,
//! - [`bayesopt`] — GP Bayesian optimization,
//! - [`rl`] — the RL-Legalizer itself (environment, A3C, inference),
//! - [`serve`] — legalization as a service: the async job server,
//! - [`telemetry`] — zero-dependency metrics, spans, and event journal.
//!
//! # Example
//!
//! ```
//! use rlleg_suite::prelude::*;
//!
//! let design = generate(&find_spec("usb_phy").expect("table row").scaled(0.2));
//! let mut d = design.clone();
//! let mut lg = Legalizer::new(&d);
//! let stats = lg.run(&mut d, &Ordering::SizeDescending);
//! assert!(stats.is_complete());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rlleg_bayesopt as bayesopt;
pub use rlleg_benchgen as benchgen;
pub use rlleg_design as design;
pub use rlleg_geom as geom;
pub use rlleg_gplace as gplace;
pub use rlleg_legalize as legalize;
pub use rlleg_nn as nn;
pub use rlleg_serve as serve;
pub use telemetry;

/// The core RL framework (crate `rl-legalizer`).
pub use rl_legalizer as rl;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use crate::benchgen::{find_spec, generate, test_suite, training_suite};
    pub use crate::design::{legality, metrics::Qor, Design, DesignBuilder, Technology};
    pub use crate::geom::{Point, Rect};
    pub use crate::gplace::{place, GpConfig};
    pub use crate::legalize::{GcellGrid, Legalizer, Ordering};
    pub use crate::rl::{train, RlConfig, RlLegalizer};
}
