//! Synthetic benchmark generation for the RL-Legalizer reproduction.
//!
//! The paper trains and tests on the ICCAD-2017 contest benchmarks and on
//! OpenCores designs implemented in Nangate 45 nm — neither of which is
//! redistributable here. This crate regenerates *statistically equivalent*
//! designs from the published per-row characteristics (Tables II–III):
//!
//! - [`spec`] — one [`BenchmarkSpec`] per table row (cell count, area,
//!   density, fences/macros/edge rules by family), with uniform scaling for
//!   laptop-sized runs,
//! - [`generate`] — builds the full [`Design`](rlleg_design::Design):
//!   mixed-height cell population, macros, fence regions, a locality-aware
//!   netlist, and
//! - [`placement`] — a global-placement substrate (net-centroid attraction
//!   plus bin density spreading) producing the overlapping off-grid
//!   positions legalization starts from.
//!
//! # Example
//!
//! ```
//! use rlleg_benchgen::{generate, find_spec};
//!
//! let spec = find_spec("usb_phy").expect("table row").scaled(0.5);
//! let design = generate(&spec);
//! assert_eq!(design.num_movable(), spec.num_cells);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod generate;
pub mod placement;
pub mod spec;

pub use generate::generate;
pub use spec::{find_spec, parse_cells, test_suite, training_suite, BenchmarkSpec, Family};
