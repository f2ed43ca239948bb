//! Mixed-height standard-cell design model for the RL-Legalizer reproduction.
//!
//! This crate is the substrate every other crate builds on. It models the
//! part of a physical design that legalization cares about:
//!
//! - [`Technology`] — placement site geometry, row height, power-rail parity
//!   and the edge-type spacing table,
//! - [`Design`] — core area, rows, mixed-height [`Cell`]s (movable and
//!   fixed/macro), [`Net`]s with pin offsets, and fence [`Region`]s,
//! - [`metrics`] — HPWL, displacement statistics, and the combined
//!   legalization-cost scalar used by the paper's learning curves,
//! - [`legality`] — a full design-rule checker (overlap, site/row alignment,
//!   rail parity, edge spacing, fences, max displacement) used to validate
//!   every legalizer output in tests and benches,
//! - [`def`] / [`lef`] — pragmatic DEF- and LEF-subset readers and writers
//!   so designs round-trip through the industry exchange formats the
//!   paper's flow consumes.
//!
//! # Example
//!
//! ```
//! use rlleg_design::{DesignBuilder, Technology};
//! use rlleg_geom::Point;
//!
//! let tech = Technology::nangate45();
//! let mut b = DesignBuilder::new("tiny", tech, 20, 8); // 20 sites x 8 rows
//! let a = b.add_cell("a", 2, 1, Point::new(95, 70));
//! let c = b.add_cell("c", 3, 2, Point::new(800, 1500));
//! b.add_net("n1", vec![(a, 0, 0), (c, 0, 0)]);
//! let design = b.build();
//! assert_eq!(design.num_cells(), 2);
//! assert!(design.cell(a).is_movable());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod cell;
pub mod def;
mod design;
pub mod fsio;
pub mod lef;
pub mod legality;
pub mod metrics;
mod net;
mod soa;
mod tech;
pub mod viz;

pub use builder::DesignBuilder;
pub use cell::{Cell, CellId, EdgeType, RailParity};
pub use design::{Design, Region, RegionId};
pub use net::{Net, NetId, Pin};
pub use soa::HotCells;
pub use tech::Technology;
