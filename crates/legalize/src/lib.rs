//! The pixel-wise mixed-height standard-cell legalizer and its supporting
//! machinery: the reproduction of the size-ordered academic legalizer the
//! paper builds on and compares against (\[26\]/OpenDP-style), plus the
//! Gcell/bin partitioning and the 13-feature extraction the RL framework
//! consumes.
//!
//! Main pieces:
//!
//! - [`PixelGrid`] — site × row occupancy with fences, rail parity, and
//!   edge-spacing checks, over the whole die or one loaded Gcell window
//!   (the clone-free substrate of parallel per-Gcell solves),
//! - [`search::find_position`] — the diamond pixel search (Sec. II-B),
//! - [`Ordering`] — size-sorted / x-sorted / random / explicit cell orders,
//! - [`Legalizer`] — the sequential legalization driver, with the baseline's
//!   rearrangement and cell-swap heuristics,
//! - [`TetrisLegalizer`] — a greedy row-packing alternative backend (the
//!   paper: "our framework can be applied to any sequential legalization
//!   algorithms"),
//! - [`sched::TileSchedule`] / [`sched::StealQueues`] — the two-level
//!   coarse-tile → fine-Gcell schedule with per-worker stealing deques
//!   that feeds `run_gcells_parallel`'s scoped worker threads
//!   deterministically,
//! - [`pool`] — the worker-thread count behind every "0 = default"
//!   thread knob (`RLLEG_THREADS`),
//! - [`GcellGrid`] / [`BinGrid`] — subepisode partitioning (Sec. III-E-1),
//! - [`FeatureSpace`] — incremental maintenance of the Table-I features.
//!
//! # Example
//!
//! ```
//! use rlleg_design::{legality, DesignBuilder, Technology};
//! use rlleg_geom::Point;
//! use rlleg_legalize::{Legalizer, Ordering};
//!
//! let mut b = DesignBuilder::new("quick", Technology::nangate45(), 40, 10);
//! for i in 0..20 {
//!     b.add_cell(format!("u{i}"), 1 + i % 3, 1 + (i % 2) as u8, Point::new(i * 310, i * 450));
//! }
//! let mut design = b.build();
//! let mut legalizer = Legalizer::new(&design);
//! let stats = legalizer.run(&mut design, &Ordering::SizeDescending);
//! assert!(stats.is_complete());
//! assert!(legality::is_legal(&design));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod features;
pub mod gcell;
mod legalizer;
mod order;
pub mod pixel;
pub mod pool;
pub mod sched;
pub mod search;
mod tetris;

pub use fault::{FaultGuard, FaultPlan, InferStall};
pub use features::{FeatureSpace, NUM_FEATURES};
pub use gcell::{BinGrid, GcellGrid};
pub use legalizer::{Legalizer, PlaceCellError, RunStats};
pub use order::Ordering;
pub use pixel::{GridPos, GridWindow, PixelGrid, PlaceRejection};
pub use sched::{StealQueues, TileSchedule};
pub use search::{find_position, find_position_hot, find_position_reference, SearchConfig};
pub use tetris::TetrisLegalizer;
