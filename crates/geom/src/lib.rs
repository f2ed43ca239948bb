//! Geometry primitives and spatial indexing for the RL-Legalizer reproduction.
//!
//! This crate provides the low-level building blocks used throughout the
//! workspace:
//!
//! - [`Point`] and [`Rect`] — integer (database-unit) geometry with the usual
//!   set algebra (intersection, union, containment, Manhattan distances),
//! - [`rtree::RTree`] — an R-tree spatial index (STR bulk load + quadratic
//!   split insertion) replacing the Boost R-tree the paper used for feature
//!   extraction and overlap queries.
//!
//! All coordinates are `i64` database units (1 dbu = 1 nm in the built-in
//! technologies), so arithmetic is exact and `Ord`-able.
//!
//! # Example
//!
//! ```
//! use rlleg_geom::{Point, Rect, rtree::RTree};
//!
//! let a = Rect::new(0, 0, 10, 10);
//! let b = Rect::new(5, 5, 20, 20);
//! assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
//!
//! let mut tree: RTree<u32> = RTree::new();
//! tree.insert(a, 1);
//! tree.insert(b, 2);
//! let hits: Vec<_> = tree.query(&Rect::new(0, 0, 6, 6)).map(|(_, v)| *v).collect();
//! assert_eq!(hits.len(), 2);
//! assert!(a.contains_point(Point::new(3, 3)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod point;
mod rect;
pub mod rtree;

pub use point::Point;
pub use rect::Rect;

/// Database units (1 dbu = 1 nm in the built-in technologies).
///
/// A plain alias rather than a newtype: the whole workspace manipulates dbu
/// arithmetic heavily and the alias keeps call sites readable without
/// ceremony, while the name still documents intent in signatures.
pub type Dbu = i64;
