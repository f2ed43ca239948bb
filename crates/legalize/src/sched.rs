//! Two-level coarse-tile → fine-Gcell schedule.
//!
//! The Gcell grid is grouped into fixed 2×2 coarse tiles. Workers take
//! whole tiles off one shared cursor and solve all Gcells of a tile before
//! taking the next one, so each worker's window snapshots stay in one
//! region of the die.
//!
//! **Determinism:** the tile partition and the per-tile Gcell order depend
//! only on the Gcell grid — never on worker count or timing. The cursor
//! only changes *which worker* solves a tile; solves are snapshot-isolated
//! so the per-Gcell outcome is schedule-independent, and the phase-2 merge
//! replays results in the fixed [`TileSchedule::merge_order`]. That is what
//! keeps legalization bit-identical across thread counts.

use crate::gcell::GcellGrid;

/// Coarse tiling of a [`GcellGrid`]: fixed [`TileSchedule::TILE`]² blocks
/// of Gcells, independent of worker count, with a deterministic per-tile
/// subepisode order.
#[derive(Debug, Clone)]
pub struct TileSchedule {
    /// Gcell indices per tile, in tile-local subepisode order
    /// (descending movable-cell count, then index).
    tiles: Vec<Vec<usize>>,
}

impl TileSchedule {
    /// Coarse tile side length, in Gcells.
    pub const TILE: usize = 2;

    /// Tiles `gcells` into 2×2 blocks (edge tiles may be smaller).
    pub fn new(gcells: &GcellGrid) -> Self {
        let (nx, ny) = gcells.shape();
        let tx = nx.div_ceil(Self::TILE);
        let ty = ny.div_ceil(Self::TILE);
        let mut tiles = vec![Vec::new(); tx * ty];
        for gy in 0..ny {
            for gx in 0..nx {
                let t = (gy / Self::TILE) * tx + gx / Self::TILE;
                tiles[t].push(gy * nx + gx);
            }
        }
        for tile in &mut tiles {
            tile.sort_by_key(|&g| (std::cmp::Reverse(gcells.cells_of(g).len()), g));
        }
        Self { tiles }
    }

    /// Number of coarse tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// `true` when there are no tiles (only for an empty Gcell grid).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Gcell indices of tile `t`, in tile-local subepisode order.
    pub fn gcells(&self, t: usize) -> &[usize] {
        &self.tiles[t]
    }

    /// The deterministic phase-2 merge order: tiles ascending, Gcells in
    /// tile-local subepisode order within each tile. Depends only on the
    /// Gcell grid, never on worker count or timing.
    pub fn merge_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.tiles.iter().flat_map(|t| t.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn grid(nx: usize, ny: usize) -> GcellGrid {
        let mut b = DesignBuilder::new("sched", Technology::contest(), 100, 40);
        for i in 0..120usize {
            let x = (i as i64 * 997) % 19_000;
            let y = (i as i64 * 7_919) % 79_000;
            b.add_cell(format!("u{i}"), 1, 1, Point::new(x, y));
        }
        GcellGrid::new(&b.build(), nx, ny)
    }

    #[test]
    fn tiles_partition_the_gcells() {
        for (nx, ny) in [(1, 1), (2, 2), (3, 3), (5, 4), (5, 5)] {
            let g = grid(nx, ny);
            let sched = TileSchedule::new(&g);
            let mut seen: Vec<usize> = sched.merge_order().collect();
            assert_eq!(seen.len(), g.len(), "{nx}x{ny}");
            seen.sort_unstable();
            assert_eq!(seen, (0..g.len()).collect::<Vec<_>>(), "{nx}x{ny}");
            // No tile exceeds TILE^2 gcells.
            for t in 0..sched.len() {
                assert!(sched.gcells(t).len() <= TileSchedule::TILE * TileSchedule::TILE);
            }
        }
    }

    #[test]
    fn tile_local_order_is_descending_count() {
        let g = grid(4, 4);
        let sched = TileSchedule::new(&g);
        for t in 0..sched.len() {
            let counts: Vec<usize> = sched
                .gcells(t)
                .iter()
                .map(|&gc| g.cells_of(gc).len())
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] >= w[1]),
                "tile {t}: {counts:?}"
            );
        }
    }
}
