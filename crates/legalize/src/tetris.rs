//! A Tetris-style greedy row-packing legalizer — the classic alternative
//! sequential algorithm.
//!
//! The paper notes its framework "can be applied to any sequential
//! legalization algorithms"; this backend demonstrates that claim. Where
//! the pixel-wise diamond search looks for the nearest free pixel in any
//! direction, Tetris packing keeps a per-row *frontier* and always places
//! the next cell at the first gap at-or-right-of the frontier in the
//! cheapest row band, never revisiting space to the left. It is faster and
//! fragmentation-free along rows, but much more order-sensitive — which
//! makes it an interesting second environment for the RL agent.

use rlleg_design::{CellId, Design};
use rlleg_geom::Dbu;

use crate::legalizer::{PlaceCellError, RunStats};
use crate::order::Ordering;
use crate::pixel::{GridPos, PixelGrid};

/// A greedy row-packing (Tetris-style) sequential legalizer.
///
/// ```
/// use rlleg_design::{legality, DesignBuilder, Technology};
/// use rlleg_geom::Point;
/// use rlleg_legalize::{Ordering, TetrisLegalizer};
///
/// let mut b = DesignBuilder::new("t", Technology::contest(), 30, 8);
/// for i in 0..12 {
///     b.add_cell(format!("u{i}"), 2, 1, Point::new(i * 260, 100));
/// }
/// let mut design = b.build();
/// let mut lg = TetrisLegalizer::new(&design);
/// let stats = lg.run(&mut design, &Ordering::XAscending);
/// assert!(stats.is_complete());
/// assert!(legality::is_legal(&design));
/// ```
#[derive(Debug, Clone)]
pub struct TetrisLegalizer {
    grid: PixelGrid,
    /// Leftmost available site per row: everything to the left is
    /// considered consumed, even if free (the Tetris simplification).
    frontier: Vec<i64>,
}

impl TetrisLegalizer {
    /// Creates the legalizer, rasterizing fixed and already-legalized
    /// cells and starting every row frontier at site 0.
    pub fn new(design: &Design) -> Self {
        let grid = PixelGrid::with_committed(design);
        let rows = grid.rows() as usize;
        Self {
            grid,
            frontier: vec![0; rows],
        }
    }

    /// Read access to the occupancy grid.
    pub fn grid(&self) -> &PixelGrid {
        &self.grid
    }

    /// Current frontier site of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn frontier(&self, row: i64) -> i64 {
        self.frontier[row as usize]
    }

    /// Legalizes one cell: scans row bands outward from the cell's
    /// global-placement row, and in each band takes the first legal
    /// position at-or-right-of the band frontier (and of the cell's own x,
    /// when that is farther right). Bands stop as soon as their vertical
    /// cost alone exceeds the best candidate.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceCellError`] when no band has room.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed or already legalized.
    pub fn legalize_cell(
        &mut self,
        design: &mut Design,
        cell: CellId,
    ) -> Result<Dbu, PlaceCellError> {
        let c = design.cell(cell);
        assert!(c.is_movable(), "cannot legalize fixed cell {cell}");
        assert!(!c.legalized, "cell {cell} already legalized");
        let from = c.gp_pos;
        let sw = design.tech.site_width;
        let rh = design.tech.row_height;
        let w_sites = c.width / sw;
        let h_rows = i64::from(c.height_rows);
        let max_row = self.grid.rows() - h_rows;
        if max_row < 0 {
            return Err(PlaceCellError { cell });
        }
        let row0 = design.row_of(from.y).clamp(0, max_row);
        let site_gp = design.site_of(from.x);

        let limit = design.max_displacement;
        let mut best: Option<(GridPos, Dbu)> = None;
        // Rows ordered by vertical distance from the gp row.
        for dr in 0..=self.grid.rows() {
            let mut candidates_rows = Vec::new();
            if row0 - dr >= 0 {
                candidates_rows.push(row0 - dr);
            }
            if dr != 0 && row0 + dr <= max_row {
                candidates_rows.push(row0 + dr);
            }
            if candidates_rows.is_empty() && row0 - dr < 0 && row0 + dr > max_row {
                break;
            }
            if let Some((_, bd)) = best {
                // Vertical cost alone already exceeds the incumbent.
                if dr * rh > bd {
                    break;
                }
            }
            for row in candidates_rows {
                // Band frontier: the rightmost frontier across the covered
                // rows (a multi-row cell must clear all of them).
                let band_frontier = (row..row + h_rows)
                    .map(|r| self.frontier[r as usize])
                    .max()
                    .unwrap_or(0);
                let mut s = band_frontier
                    .max(site_gp.min(self.grid.sites_x() - w_sites))
                    .max(band_frontier);
                // March right over blockages until a legal start is found.
                while s + w_sites <= self.grid.sites_x() {
                    if self
                        .grid
                        .check_place(design, cell, GridPos { site: s, row })
                        .is_ok()
                    {
                        let p = self.grid.to_dbu(design, GridPos { site: s, row });
                        let disp = p.manhattan(from);
                        if limit.is_none_or(|l| disp <= l) && best.is_none_or(|(_, bd)| disp < bd) {
                            best = Some((GridPos { site: s, row }, disp));
                        }
                        break;
                    }
                    s += 1;
                }
            }
        }

        let Some((pos, disp)) = best else {
            return Err(PlaceCellError { cell });
        };
        self.grid.place(design, cell, pos);
        // Frontier advances over every covered row.
        for r in pos.row..pos.row + h_rows {
            self.frontier[r as usize] = self.frontier[r as usize].max(pos.site + w_sites);
        }
        let p = self.grid.to_dbu(design, pos);
        let c = design.cell_mut(cell);
        c.pos = p;
        c.legalized = true;
        Ok(disp)
    }

    /// Legalizes all movable cells in the given order.
    pub fn run(&mut self, design: &mut Design, ordering: &Ordering) -> RunStats {
        let order = ordering.order(design, None);
        self.run_cells(design, &order)
    }

    /// Legalizes an explicit list of cells in order.
    pub fn run_cells(&mut self, design: &mut Design, order: &[CellId]) -> RunStats {
        let mut stats = RunStats::default();
        for &cell in order {
            match self.legalize_cell(design, cell) {
                Ok(_) => stats.legalized += 1,
                Err(e) => stats.failed.push(e.cell),
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{legality, metrics::Qor, DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn design(n: i64) -> Design {
        let mut b = DesignBuilder::new("tt", Technology::contest(), 40, 8);
        for i in 0..n {
            let w = 1 + i % 3;
            let h = 1 + u8::from(i % 5 == 0);
            b.add_cell(
                format!("u{i}"),
                w,
                h,
                Point::new((i * 530) % 7_000, (i * 1_900) % 15_000),
            );
        }
        b.build()
    }

    #[test]
    fn x_ordered_run_is_legal() {
        let mut d = design(40);
        let mut lg = TetrisLegalizer::new(&d);
        let stats = lg.run(&mut d, &Ordering::XAscending);
        assert!(stats.is_complete(), "failed: {:?}", stats.failed);
        assert!(
            legality::is_legal(&d),
            "{:?}",
            legality::check(&d, true).first()
        );
    }

    #[test]
    fn size_and_random_orders_also_legal() {
        for ordering in [Ordering::SizeDescending, Ordering::Random(5)] {
            let mut d = design(40);
            let mut lg = TetrisLegalizer::new(&d);
            let stats = lg.run(&mut d, &ordering);
            assert!(stats.is_complete());
            assert!(legality::is_legal(&d));
        }
    }

    #[test]
    fn frontier_advances_and_blocks_left_space() {
        let mut d = design(2);
        let mut lg = TetrisLegalizer::new(&d);
        // Place the first cell far right; its row frontier must advance
        // past it, so the second cell in that row goes right of it even if
        // space exists on the left.
        d.cell_mut(rlleg_design::CellId(0)).gp_pos = Point::new(4_000, 0);
        d.cell_mut(rlleg_design::CellId(0)).pos = Point::new(4_000, 0);
        lg.legalize_cell(&mut d, rlleg_design::CellId(0))
            .expect("first");
        let placed_pos = d.cell(rlleg_design::CellId(0)).pos;
        let placed_width = d.cell(rlleg_design::CellId(0)).width;
        assert_eq!(placed_pos, Point::new(4_000, 0));
        assert_eq!(lg.frontier(0), 20 + placed_width / 200);
        // Second cell wants site 0 of the same row: frontier pushes it
        // right (or to another row, whichever is cheaper — row 1 here).
        d.cell_mut(rlleg_design::CellId(1)).gp_pos = Point::new(0, 100);
        d.cell_mut(rlleg_design::CellId(1)).pos = Point::new(0, 100);
        lg.legalize_cell(&mut d, rlleg_design::CellId(1))
            .expect("second");
        let c1_pos = d.cell(rlleg_design::CellId(1)).pos;
        assert!(
            c1_pos.y > 0 || c1_pos.x >= placed_pos.x + placed_width,
            "tetris never uses space left of the frontier: {c1_pos}"
        );
    }

    #[test]
    fn is_more_order_sensitive_than_diamond() {
        // Under x-ascending order Tetris is near-optimal; under size order
        // it typically pays more displacement than the diamond search.
        let base = design(60);
        let mut tetris_x = base.clone();
        let mut lg_x = TetrisLegalizer::new(&tetris_x);
        lg_x.run(&mut tetris_x, &Ordering::XAscending);
        let mut tetris_size = base.clone();
        let mut lg_s = TetrisLegalizer::new(&tetris_size);
        lg_s.run(&mut tetris_size, &Ordering::SizeDescending);
        let qx = Qor::measure(&tetris_x);
        let qs = Qor::measure(&tetris_size);
        assert!(qx.is_complete() && qs.is_complete());
        assert!(
            qx.total_displacement <= qs.total_displacement,
            "x-order should suit tetris: {} vs {}",
            qx.total_displacement,
            qs.total_displacement
        );
    }

    #[test]
    fn reports_failure_when_band_is_exhausted() {
        let mut b = DesignBuilder::new("full", Technology::contest(), 4, 1);
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        let c = b.add_cell("c", 4, 1, Point::new(0, 0));
        let mut d = b.build();
        let mut lg = TetrisLegalizer::new(&d);
        lg.legalize_cell(&mut d, a).expect("fits");
        // Frontier is at site 2; a 4-site cell no longer fits.
        assert_eq!(lg.legalize_cell(&mut d, c), Err(PlaceCellError { cell: c }));
    }

    #[test]
    fn respects_macros_by_marching_right() {
        let mut b = DesignBuilder::new("m", Technology::contest(), 20, 2);
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        b.add_fixed_cell("blk", 6, 1, Point::new(0, 0));
        let mut d = b.build();
        let mut lg = TetrisLegalizer::new(&d);
        let disp = lg.legalize_cell(&mut d, a).expect("placed");
        let c = d.cell(a);
        // Either right of the macro in row 0 or in row 1 (whichever is
        // cheaper; row 1 costs a full row height = 2000 > 6 sites = 1200).
        assert_eq!(c.pos, Point::new(1_200, 0));
        assert_eq!(disp, 1_200);
    }
}
