//! Pixel-wise diamond search (Sec. II-B, Fig. 2).
//!
//! For a target cell, the search "explores available pixel locations ...
//! using a diamond searching method within a search space. The search
//! boundary is determined to be proportional to the maximum displacement
//! constraint and cell size. Finally, the location with the minimum
//! displacement is designated to legalize the cell."
//!
//! [`find_position`] walks the same diamond-bounded candidate set as the
//! original ring enumeration (kept as [`find_position_reference`]) but in
//! best-first order over the word-level free spans of the grid: rows are
//! visited in nondecreasing vertical cost from the target row, and within a
//! row only the anchors of bitmap-free spans are probed, walking outward
//! from the cheapest x. Occupied stretches are skipped wholesale and both
//! walk orders are monotone in displacement, so the first-beaten candidate
//! ends its row and the first-beaten row ends the search — while the result
//! (position *and* tie-break) stays bit-identical to the reference.

use rlleg_design::{CellId, Design, HotCells, RailParity};
use rlleg_geom::{Dbu, Point};

use crate::pixel::{GridPos, GridWindow, PixelGrid};

/// Tuning knobs for [`find_position`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchConfig {
    /// Hard cap on the pixel-Manhattan search radius; `None` derives the
    /// bound from the displacement limit and cell size (paper behaviour),
    /// falling back to the whole core when unconstrained.
    pub max_radius: Option<i64>,
    /// Per-cell displacement limit in dbu; candidates farther from the
    /// cell's global-placement position are skipped. Defaults to the
    /// design's `max_displacement`.
    pub displacement_limit: Option<Dbu>,
    /// When set, only positions whose full footprint lies inside the window
    /// are considered (parallel per-Gcell legalization).
    pub window: Option<GridWindow>,
}

/// The immutable shape parameters the diamond search reads per cell,
/// gathered up front so the inner loops never touch the `Cell` struct.
#[derive(Debug, Clone, Copy)]
struct CellShape {
    w_sites: i64,
    h_rows: i64,
    rail_constrained: bool,
    rail: RailParity,
}

impl CellShape {
    fn of(design: &Design, cell: CellId) -> Self {
        let c = design.cell(cell);
        Self {
            w_sites: c.width / design.tech.site_width,
            h_rows: i64::from(c.height_rows),
            rail_constrained: c.is_rail_constrained(),
            rail: c.rail,
        }
    }

    fn of_hot(hot: &HotCells, cell: CellId) -> Self {
        Self {
            w_sites: hot.w_sites(cell),
            h_rows: hot.h_rows(cell),
            rail_constrained: hot.is_rail_constrained(cell),
            rail: hot.rail(cell),
        }
    }
}

/// Pixel-Manhattan search bound shared by both search implementations.
fn search_bound(grid: &PixelGrid, cfg: SearchConfig, design: &Design, shape: CellShape) -> i64 {
    let sw = design.tech.site_width;
    let CellShape {
        w_sites, h_rows, ..
    } = shape;
    let limit = cfg.displacement_limit.or(design.max_displacement);
    cfg.max_radius.unwrap_or_else(|| {
        let from_limit = limit.map(|l| l / sw + 2);
        let whole_core = grid.sites_x() + grid.rows();
        // "Proportional to the maximum displacement constraint and cell
        // size": the cell-size term lets big cells look a little farther
        // than the displacement budget alone would.
        from_limit
            .map(|b| (b + 2 * (w_sites + h_rows)).min(whole_core))
            .unwrap_or(whole_core)
    })
}

/// The best legal position found for `cell` around `from` (its
/// global-placement position), with its physical displacement in dbu, or
/// `None` when the search space holds no legal pixel.
///
/// On a grid [`load`](PixelGrid::load)ed with one window, `cfg.window`
/// must lie inside that window.
pub fn find_position(
    grid: &PixelGrid,
    design: &Design,
    cell: CellId,
    from: Point,
    cfg: SearchConfig,
) -> Option<(GridPos, Dbu)> {
    find_position_shaped(grid, design, cell, CellShape::of(design, cell), from, cfg)
}

/// [`find_position`] with the cell's shape read from a [`HotCells`]
/// snapshot instead of the `Cell` struct — the hot path for big runs.
/// Bit-identical to `find_position` for a snapshot of the same design.
pub fn find_position_hot(
    grid: &PixelGrid,
    hot: &HotCells,
    design: &Design,
    cell: CellId,
    from: Point,
    cfg: SearchConfig,
) -> Option<(GridPos, Dbu)> {
    find_position_shaped(grid, design, cell, CellShape::of_hot(hot, cell), from, cfg)
}

fn find_position_shaped(
    grid: &PixelGrid,
    design: &Design,
    cell: CellId,
    shape: CellShape,
    from: Point,
    cfg: SearchConfig,
) -> Option<(GridPos, Dbu)> {
    let sw = design.tech.site_width;
    let rh = design.tech.row_height;
    let CellShape {
        w_sites, h_rows, ..
    } = shape;
    let limit = cfg.displacement_limit.or(design.max_displacement);
    let bound = search_bound(grid, cfg, design, shape);

    // Diamond centre, clamped into the representable placement range.
    let raw = GridPos {
        site: design.site_of(from.x),
        row: design.row_of(from.y),
    };
    let site0 = raw.site.clamp(0, (grid.sites_x() - w_sites).max(0));
    let row0 = raw.row.clamp(0, (grid.rows() - h_rows).max(0));

    let x0 = design.core.lo.x;
    let y0 = design.core.lo.y;

    // Anchor ranges: grid, optional window, and the diamond's row extent.
    let (win_lo_s, win_lo_r, win_hi_s, win_hi_r) = match cfg.window {
        Some(w) => (w.lo_site, w.lo_row, w.hi_site, w.hi_row),
        None => (0, 0, grid.sites_x(), grid.rows()),
    };
    let row_lo = win_lo_r.max(0).max(row0 - bound);
    let row_hi = (win_hi_r - h_rows)
        .min(grid.rows() - h_rows)
        .min(row0 + bound);
    let site_lo = win_lo_s.max(0);
    let site_hi = (win_hi_s - w_sites).min(grid.sites_x() - w_sites);

    let mut best: Option<(GridPos, Dbu)> = None;
    let mut scanned = 0u64;
    let mut spans = 0u64;
    let mut window_pixels = 0u64;

    if row_lo <= row_hi && site_lo <= site_hi && w_sites > 0 && h_rows > 0 {
        // Rows in nondecreasing vertical cost: |y(row) - from.y| is V-shaped
        // in the row index, so a two-pointer walk outward from its integer
        // argmin (clamped into range) visits rows cheapest-first.
        let q = (from.y - y0).div_euclid(rh);
        let row_star = if (y0 + (q + 1) * rh - from.y).abs() < (y0 + q * rh - from.y).abs() {
            q + 1
        } else {
            q
        };
        let row_c = row_star.clamp(row_lo, row_hi);
        // Same idea for the in-row anchor walk.
        let qx = (from.x - x0).div_euclid(sw);
        let site_star = if (x0 + (qx + 1) * sw - from.x).abs() < (x0 + qx * sw - from.x).abs() {
            qx + 1
        } else {
            qx
        };

        let mut down = row_c;
        let mut up = row_c + 1;
        loop {
            // Next row, cheapest vertical cost first (lower row on ties).
            let dy_down = (down >= row_lo).then(|| (y0 + down * rh - from.y).abs());
            let dy_up = (up <= row_hi).then(|| (y0 + up * rh - from.y).abs());
            let (row, dy_cost) = match (dy_down, dy_up) {
                (None, None) => break,
                (Some(a), None) => {
                    let r = down;
                    down -= 1;
                    (r, a)
                }
                (None, Some(b)) => {
                    let r = up;
                    up += 1;
                    (r, b)
                }
                (Some(a), Some(b)) => {
                    if a <= b {
                        let r = down;
                        down -= 1;
                        (r, a)
                    } else {
                        let r = up;
                        up += 1;
                        (r, b)
                    }
                }
            };
            // Monotone orders make these cuts exact, not heuristic.
            if limit.is_some_and(|l| dy_cost > l) {
                break;
            }
            if let Some((_, bd)) = best {
                if dy_cost > bd {
                    break;
                }
            }
            if shape.rail_constrained && !shape.rail.allows_row(row) {
                continue;
            }
            // Diamond width at this row plus the displacement-limit budget.
            let wx = bound - (row - row0).abs();
            if wx < 0 {
                continue;
            }
            let mut a_lo = site_lo.max(site0 - wx);
            let mut a_hi = site_hi.min(site0 + wx);
            if let Some(l) = limit {
                let bx = l - dy_cost;
                a_lo = a_lo.max((from.x - bx - x0 + sw - 1).div_euclid(sw));
                a_hi = a_hi.min((from.x + bx - x0).div_euclid(sw));
            }
            if a_lo > a_hi {
                continue;
            }
            window_pixels += (a_hi - a_lo + 1) as u64;
            let site_c = site_star.clamp(a_lo, a_hi);
            grid.for_each_free_span(row, h_rows, a_lo, a_hi + w_sites, |s_lo, s_hi| {
                let c_lo = s_lo.max(a_lo);
                let c_hi = (s_hi - w_sites).min(a_hi);
                if c_lo > c_hi {
                    return;
                }
                spans += 1;
                // Anchors outward from the cheapest x (lower site on ties):
                // horizontal cost is monotone along the walk, so the first
                // candidate the incumbent beats ends the span.
                let start = site_c.clamp(c_lo, c_hi);
                let mut left = start;
                let mut right = start + 1;
                loop {
                    let dl = (left >= c_lo).then(|| (x0 + left * sw - from.x).abs());
                    let dr = (right <= c_hi).then(|| (x0 + right * sw - from.x).abs());
                    let (site, dx_cost) = match (dl, dr) {
                        (None, None) => break,
                        (Some(a), None) => {
                            let s = left;
                            left -= 1;
                            (s, a)
                        }
                        (None, Some(b)) => {
                            let s = right;
                            right += 1;
                            (s, b)
                        }
                        (Some(a), Some(b)) => {
                            if a <= b {
                                let s = left;
                                left -= 1;
                                (s, a)
                            } else {
                                let s = right;
                                right += 1;
                                (s, b)
                            }
                        }
                    };
                    let disp = dx_cost + dy_cost;
                    if limit.is_some_and(|l| disp > l) {
                        break;
                    }
                    if let Some((bpos, bdisp)) = best {
                        if disp > bdisp {
                            break;
                        }
                        if disp == bdisp && (row, site) >= (bpos.row, bpos.site) {
                            continue;
                        }
                    }
                    scanned += 1;
                    let pos = GridPos { site, row };
                    if grid.check_place(design, cell, pos).is_ok() {
                        best = Some((pos, disp));
                    }
                }
            });
        }
    }
    if !telemetry::disabled() {
        telemetry::counter("legalize.search.pixels_scanned").add(scanned);
        telemetry::counter("legalize.search.calls").inc();
        telemetry::counter("legalize.search.spans").add(spans);
        telemetry::counter("legalize.search.span_skipped_pixels")
            .add(window_pixels.saturating_sub(scanned));
    }
    best
}

/// The pre-bitmap ring-enumeration search, preserved verbatim (on top of
/// [`PixelGrid::check_place_reference`]) as the equivalence oracle for
/// [`find_position`] and the honest "before" baseline in the bench harness.
/// Returns the same position and displacement as `find_position` for every
/// input.
pub fn find_position_reference(
    grid: &PixelGrid,
    design: &Design,
    cell: CellId,
    from: Point,
    cfg: SearchConfig,
) -> Option<(GridPos, Dbu)> {
    let sw = design.tech.site_width;
    let rh = design.tech.row_height;
    let shape = CellShape::of(design, cell);
    let CellShape {
        w_sites, h_rows, ..
    } = shape;

    let limit = cfg.displacement_limit.or(design.max_displacement);
    let bound = search_bound(grid, cfg, design, shape);

    // Clamp the ring centre into the representable placement range.
    let raw = grid.to_grid(design, from);
    let site0 = raw.site.clamp(0, (grid.sites_x() - w_sites).max(0));
    let row0 = raw.row.clamp(0, (grid.rows() - h_rows).max(0));
    let centre_dbu = grid.to_dbu(
        design,
        GridPos {
            site: site0,
            row: row0,
        },
    );
    let clamp_slack = centre_dbu.manhattan(Point::new(
        design.core.lo.x + raw.site * sw,
        design.core.lo.y + raw.row * rh,
    ));

    let mut best: Option<(GridPos, Dbu)> = None;
    let try_candidate = |pos: GridPos, best: &mut Option<(GridPos, Dbu)>| {
        if let Some(w) = cfg.window {
            if !w.contains_footprint(pos, w_sites, h_rows) {
                return;
            }
        }
        let p = grid.to_dbu(design, pos);
        let disp = p.manhattan(from);
        if let Some(l) = limit {
            if disp > l {
                return;
            }
        }
        if let Some((bpos, bdisp)) = *best {
            // Deterministic tie-break: lower row, then lower site.
            if disp > bdisp || (disp == bdisp && (pos.row, pos.site) >= (bpos.row, bpos.site)) {
                return;
            }
        }
        if grid.check_place_reference(design, cell, pos).is_ok() {
            *best = Some((pos, disp));
        }
    };

    for r in 0..=bound {
        if let Some((_, bdisp)) = best {
            // No candidate on ring r (or beyond) can be closer than
            // (r-2)·site_width minus the clamping slack.
            if (r - 2).max(0) * sw - clamp_slack > bdisp {
                break;
            }
        }
        if r == 0 {
            try_candidate(
                GridPos {
                    site: site0,
                    row: row0,
                },
                &mut best,
            );
            continue;
        }
        for dy in -r..=r {
            let row = row0 + dy;
            if row < 0 || row + h_rows > grid.rows() {
                continue;
            }
            let dx_abs = r - dy.abs();
            let candidates = if dx_abs == 0 {
                [0, 0]
            } else {
                [dx_abs, -dx_abs]
            };
            for (i, &dx) in candidates.iter().enumerate() {
                if dx_abs == 0 && i == 1 {
                    break;
                }
                let site = site0 + dx;
                if site < 0 || site + w_sites > grid.sites_x() {
                    continue;
                }
                try_candidate(GridPos { site, row }, &mut best);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, Technology};

    fn design_with(
        cells: &[(i64, u8, i64, i64)],
        fixed: &[(i64, u8, i64, i64)],
    ) -> (Design, PixelGrid) {
        let mut b = DesignBuilder::new("s", Technology::contest(), 40, 10);
        for (i, &(w, h, x, y)) in cells.iter().enumerate() {
            b.add_cell(format!("u{i}"), w, h, Point::new(x, y));
        }
        for (i, &(w, h, x, y)) in fixed.iter().enumerate() {
            b.add_fixed_cell(format!("m{i}"), w, h, Point::new(x, y));
        }
        let d = b.build();
        let g = PixelGrid::new(&d);
        (d, g)
    }

    #[test]
    fn already_legal_position_is_zero_displacement() {
        let (d, g) = design_with(&[(2, 1, 800, 2_000)], &[]);
        let (pos, disp) = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(800, 2_000),
            SearchConfig::default(),
        )
        .expect("found");
        assert_eq!(pos, GridPos { site: 4, row: 1 });
        assert_eq!(disp, 0);
    }

    #[test]
    fn off_grid_start_snaps_to_nearest() {
        // gp position off-grid by (90, 900): nearest legal pixel is the
        // snapped-down one at distance 990.
        let (d, g) = design_with(&[(1, 1, 890, 2_900)], &[]);
        let (pos, disp) = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(890, 2_900),
            SearchConfig::default(),
        )
        .expect("found");
        assert_eq!(pos, GridPos { site: 4, row: 1 });
        assert_eq!(disp, 90 + 900);
    }

    #[test]
    fn prefers_cheap_horizontal_over_expensive_vertical() {
        // Start pixel blocked: one site sideways costs 200 dbu, one row up
        // costs 2000 dbu. The search must pick the sideways pixel even
        // though both are ring-1 candidates.
        let (d, mut g) = {
            let (d, g) = design_with(&[(1, 1, 800, 2_000), (1, 1, 800, 2_000)], &[]);
            (d, g)
        };
        g.place(&d, CellId(1), GridPos { site: 4, row: 1 });
        let (pos, disp) = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(800, 2_000),
            SearchConfig::default(),
        )
        .expect("found");
        assert_eq!(disp, 200);
        assert_eq!(pos.row, 1);
        assert!(pos.site == 3 || pos.site == 5);
    }

    #[test]
    fn blocked_neighbourhood_found_across_macro() {
        // A macro covers the whole left half except the far column.
        let (d, g) = design_with(&[(1, 1, 0, 0)], &[(20, 4, 0, 0), (20, 4, 0, 8_000)]);
        let (pos, _) = find_position(&g, &d, CellId(0), Point::new(0, 0), SearchConfig::default())
            .expect("must escape the macro");
        assert!(g.check_place(&d, CellId(0), pos).is_ok());
        // Position is outside both macros.
        assert!(pos.site >= 20 || (4..8).contains(&pos.row));
    }

    #[test]
    fn displacement_limit_causes_failure() {
        let (d, g) = design_with(&[(1, 1, 0, 0)], &[(20, 4, 0, 0), (20, 4, 0, 8_000)]);
        let r = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(0, 0),
            SearchConfig {
                displacement_limit: Some(1_000),
                ..SearchConfig::default()
            },
        );
        assert_eq!(r, None, "every free pixel is farther than 1000 dbu");
    }

    #[test]
    fn max_radius_caps_the_search() {
        let (d, g) = design_with(&[(1, 1, 0, 0)], &[(20, 4, 0, 0), (20, 4, 0, 8_000)]);
        let r = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(0, 0),
            SearchConfig {
                max_radius: Some(3),
                ..SearchConfig::default()
            },
        );
        assert_eq!(r, None);
    }

    #[test]
    fn start_outside_core_clamps() {
        let (d, g) = design_with(&[(2, 1, -5_000, -5_000)], &[]);
        let (pos, disp) = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(-5_000, -5_000),
            SearchConfig::default(),
        )
        .expect("clamped into the core");
        assert_eq!(pos, GridPos { site: 0, row: 0 });
        assert_eq!(disp, 10_000);
    }

    #[test]
    fn multi_row_cell_requires_all_rows_free() {
        let (d, mut g) = design_with(&[(2, 3, 800, 2_000), (1, 1, 0, 0)], &[]);
        // Block one pixel in the middle of the would-be footprint.
        g.place(&d, CellId(1), GridPos { site: 5, row: 2 });
        let (pos, disp) = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(800, 2_000),
            SearchConfig::default(),
        )
        .expect("found elsewhere");
        assert!(disp > 0);
        assert!(g.check_place(&d, CellId(0), pos).is_ok());
    }

    #[test]
    fn finds_true_minimum_not_first_hit() {
        // Ring-order would visit (site0, row0+1) [2000 dbu] before
        // (site0+5, row0) [1000 dbu] at ring 5; the incumbent logic must
        // keep searching horizontally.
        let (d, mut g) = design_with(&[(1, 1, 1_000, 2_000), (5, 1, 0, 0)], &[]);
        // Occupy sites 3..8? place blocker of width 5 covering sites 3..8 at row 1.
        g.place(&d, CellId(1), GridPos { site: 3, row: 1 });
        let (pos, disp) = find_position(
            &g,
            &d,
            CellId(0),
            Point::new(1_000, 2_000),
            SearchConfig::default(),
        )
        .expect("found");
        // Best is 3 sites left (site 2): 600 dbu, cheaper than any row move.
        assert_eq!(pos, GridPos { site: 2, row: 1 });
        assert_eq!(disp, 600);
    }

    #[test]
    fn window_restricts_candidates() {
        let (d, g) = design_with(&[(2, 1, 800, 2_000)], &[]);
        let win = GridWindow {
            lo_site: 10,
            lo_row: 3,
            hi_site: 20,
            hi_row: 8,
        };
        let cfg = SearchConfig {
            window: Some(win),
            ..SearchConfig::default()
        };
        let (pos, disp) = find_position(&g, &d, CellId(0), Point::new(800, 2_000), cfg)
            .expect("window holds free pixels");
        assert!(win.contains_footprint(pos, 2, 1));
        // Cheapest in-window anchor: site 10, row 3.
        assert_eq!(pos, GridPos { site: 10, row: 3 });
        assert_eq!(disp, (2_000 - 800) + (6_000 - 2_000));
        assert_eq!(
            find_position_reference(&g, &d, CellId(0), Point::new(800, 2_000), cfg),
            Some((pos, disp)),
            "reference honours the window identically"
        );
    }

    #[test]
    fn matches_reference_on_scattered_obstacles() {
        // Deterministic scatter of blockers and mixed-height cells, then
        // every movable cell's search must match the reference exactly.
        let mut cells: Vec<(i64, u8, i64, i64)> = Vec::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..25 {
            cells.push((
                1 + (next() % 4) as i64,
                1 + (next() % 3) as u8,
                (next() % 8_000) as i64,
                (next() % 20_000) as i64,
            ));
        }
        let (d, mut g) = design_with(&cells, &[(6, 2, 3_000, 8_000)]);
        // Pre-place every other cell to clutter the grid.
        for i in (0..25).step_by(2) {
            let id = CellId(i);
            if let Some((pos, _)) =
                find_position(&g, &d, id, d.cell(id).gp_pos, SearchConfig::default())
            {
                g.place(&d, id, pos);
            }
        }
        for i in (1..25).step_by(2) {
            let id = CellId(i);
            let from = d.cell(id).gp_pos;
            for cfg in [
                SearchConfig::default(),
                SearchConfig {
                    displacement_limit: Some(3_000),
                    ..SearchConfig::default()
                },
                SearchConfig {
                    max_radius: Some(6),
                    ..SearchConfig::default()
                },
            ] {
                assert_eq!(
                    find_position(&g, &d, id, from, cfg),
                    find_position_reference(&g, &d, id, from, cfg),
                    "cell {id} cfg {cfg:?}"
                );
            }
        }
    }
}
