//! The 13 per-cell features of Table I, with incremental updates.
//!
//! | # | Feature | Meaning |
//! |---|---------|---------|
//! | 0 | `X`     | x-coordinate of the cell |
//! | 1 | `Y`     | y-coordinate of the cell |
//! | 2 | `W`     | cell width |
//! | 3 | `H`     | cell height |
//! | 4 | `N`     | number of nets connected to the cell |
//! | 5 | `OV_c`  | number of cells overlapping the cell |
//! | 6 | `OD_c`  | avg. distance of the 2 nearest obstacles/boundaries |
//! | 7 | `CA_B`  | total movable-cell area in the cell's bin |
//! | 8 | `A_B`   | placeable area of the bin (minus macros) |
//! | 9 | `OV_B`  | number of overlapped cells in the bin |
//! | 10| `DE_B`  | bin density error `(CA_B − CA_avg)²` (Eq. 1) |
//! | 11| `NC_G`  | number of movable cells in the cell's Gcell |
//! | 12| `NLC_G` | number of already-legalized cells in that Gcell |
//!
//! The paper notes feature maintenance dominates runtime ("about 80 % of
//! the time spent on the feature extraction phase"); [`FeatureSpace`]
//! therefore updates everything incrementally when a cell moves instead of
//! recomputing the design. Feature 6 is kept as a per-cell column: it
//! depends only on the cell's own rectangle, the static obstacles and the
//! core, so it is computed once per movable cell at construction and again
//! only for a cell that moves. Building a state then costs no R-tree query at
//! all; each move costs four (old footprint, new footprint, obstacle
//! overlaps, and the moved cell's two nearest obstacles).

use rlleg_design::{CellId, Design};
use rlleg_geom::{rtree::RTree, Point, Rect};

use crate::gcell::{BinGrid, GcellGrid};

/// Number of features per cell (the paper's `F`).
pub const NUM_FEATURES: usize = 13;

/// Incrementally-maintained feature state for one design.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    bins: BinGrid,
    /// Area unit: one pixel (site width × row height) so squared terms stay
    /// in comfortable `f32` range.
    pixel_area: f64,
    // Static per cell. Width/height are SoA columns so features 2–3 of a
    // state matrix stream contiguously instead of striding over `Cell`s.
    net_count: Vec<f32>,
    width_dbu: Vec<f32>,
    height_dbu: Vec<f32>,
    gcell_of_cell: Vec<usize>,
    // Static per design.
    obstacles: RTree<u32>,
    // Feature 6 per movable cell; changes only when the cell itself moves.
    obstacle_dist: Vec<f32>,
    gcell_count: Vec<i32>,
    avg_bin_area: f64,
    bin_placeable: Vec<f64>,
    // Dynamic.
    movable_tree: RTree<u32>,
    overlap_count: Vec<i32>,
    bin_of_cell: Vec<usize>,
    bin_cell_area: Vec<f64>,
    bin_overlap_cells: Vec<i32>,
    gcell_legalized: Vec<i32>,
}

impl FeatureSpace {
    /// Builds the feature state for `design` at its current positions.
    ///
    /// `gcells` defines the Gcell features; bins target ~20 cells each
    /// (footnote 1 of the paper).
    pub fn new(design: &Design, gcells: &GcellGrid) -> Self {
        let bins = BinGrid::new(design, 20);
        let rh = design.tech.row_height;
        let pixel_area = (design.tech.site_width * rh) as f64;
        let n = design.num_cells();

        let net_count: Vec<f32> = design
            .cell_ids()
            .map(|id| design.nets_of(id).len() as f32)
            .collect();
        let width_dbu: Vec<f32> = design.cells.iter().map(|c| c.width as f32).collect();
        let height_dbu: Vec<f32> = design.cells.iter().map(|c| c.height(rh) as f32).collect();

        let mut gcell_of_cell = vec![usize::MAX; n];
        let mut gcell_count = vec![0i32; gcells.len()];
        for (g, count) in gcell_count.iter_mut().enumerate() {
            for &id in gcells.cells_of(g) {
                gcell_of_cell[id.index()] = g;
            }
            *count = gcells.cells_of(g).len() as i32;
        }

        let obstacles = RTree::bulk_load(
            design
                .fixed_ids()
                .map(|id| (design.cell(id).rect(rh), id.0))
                .collect(),
        );

        // Placeable area per bin: bin area minus macro overlap.
        let mut bin_placeable = Vec::with_capacity(bins.len());
        for b in 0..bins.len() {
            let bb = bins.bounds(b);
            let blocked: i64 = obstacles.query(&bb).map(|(r, _)| r.overlap_area(&bb)).sum();
            bin_placeable.push(((bb.area() - blocked).max(0)) as f64 / pixel_area);
        }

        let movable_tree = RTree::bulk_load(
            design
                .movable_ids()
                .map(|id| (design.cell(id).rect(rh), id.0))
                .collect(),
        );

        let mut bin_of_cell = vec![usize::MAX; n];
        let mut bin_cell_area = vec![0.0f64; bins.len()];
        let mut overlap_count = vec![0i32; n];
        let mut obstacle_dist = vec![0.0f32; n];
        for id in design.movable_ids() {
            let c = design.cell(id);
            let b = bins.bin_of(cell_center(c.pos, c.rect(rh)));
            bin_of_cell[id.index()] = b;
            bin_cell_area[b] += c.area(rh) as f64 / pixel_area;
            let r = c.rect(rh);
            let movable_overlaps = movable_tree.query(&r).filter(|(_, &v)| v != id.0).count();
            let fixed_overlaps = obstacles.count_overlapping(&r);
            overlap_count[id.index()] = (movable_overlaps + fixed_overlaps) as i32;
            obstacle_dist[id.index()] = obstacle_distance(&obstacles, design, r);
        }
        let mut bin_overlap_cells = vec![0i32; bins.len()];
        for id in design.movable_ids() {
            if overlap_count[id.index()] > 0 {
                bin_overlap_cells[bin_of_cell[id.index()]] += 1;
            }
        }
        let total_area: f64 = bin_cell_area.iter().sum();
        let avg_bin_area = total_area / bins.len() as f64;

        Self {
            bins,
            pixel_area,
            net_count,
            width_dbu,
            height_dbu,
            gcell_of_cell,
            obstacles,
            obstacle_dist,
            gcell_count,
            avg_bin_area,
            bin_placeable,
            movable_tree,
            overlap_count,
            bin_of_cell,
            bin_cell_area,
            bin_overlap_cells,
            gcell_legalized: vec![0; gcells.len()],
        }
    }

    /// The bin grid in use.
    pub fn bins(&self) -> &BinGrid {
        &self.bins
    }

    /// Current overlap count of `cell` (feature 5).
    pub fn overlap_count(&self, cell: CellId) -> i32 {
        self.overlap_count[cell.index()]
    }

    /// Number of legalized cells recorded for Gcell `g` (feature 12).
    pub fn legalized_in_gcell(&self, g: usize) -> i32 {
        self.gcell_legalized[g]
    }

    /// The 13 features of `cell` at the design's current state.
    pub fn features_of(&self, design: &Design, cell: CellId) -> [f32; NUM_FEATURES] {
        let c = design.cell(cell);
        let i = cell.index();
        let b = self.bin_of_cell[i];
        let g = self.gcell_of_cell[i];
        let ca = self.bin_cell_area[b];
        let de = (ca - self.avg_bin_area) * (ca - self.avg_bin_area);
        [
            c.pos.x as f32,
            c.pos.y as f32,
            self.width_dbu[i],
            self.height_dbu[i],
            self.net_count[i],
            self.overlap_count[i] as f32,
            self.obstacle_dist[i],
            ca as f32,
            self.bin_placeable[b] as f32,
            self.bin_overlap_cells[b] as f32,
            de as f32,
            self.gcell_count[g] as f32,
            self.gcell_legalized[g] as f32,
        ]
    }

    /// Row-major `cells.len() × 13` state matrix (unnormalized; the RL
    /// framework applies feature-wise L2 normalization).
    pub fn state(&self, design: &Design, cells: &[CellId]) -> Vec<f32> {
        let mut out = Vec::new();
        self.state_into(design, cells, &mut out);
        out
    }

    /// [`state`](Self::state) written into `out`, reusing its allocation.
    ///
    /// The trainer recomputes same-shaped states every step of a
    /// subepisode; routing those through one scratch buffer removes a
    /// `cells.len() × 13` allocation per step.
    pub fn state_into(&self, design: &Design, cells: &[CellId], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(cells.len() * NUM_FEATURES);
        for &c in cells {
            out.extend_from_slice(&self.features_of(design, c));
        }
    }

    /// Updates all dynamic features after `cell` moved from `old_pos` to
    /// its current `design` position. Call *after* mutating the design.
    pub fn on_cell_moved(&mut self, design: &Design, cell: CellId, old_pos: Point) {
        if !telemetry::disabled() {
            // Old-footprint query, new-footprint query, obstacle overlap
            // count; `obstacle_distance` counts its own query.
            telemetry::counter("legalize.features.rtree_queries").add(3);
        }
        let rh = design.tech.row_height;
        let c = design.cell(cell);
        if c.pos == old_pos {
            return;
        }
        let i = cell.index();
        let old_rect = c.rect_at(old_pos, rh);
        let new_rect = c.rect(rh);

        // 1. Retract overlap contributions at the old position.
        let partners_old: Vec<u32> = self
            .movable_tree
            .query(&old_rect)
            .filter(|(_, &v)| v != cell.0)
            .map(|(_, &v)| v)
            .collect();
        for p in partners_old {
            self.add_overlap(CellId(p), -1);
        }
        let removed = self.movable_tree.remove_if(&old_rect, |&v| v == cell.0);
        debug_assert!(removed.is_some(), "cell {cell} missing from movable tree");

        // 2. Move the cell between bins.
        let old_bin = self.bin_of_cell[i];
        let new_bin = self.bins.bin_of(cell_center(c.pos, new_rect));
        let area = c.area(rh) as f64 / self.pixel_area;
        if self.overlap_count[i] > 0 {
            self.bin_overlap_cells[old_bin] -= 1;
        }
        self.bin_cell_area[old_bin] -= area;
        self.bin_cell_area[new_bin] += area;
        self.bin_of_cell[i] = new_bin;

        // 3. Add overlap contributions at the new position.
        let partners_new: Vec<u32> = self
            .movable_tree
            .query(&new_rect)
            .filter(|(_, &v)| v != cell.0)
            .map(|(_, &v)| v)
            .collect();
        for &p in &partners_new {
            self.add_overlap(CellId(p), 1);
        }
        let own = partners_new.len() as i32 + self.obstacles.count_overlapping(&new_rect) as i32;
        self.overlap_count[i] = own;
        if own > 0 {
            self.bin_overlap_cells[new_bin] += 1;
        }
        self.movable_tree.insert(new_rect, cell.0);
        self.obstacle_dist[i] = obstacle_distance(&self.obstacles, design, new_rect);
    }

    /// Records that `cell` (which just moved from `old_pos`) is now
    /// legalized: updates movement features and the Gcell legalized count.
    pub fn on_cell_legalized(&mut self, design: &Design, cell: CellId, old_pos: Point) {
        self.on_cell_moved(design, cell, old_pos);
        self.gcell_legalized[self.gcell_of_cell[cell.index()]] += 1;
    }

    fn add_overlap(&mut self, cell: CellId, delta: i32) {
        let i = cell.index();
        let old = self.overlap_count[i];
        let new = old + delta;
        debug_assert!(new >= 0, "negative overlap count for {cell}");
        self.overlap_count[i] = new;
        let b = self.bin_of_cell[i];
        if old <= 0 && new > 0 {
            self.bin_overlap_cells[b] += 1;
        } else if old > 0 && new <= 0 {
            self.bin_overlap_cells[b] -= 1;
        }
    }
}

/// Average Manhattan distance of the two nearest obstacles or design
/// boundaries from the centre of `rect` (feature 6, `OD`).
fn obstacle_distance(obstacles: &RTree<u32>, design: &Design, rect: Rect) -> f32 {
    if !telemetry::disabled() {
        telemetry::counter("legalize.features.rtree_queries").inc();
    }
    let centre = rect.center();
    let mut dists: Vec<i64> = obstacles.nearest(centre, 2).map(|(_, _, d)| d).collect();
    dists.push(centre.x - design.core.lo.x);
    dists.push(design.core.hi.x - centre.x);
    dists.push(centre.y - design.core.lo.y);
    dists.push(design.core.hi.y - centre.y);
    dists.sort_unstable();
    (dists[0] + dists[1]) as f32 / 2.0
}

/// Bin membership is decided by the cell centre.
fn cell_center(_pos: Point, rect: Rect) -> Point {
    rect.center()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcell::GcellGrid;
    use rlleg_design::{DesignBuilder, Technology};

    fn design() -> Design {
        let mut b = DesignBuilder::new("f", Technology::contest(), 50, 20);
        // Two overlapping cells and one clean one.
        let a = b.add_cell("a", 2, 1, Point::new(1_000, 0));
        let c = b.add_cell("c", 2, 1, Point::new(1_100, 0));
        b.add_cell("d", 1, 1, Point::new(8_000, 30_000));
        b.add_fixed_cell("m", 4, 4, Point::new(4_000, 10_000));
        b.add_net("n0", vec![(a, 0, 0), (c, 0, 0)]);
        b.add_net("n1", vec![(a, 0, 0)]);
        b.build()
    }

    fn fresh(d: &Design) -> FeatureSpace {
        FeatureSpace::new(d, &GcellGrid::new(d, 2, 2))
    }

    #[test]
    fn static_features() {
        let d = design();
        let fs = fresh(&d);
        let fa = fs.features_of(&d, CellId(0));
        assert_eq!(fa[0], 1_000.0);
        assert_eq!(fa[1], 0.0);
        assert_eq!(fa[2], 400.0);
        assert_eq!(fa[3], 2_000.0);
        assert_eq!(fa[4], 2.0, "two nets on cell a");
        let fd = fs.features_of(&d, CellId(2));
        assert_eq!(fd[4], 0.0, "no nets on cell d");
    }

    #[test]
    fn overlap_counts() {
        let d = design();
        let fs = fresh(&d);
        assert_eq!(fs.overlap_count(CellId(0)), 1);
        assert_eq!(fs.overlap_count(CellId(1)), 1);
        assert_eq!(fs.overlap_count(CellId(2)), 0);
    }

    #[test]
    fn overlap_with_macro_counts() {
        let mut b = DesignBuilder::new("f2", Technology::contest(), 50, 20);
        b.add_cell("a", 2, 1, Point::new(4_100, 10_100));
        b.add_fixed_cell("m", 4, 4, Point::new(4_000, 10_000));
        let d = b.build();
        let fs = fresh(&d);
        assert_eq!(fs.overlap_count(CellId(0)), 1, "overlaps the macro");
    }

    #[test]
    fn incremental_updates_match_fresh_rebuild() {
        let mut d = design();
        let g = GcellGrid::new(&d, 2, 2);
        let mut fs = FeatureSpace::new(&d, &g);
        // Move cell c away from the overlap, far into another bin.
        let old = d.cell(CellId(1)).pos;
        d.cell_mut(CellId(1)).pos = Point::new(8_000, 36_000);
        fs.on_cell_moved(&d, CellId(1), old);
        let rebuilt = FeatureSpace::new(&d, &g);
        for id in d.movable_ids() {
            let a = fs.features_of(&d, id);
            let b = rebuilt.features_of(&d, id);
            for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-3 * (1.0 + y.abs()),
                    "cell {id} feature {k}: incremental {x} vs fresh {y}"
                );
            }
        }
    }

    #[test]
    fn many_moves_stay_consistent() {
        let mut b = DesignBuilder::new("mm", Technology::contest(), 60, 30);
        for i in 0..40 {
            let x = (i as i64 * 613) % 10_000;
            let y = (i as i64 * 3_571) % 50_000;
            b.add_cell(
                format!("u{i}"),
                1 + i as i64 % 3,
                1 + (i as u8 % 2),
                Point::new(x, y),
            );
        }
        let mut d = b.build();
        let g = GcellGrid::new(&d, 2, 2);
        let mut fs = FeatureSpace::new(&d, &g);
        for i in 0..40 {
            let id = CellId(i as u32);
            let old = d.cell(id).pos;
            let nx = (i as i64 * 1_009) % 9_000;
            let ny = (i as i64 * 7_013) % 48_000;
            d.cell_mut(id).pos = Point::new(nx, ny);
            fs.on_cell_moved(&d, id, old);
        }
        let rebuilt = FeatureSpace::new(&d, &g);
        for id in d.movable_ids() {
            let a = fs.features_of(&d, id);
            let b2 = rebuilt.features_of(&d, id);
            for (k, (x, y)) in a.iter().zip(b2.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-3 * (1.0 + y.abs()),
                    "cell {id} feature {k}: incremental {x} vs fresh {y}"
                );
            }
        }
    }

    #[test]
    fn legalized_counter() {
        let mut d = design();
        let g = GcellGrid::new(&d, 1, 1);
        let mut fs = FeatureSpace::new(&d, &g);
        assert_eq!(fs.legalized_in_gcell(0), 0);
        let old = d.cell(CellId(0)).pos;
        d.cell_mut(CellId(0)).pos = Point::new(1_000, 2_000);
        d.cell_mut(CellId(0)).legalized = true;
        fs.on_cell_legalized(&d, CellId(0), old);
        assert_eq!(fs.legalized_in_gcell(0), 1);
        let f = fs.features_of(&d, CellId(1));
        assert_eq!(f[12], 1.0, "NLC visible to other cells in the gcell");
    }

    #[test]
    fn obstacle_distance_uses_two_nearest() {
        let d = design();
        let fs = fresh(&d);
        // Cell a at (1000,0): boundary distances from centre (1200, 1000):
        // left 1200, right 8800, bottom 1000, top 39000; macro at
        // (4000..4800, 10000..18000) is 2800+9000=11800 away.
        // Two nearest: 1000 (bottom), 1200 (left) => avg 1100.
        let f = fs.features_of(&d, CellId(0));
        assert_eq!(f[6], 1_100.0);
    }

    #[test]
    fn cached_obstacle_distance_equals_a_fresh_build_bit_for_bit() {
        let mut b = DesignBuilder::new("od", Technology::contest(), 60, 24);
        b.add_fixed_cell("m0", 4, 4, Point::new(2_000, 6_000));
        b.add_fixed_cell("m1", 6, 2, Point::new(7_000, 20_000));
        b.add_fixed_cell("m2", 3, 4, Point::new(4_200, 30_000));
        b.add_fixed_cell("m3", 5, 3, Point::new(9_600, 2_000));
        for i in 0..36i64 {
            b.add_cell(
                format!("u{i}"),
                1 + i % 3,
                1 + (i % 4 == 0) as u8,
                Point::new((i * 337) % 11_000, (i * 2_711) % 44_000),
            );
        }
        let mut d = b.build();
        let g = GcellGrid::new(&d, 2, 2);
        let mut fs = FeatureSpace::new(&d, &g);
        let mut lg = crate::Legalizer::new(&d);
        let movable: Vec<CellId> = d.movable_ids().collect();
        // Raw moves first (as a placer would make), then legalize every
        // cell in a scrambled order (as the environment does).
        for &id in movable.iter().step_by(5) {
            let old = d.cell(id).pos;
            d.cell_mut(id).pos = Point::new(old.x / 2 + 400, old.y / 3 + 1_000);
            fs.on_cell_moved(&d, id, old);
        }
        for k in 0..movable.len() {
            let id = movable[(k * 7) % movable.len()];
            let old = d.cell(id).pos;
            if lg.legalize_cell(&mut d, id).is_ok() {
                fs.on_cell_legalized(&d, id, old);
            }
        }
        assert!(d.movable_ids().any(|id| d.cell(id).legalized));
        let fresh = FeatureSpace::new(&d, &g);
        for id in d.movable_ids() {
            let cached = fs.features_of(&d, id)[6];
            let rebuilt = fresh.features_of(&d, id)[6];
            assert_eq!(
                cached.to_bits(),
                rebuilt.to_bits(),
                "cell {id}: cached OD {cached} vs fresh {rebuilt}"
            );
        }
    }

    #[test]
    fn state_matrix_shape() {
        let d = design();
        let fs = fresh(&d);
        let cells: Vec<CellId> = d.movable_ids().collect();
        let s = fs.state(&d, &cells);
        assert_eq!(s.len(), cells.len() * NUM_FEATURES);
    }
}
