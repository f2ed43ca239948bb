//! The pixel grid: per-site/per-row occupancy, fence maps, and the
//! edge-spacing row index.
//!
//! The pixel-wise search algorithm (Sec. II-B) "divides the entire design
//! into pixels of minimum width and height, i.e., in the unit of placement
//! site and spacing of power rails". [`PixelGrid`] is that division plus
//! everything needed to answer "can this cell go here?" in `O(cell pixels)`.
//!
//! On top of the per-pixel occupant array the grid keeps per-row `u64`
//! occupancy bitmaps (LSB = lowest site index, padding bits beyond the core
//! read as occupied). A `w_sites × h_rows` candidate window is tested by
//! OR-ing the row words and masking, and
//! [`for_each_free_span`](PixelGrid::for_each_free_span) enumerates maximal
//! free runs with `trailing_zeros`, so searches skip whole blocked
//! stretches instead of probing pixel-by-pixel (see DESIGN.md §9).
//!
//! A grid stores either the whole die or one Gcell window of it
//! ([`PixelGrid::load`]); both answer in full-die coordinates, so the
//! parallel per-Gcell solve runs the very same code as the full grid.

use std::collections::BTreeMap;

use rlleg_design::{CellId, Design, RegionId};
use rlleg_geom::{Dbu, Point, Rect};

/// Sentinel for an unoccupied pixel.
const FREE: u32 = u32::MAX;
/// Sentinel occupant for fixed-cell / blocked pixels.
pub(crate) const BLOCKED: u32 = u32::MAX - 1;
/// Sentinel for "no fence".
const NO_FENCE: u16 = u16::MAX;

/// A legal-position candidate in grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridPos {
    /// Site index (x).
    pub site: i64,
    /// Row index (y).
    pub row: i64,
}

/// A half-open rectangular region of the grid, `[lo_site, hi_site) ×
/// [lo_row, hi_row)`, used to restrict searches to a Gcell-local window
/// during parallel legalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GridWindow {
    /// First site (inclusive).
    pub lo_site: i64,
    /// First row (inclusive).
    pub lo_row: i64,
    /// Last site (exclusive).
    pub hi_site: i64,
    /// Last row (exclusive).
    pub hi_row: i64,
}

impl GridWindow {
    /// The window covering the whole die of `grid`.
    pub fn full(grid: &PixelGrid) -> Self {
        Self {
            lo_site: 0,
            lo_row: 0,
            hi_site: grid.sites_x(),
            hi_row: grid.rows(),
        }
    }

    /// `true` when the window holds no pixels.
    pub fn is_degenerate(&self) -> bool {
        self.lo_site >= self.hi_site || self.lo_row >= self.hi_row
    }

    /// `true` when a `w_sites × h_rows` footprint anchored at `pos` lies
    /// entirely inside the window.
    pub fn contains_footprint(&self, pos: GridPos, w_sites: i64, h_rows: i64) -> bool {
        pos.site >= self.lo_site
            && pos.row >= self.lo_row
            && pos.site + w_sites <= self.hi_site
            && pos.row + h_rows <= self.hi_row
    }
}

/// Span-walk core: enumerates maximal zero runs within `[lo, hi)` over the
/// per-word row-band OR supplied by `band_word` (indexed by the absolute
/// word column).
fn walk_free_spans(
    lo: i64,
    hi: i64,
    mut band_word: impl FnMut(usize) -> u64,
    mut f: impl FnMut(i64, i64),
) {
    let lo_w = lo as usize / 64;
    let hi_w = ((hi - 1) as usize / 64) + 1;
    // Start of the currently open free run, or negative when closed.
    let mut open: i64 = -1;
    for wi in lo_w..hi_w {
        let base = wi as i64 * 64;
        let mut word = band_word(wi);
        // Mask sites outside [lo, hi) as occupied.
        if base < lo {
            word |= (1u64 << (lo - base)) - 1;
        }
        let k = hi - base;
        if k < 64 {
            word |= !0u64 << k;
        }
        let mut bit: i64 = 0;
        while bit < 64 {
            let rest = word >> bit;
            if open < 0 {
                // Skip the occupied run (trailing ones).
                let ones = (!rest).trailing_zeros() as i64;
                if ones == 0 {
                    open = base + bit;
                    continue;
                }
                bit += ones;
            } else {
                // Extend the free run (trailing zeros); a set bit ends it.
                let zeros = rest.trailing_zeros() as i64;
                if zeros == 0 {
                    f(open, base + bit);
                    open = -1;
                    continue;
                }
                bit += zeros;
            }
        }
    }
    if open >= 0 {
        f(open, hi);
    }
}

/// Why a candidate position is not legal. Returned by
/// [`PixelGrid::check_place`] so search heuristics can distinguish hard
/// failures from merely occupied pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceRejection {
    /// Cell would extend beyond the core.
    OutOfBounds,
    /// Even-height cell on the wrong rail parity.
    RailParity,
    /// At least one pixel is occupied by another cell or a macro.
    Occupied,
    /// Fence-region rule violated.
    Fence,
    /// Edge-spacing rule violated against a horizontal neighbour.
    EdgeSpacing,
}

/// Occupancy grid over the design core at site × row granularity.
///
/// Fixed cells are rasterized as blocked pixels at construction; movable cells
/// occupy pixels only once [`place`](PixelGrid::place)d. A per-row interval
/// index tracks placed cells for the edge-spacing rule, and per-row `u64`
/// bitmaps mirror the occupant array for word-level free-space queries.
///
/// A grid stores the pixels of its [`window`](Self::window): the whole die
/// for a grid built by [`new`](Self::new), one Gcell for a grid
/// [`load`](Self::load)ed from another. Positions are always full-die
/// site/row indices and [`sites_x`](Self::sites_x)/[`rows`](Self::rows)
/// report the die, so search bounds come out the same on either. Probing a
/// footprint that leaves the window is a contract violation (debug
/// assertion).
#[derive(Debug, Clone, Default)]
pub struct PixelGrid {
    /// Die dimensions.
    sites_x: i64,
    rows: i64,
    /// The stored pixels: the whole die, or one loaded window.
    win: GridWindow,
    /// Stored word columns `[w_lo, w_hi)` of every bitmap row.
    w_lo: usize,
    w_hi: usize,
    /// Occupant per stored pixel, row-major over the window.
    occ: Vec<u32>,
    /// Fence id when a pixel is fully inside that region. Like
    /// `fence_touched`, empty when the design has no fence regions.
    fence_inside: Vec<u16>,
    /// `true` when a pixel overlaps any fence region at all.
    fence_touched: Vec<bool>,
    /// Per stored row: `lo.x → (hi.x, cell)` of placed cells, for edge
    /// spacing.
    row_cells: Vec<BTreeMap<Dbu, (Dbu, u32)>>,
    /// Occupancy bitmap (placed cells and blocked pixels); bit = 1 means
    /// occupied. Padding bits beyond `sites_x` are set.
    occ_bits: Vec<u64>,
    /// Blocked-only bitmap (fixed cells / padding); never changes after
    /// construction. Empty on a loaded window.
    fixed_bits: Vec<u64>,
    /// Whether the design has fence regions; when `false`, a clean word
    /// test alone proves a window passes occupancy *and* fence rules.
    has_fences: bool,
}

impl PixelGrid {
    /// Builds the grid for `design`, rasterizing fixed cells and fences.
    pub fn new(design: &Design) -> Self {
        let sites_x = design.num_sites_x();
        let rows = design.num_rows();
        let n = (sites_x * rows) as usize;
        let has_fences = !design.regions.is_empty();
        let fence_n = if has_fences { n } else { 0 };
        let mut grid = Self {
            sites_x,
            rows,
            win: GridWindow {
                lo_site: 0,
                lo_row: 0,
                hi_site: sites_x,
                hi_row: rows,
            },
            w_lo: 0,
            w_hi: (sites_x.max(0) as usize).div_ceil(64),
            occ: vec![FREE; n],
            fence_inside: vec![NO_FENCE; fence_n],
            fence_touched: vec![false; fence_n],
            row_cells: vec![BTreeMap::new(); rows as usize],
            occ_bits: Vec::new(),
            fixed_bits: Vec::new(),
            has_fences,
        };
        let rh = design.tech.row_height;
        let sw = design.tech.site_width;
        for id in design.fixed_ids() {
            let r = design.cell(id).rect(rh);
            grid.for_pixels_overlapping(design, &r, |g, idx| g.occ[idx] = BLOCKED);
        }
        for (ri, region) in design.regions.iter().enumerate() {
            for rect in &region.rects {
                grid.for_pixels_overlapping(design, rect, |g, idx| g.fence_touched[idx] = true);
                // Fully-inside pixels: snap the rect inward to pixel
                // boundaries.
                let lo_s = (rect.lo.x - design.core.lo.x).div_euclid(sw)
                    + i64::from((rect.lo.x - design.core.lo.x).rem_euclid(sw) != 0);
                let lo_r = (rect.lo.y - design.core.lo.y).div_euclid(rh)
                    + i64::from((rect.lo.y - design.core.lo.y).rem_euclid(rh) != 0);
                let hi_s = (rect.hi.x - design.core.lo.x).div_euclid(sw);
                let hi_r = (rect.hi.y - design.core.lo.y).div_euclid(rh);
                for row in lo_r.max(0)..hi_r.min(grid.rows) {
                    for site in lo_s.max(0)..hi_s.min(grid.sites_x) {
                        let idx = grid.pix(site, row);
                        grid.fence_inside[idx] = ri as u16;
                    }
                }
            }
        }
        grid.rebuild_bits();
        grid
    }

    /// [`new`](Self::new), then places every already-legalized movable
    /// cell at its committed position.
    ///
    /// Cells are registered in ascending `(x, id)` order, so each
    /// [`place`](Self::place) check sees the cell's true left neighbour on
    /// every row and no right neighbour yet. In id order, a neighbour
    /// registered before the cell between them would look adjacent and
    /// fail the edge-spacing check of a legal placement. The final grid
    /// does not depend on the order.
    pub fn with_committed(design: &Design) -> Self {
        let mut grid = Self::new(design);
        let mut committed: Vec<CellId> = design
            .movable_ids()
            .filter(|&id| design.cell(id).legalized)
            .collect();
        committed.sort_unstable_by_key(|&id| (design.cell(id).pos.x, id.0));
        for id in committed {
            let pos = grid.to_grid(design, design.cell(id).pos);
            grid.place(design, id, pos);
        }
        grid
    }

    /// Loads window `win` of `base` into this grid, reusing its buffers
    /// (reset, not reallocated, when capacities suffice). Afterwards the
    /// grid answers every query exactly as `base` does for any footprint
    /// inside `win`, having copied `O(window)` bytes instead of the die:
    ///
    /// - the occupancy words of the window's whole word columns, verbatim
    ///   (boundary words keep out-of-window neighbour bits, which every
    ///   query masks off), and the window's occupant block;
    /// - the fence blocks, when the design has fences;
    /// - the row-index entries whose occupied interval ends within
    ///   [`Technology::max_edge_spacing`](rlleg_design::Technology::max_edge_spacing)
    ///   of the window. Placed intervals are disjoint, so any dropped
    ///   entry is provably too far away to decide an edge-spacing check
    ///   for an in-window footprint.
    ///
    /// The fixed-cell bitmap is not copied:
    /// [`window_has_fixed`](Self::window_has_fixed) needs the full grid.
    ///
    /// # Panics
    ///
    /// Panics if `win` is degenerate or leaves `base`'s window.
    pub fn load(&mut self, base: &PixelGrid, design: &Design, win: GridWindow) {
        assert!(!win.is_degenerate(), "cannot load a degenerate window");
        let (w_sites, h_rows) = (win.hi_site - win.lo_site, win.hi_row - win.lo_row);
        let corner = GridPos {
            site: win.lo_site,
            row: win.lo_row,
        };
        assert!(
            base.win.contains_footprint(corner, w_sites, h_rows),
            "window {win:?} leaves the grid's {:?}",
            base.win
        );
        self.sites_x = base.sites_x;
        self.rows = base.rows;
        self.win = win;
        self.w_lo = (win.lo_site / 64) as usize;
        self.w_hi = ((win.hi_site - 1) / 64) as usize + 1;
        let (ww, nw) = (w_sites as usize, self.w_hi - self.w_lo);
        self.occ_bits.clear();
        self.occ.clear();
        for row in win.lo_row..win.hi_row {
            let wb = base.word(win.lo_site, row);
            self.occ_bits.extend_from_slice(&base.occ_bits[wb..wb + nw]);
            let pb = base.pix(win.lo_site, row);
            self.occ.extend_from_slice(&base.occ[pb..pb + ww]);
        }
        self.fixed_bits.clear();
        self.has_fences = base.has_fences;
        self.fence_inside.clear();
        self.fence_touched.clear();
        if base.has_fences {
            for row in win.lo_row..win.hi_row {
                let pb = base.pix(win.lo_site, row);
                self.fence_inside
                    .extend_from_slice(&base.fence_inside[pb..pb + ww]);
                self.fence_touched
                    .extend_from_slice(&base.fence_touched[pb..pb + ww]);
            }
        }
        // Row index: an entry can decide an edge-spacing check for an
        // in-window footprint only if its interval ends after
        // `x_lo - halo`; row intervals are disjoint, so everything to the
        // left of the last such entry is farther still and can be dropped.
        let halo = design.tech.max_edge_spacing();
        let sw = design.tech.site_width;
        let x_lo = design.core.lo.x + win.lo_site * sw;
        let x_hi = design.core.lo.x + win.hi_site * sw;
        for m in &mut self.row_cells {
            m.clear();
        }
        self.row_cells.resize_with(h_rows as usize, BTreeMap::new);
        for (map, row) in self.row_cells.iter_mut().zip(win.lo_row..win.hi_row) {
            let src = &base.row_cells[(row - base.win.lo_row) as usize];
            if let Some((&k, &v)) = src.range(..x_lo - halo).next_back() {
                if v.0 > x_lo - halo {
                    map.insert(k, v);
                }
            }
            for (&k, &v) in src.range(x_lo - halo..x_hi + halo) {
                map.insert(k, v);
            }
        }
    }

    /// A fresh grid [`load`](Self::load)ed with window `win` of this one.
    /// Workers that solve many windows keep one grid each and `load` it
    /// instead, reusing its buffers.
    ///
    /// # Panics
    ///
    /// Panics if `win` is degenerate or leaves this grid's window.
    pub fn extract_window(&self, design: &Design, win: GridWindow) -> PixelGrid {
        let mut sub = Self::default();
        sub.load(self, design, win);
        sub
    }

    /// Rebuilds both bitmaps from the occupant array (construction only;
    /// `place`/`remove` maintain them incrementally afterwards).
    fn rebuild_bits(&mut self) {
        let wpr = self.w_hi;
        self.occ_bits = vec![0u64; wpr * self.rows.max(0) as usize];
        self.fixed_bits = vec![0u64; wpr * self.rows.max(0) as usize];
        // Padding bits beyond sites_x read as occupied/blocked so word
        // tests never report free space outside the core.
        if self.sites_x > 0 {
            let tail = self.sites_x as usize % 64;
            if tail != 0 {
                let pad = !0u64 << tail;
                for row in 0..self.rows as usize {
                    self.occ_bits[row * wpr + wpr - 1] |= pad;
                    self.fixed_bits[row * wpr + wpr - 1] |= pad;
                }
            }
        }
        for row in 0..self.rows {
            for site in 0..self.sites_x {
                let (w, bit) = (self.word(site, row), 1u64 << (site as usize % 64));
                match self.occ[self.pix(site, row)] {
                    FREE => {}
                    BLOCKED => {
                        self.occ_bits[w] |= bit;
                        self.fixed_bits[w] |= bit;
                    }
                    _ => self.occ_bits[w] |= bit,
                }
            }
        }
    }

    /// Index of pixel `(site, row)` in the stored per-pixel blocks.
    #[inline]
    fn pix(&self, site: i64, row: i64) -> usize {
        let ww = (self.win.hi_site - self.win.lo_site) as usize;
        (row - self.win.lo_row) as usize * ww + (site - self.win.lo_site) as usize
    }

    /// Index of the stored bitmap word holding pixel `(site, row)`.
    #[inline]
    fn word(&self, site: i64, row: i64) -> usize {
        (row - self.win.lo_row) as usize * (self.w_hi - self.w_lo) + site as usize / 64 - self.w_lo
    }

    fn for_pixels_overlapping(
        &mut self,
        design: &Design,
        r: &Rect,
        mut f: impl FnMut(&mut Self, usize),
    ) {
        let sw = design.tech.site_width;
        let rh = design.tech.row_height;
        let lo_s = (r.lo.x - design.core.lo.x).div_euclid(sw).max(0);
        let hi_s = ((r.hi.x - design.core.lo.x) + sw - 1)
            .div_euclid(sw)
            .min(self.sites_x);
        let lo_r = (r.lo.y - design.core.lo.y).div_euclid(rh).max(0);
        let hi_r = ((r.hi.y - design.core.lo.y) + rh - 1)
            .div_euclid(rh)
            .min(self.rows);
        for row in lo_r..hi_r {
            for site in lo_s..hi_s {
                let idx = self.pix(site, row);
                f(self, idx);
            }
        }
    }

    /// Number of sites across the die.
    pub fn sites_x(&self) -> i64 {
        self.sites_x
    }

    /// Number of rows of the die.
    pub fn rows(&self) -> i64 {
        self.rows
    }

    /// The stored window: the whole die, or the window last
    /// [`load`](Self::load)ed.
    pub fn window(&self) -> GridWindow {
        self.win
    }

    /// Converts a grid position to the dbu lower-left corner.
    pub fn to_dbu(&self, design: &Design, pos: GridPos) -> Point {
        Point::new(
            design.core.lo.x + pos.site * design.tech.site_width,
            design.core.lo.y + pos.row * design.tech.row_height,
        )
    }

    /// Snaps a dbu point to the grid position at or below it.
    pub fn to_grid(&self, design: &Design, p: Point) -> GridPos {
        GridPos {
            site: design.site_of(p.x),
            row: design.row_of(p.y),
        }
    }

    /// Word-level test that `bits` is all-zero over the in-window footprint
    /// `[site, site + w) × [row, row + h)`. The hot loop ORs u64×4 blocks
    /// across rows — plain indexed array ops the autovectorizer lowers to
    /// 256-bit loads on AVX2 (128-bit pairs on NEON) — with a scalar tail
    /// for the remaining columns.
    #[inline]
    fn window_zero(&self, bits: &[u64], site: i64, row: i64, w: i64, h: i64) -> bool {
        let stride = self.w_hi - self.w_lo;
        let row0 = (row - self.win.lo_row) as usize;
        let lo_w = site as usize / 64;
        let hi_w = ((site + w - 1) as usize / 64) + 1;
        let mask_of = |wi: usize| {
            let base = wi as i64 * 64;
            let mut mask = !0u64;
            if base < site {
                mask &= !0u64 << (site - base);
            }
            let k = site + w - base;
            if k < 64 {
                mask &= (1u64 << k) - 1;
            }
            mask
        };
        let mut wi = lo_w;
        while wi + 4 <= hi_w {
            let mut acc = [0u64; 4];
            for r in 0..h as usize {
                let rb = (row0 + r) * stride + (wi - self.w_lo);
                let w4: &[u64; 4] = bits[rb..rb + 4].try_into().unwrap();
                acc[0] |= w4[0];
                acc[1] |= w4[1];
                acc[2] |= w4[2];
                acc[3] |= w4[3];
            }
            for (j, a) in acc.iter().enumerate() {
                if a & mask_of(wi + j) != 0 {
                    return false;
                }
            }
            wi += 4;
        }
        while wi < hi_w {
            let mask = mask_of(wi);
            for r in 0..h as usize {
                if bits[(row0 + r) * stride + (wi - self.w_lo)] & mask != 0 {
                    return false;
                }
            }
            wi += 1;
        }
        true
    }

    /// `true` when every pixel of the `w_sites × h_rows` window anchored at
    /// `pos` is unoccupied (no placed cell, no macro). Windows leaving the
    /// stored window are not free.
    pub fn window_free(&self, pos: GridPos, w_sites: i64, h_rows: i64) -> bool {
        w_sites > 0
            && h_rows > 0
            && self.win.contains_footprint(pos, w_sites, h_rows)
            && self.window_zero(&self.occ_bits, pos.site, pos.row, w_sites, h_rows)
    }

    /// `true` when the window anchored at `pos` touches any fixed-cell
    /// (blocked) pixel. Out-of-bounds windows count as blocked.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) on a loaded window, which keeps no
    /// fixed-cell bitmap.
    pub fn window_has_fixed(&self, pos: GridPos, w_sites: i64, h_rows: i64) -> bool {
        debug_assert_eq!(
            self.fixed_bits.len(),
            self.occ_bits.len(),
            "window_has_fixed needs the full grid"
        );
        !(w_sites > 0
            && h_rows > 0
            && self.win.contains_footprint(pos, w_sites, h_rows)
            && self.window_zero(&self.fixed_bits, pos.site, pos.row, w_sites, h_rows))
    }

    /// Enumerates maximal free spans `[s_lo, s_hi)` of sites within
    /// `[lo, hi)` where all rows `row..row + h_rows` are simultaneously
    /// unoccupied, in ascending site order. `lo`/`hi` are clamped to the
    /// die; rows must be in bounds.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) when the row band or the clamped site
    /// range leaves the stored window.
    pub fn for_each_free_span(
        &self,
        row: i64,
        h_rows: i64,
        lo: i64,
        hi: i64,
        f: impl FnMut(i64, i64),
    ) {
        debug_assert!(row >= self.win.lo_row && h_rows >= 1 && row + h_rows <= self.win.hi_row);
        let lo = lo.max(0);
        let hi = hi.min(self.sites_x);
        if lo >= hi {
            return;
        }
        debug_assert!(
            lo >= self.win.lo_site && hi <= self.win.hi_site,
            "span range [{lo},{hi}) leaves window {:?}",
            self.win
        );
        // Row-band words: the OR of the band's rows per word column,
        // folded u64×4 columns at a time and cached, so the strictly
        // ascending walk folds each block across the rows once instead of
        // per column. Blocks are aligned at the first queried column.
        let stride = self.w_hi - self.w_lo;
        let row0 = (row - self.win.lo_row) as usize;
        let lo_w = lo as usize / 64;
        let mut blk = usize::MAX;
        let mut cache = [0u64; 4];
        let band_word = |wi: usize| {
            let b = lo_w + ((wi - lo_w) & !3);
            if b != blk {
                blk = b;
                cache = [0u64; 4];
                let n = 4.min(self.w_hi - b);
                if n == 4 {
                    for r in 0..h_rows as usize {
                        let rb = (row0 + r) * stride + (b - self.w_lo);
                        let w4: &[u64; 4] = self.occ_bits[rb..rb + 4].try_into().unwrap();
                        cache[0] |= w4[0];
                        cache[1] |= w4[1];
                        cache[2] |= w4[2];
                        cache[3] |= w4[3];
                    }
                } else {
                    for r in 0..h_rows as usize {
                        let rb = (row0 + r) * stride + (b - self.w_lo);
                        for (j, c) in cache.iter_mut().take(n).enumerate() {
                            *c |= self.occ_bits[rb + j];
                        }
                    }
                }
            }
            cache[wi - b]
        };
        walk_free_spans(lo, hi, band_word, f);
    }

    /// The fence rule at stored pixel `idx`: a fenced cell must sit fully
    /// inside its own region, an unfenced one clear of every region. With
    /// no fence regions in the design only unfenced cells pass.
    #[inline]
    fn fence_ok(&self, region: Option<RegionId>, idx: usize) -> bool {
        match region {
            Some(reg) => self.has_fences && self.fence_inside[idx] == reg.0,
            None => !self.has_fences || !self.fence_touched[idx],
        }
    }

    /// Per-pixel occupancy + fence loop shared by [`check_place`]
    /// (Self::check_place) (slow path) and
    /// [`check_place_reference`](Self::check_place_reference); preserves the
    /// row-major first-rejection ordering of the original implementation.
    fn pixel_loop(
        &self,
        design: &Design,
        cell: CellId,
        pos: GridPos,
        w_sites: i64,
        h_rows: i64,
    ) -> Result<(), PlaceRejection> {
        let region = design.cell(cell).region;
        let me = cell.0;
        for row in pos.row..pos.row + h_rows {
            let base = self.pix(pos.site, row);
            for idx in base..base + w_sites as usize {
                let occ = self.occ[idx];
                if occ != FREE && occ != me {
                    return Err(PlaceRejection::Occupied);
                }
                if !self.fence_ok(region, idx) {
                    return Err(PlaceRejection::Fence);
                }
            }
        }
        Ok(())
    }

    /// Fence-only per-pixel loop, used after a word test already proved the
    /// window unoccupied.
    fn fence_loop(
        &self,
        design: &Design,
        cell: CellId,
        pos: GridPos,
        w_sites: i64,
        h_rows: i64,
    ) -> Result<(), PlaceRejection> {
        let region = design.cell(cell).region;
        for row in pos.row..pos.row + h_rows {
            let base = self.pix(pos.site, row);
            if !(base..base + w_sites as usize).all(|idx| self.fence_ok(region, idx)) {
                return Err(PlaceRejection::Fence);
            }
        }
        Ok(())
    }

    /// Edge-spacing check against already placed neighbours on shared rows.
    fn edge_spacing_check(
        &self,
        design: &Design,
        cell: CellId,
        pos: GridPos,
        h_rows: i64,
    ) -> Result<(), PlaceRejection> {
        let c = design.cell(cell);
        let me = cell.0;
        let sw = design.tech.site_width;
        let x_lo = design.core.lo.x + pos.site * sw;
        let x_hi = x_lo + c.width;
        for row in pos.row..pos.row + h_rows {
            let map = &self.row_cells[(row - self.win.lo_row) as usize];
            if let Some((_, &(left_hi, left_cell))) = map.range(..x_lo).next_back() {
                if left_cell != me && left_hi <= x_lo {
                    let lc = design.cell(CellId(left_cell));
                    let need = design.tech.edge_spacing(lc.edge_right, c.edge_left);
                    if x_lo - left_hi < need {
                        return Err(PlaceRejection::EdgeSpacing);
                    }
                }
            }
            if let Some((&right_lo, &(_, right_cell))) = map.range(x_lo..).next() {
                if right_cell != me && right_lo >= x_hi {
                    let rc = design.cell(CellId(right_cell));
                    let need = design.tech.edge_spacing(c.edge_right, rc.edge_left);
                    if right_lo - x_hi < need {
                        return Err(PlaceRejection::EdgeSpacing);
                    }
                }
            }
        }
        Ok(())
    }

    /// The rules both legality checks test first, cheapest first: die
    /// bounds, then rail parity. Returns the footprint `(w_sites, h_rows)`.
    fn footprint(
        &self,
        design: &Design,
        cell: CellId,
        pos: GridPos,
    ) -> Result<(i64, i64), PlaceRejection> {
        let c = design.cell(cell);
        let w_sites = c.width / design.tech.site_width;
        let h_rows = i64::from(c.height_rows);
        if pos.site < 0
            || pos.row < 0
            || pos.site + w_sites > self.sites_x
            || pos.row + h_rows > self.rows
        {
            return Err(PlaceRejection::OutOfBounds);
        }
        debug_assert!(
            self.win.contains_footprint(pos, w_sites, h_rows),
            "probe leaves the stored window: {pos:?} {w_sites}x{h_rows} vs {:?}",
            self.win
        );
        if c.is_rail_constrained() && !c.rail.allows_row(pos.row) {
            return Err(PlaceRejection::RailParity);
        }
        Ok((w_sites, h_rows))
    }

    /// Full legality check of placing `cell` with its lower-left pixel at
    /// `pos`. `Ok(())` means the position is legal w.r.t. bounds, rail
    /// parity, occupancy, fences, and edge spacing (the max-displacement
    /// constraint is the search's concern, not the grid's).
    ///
    /// Occupancy goes through the word-level bitmaps: a clean window test
    /// skips the per-pixel loop entirely (on fence-free designs the fence
    /// scan too); any set bit falls back to the exact per-pixel reference
    /// walk so rejection ordering matches
    /// [`check_place_reference`](Self::check_place_reference) bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlaceRejection`] encountered, checking cheap
    /// rules first.
    pub fn check_place(
        &self,
        design: &Design,
        cell: CellId,
        pos: GridPos,
    ) -> Result<(), PlaceRejection> {
        let (w_sites, h_rows) = self.footprint(design, cell, pos)?;
        if self.window_zero(&self.occ_bits, pos.site, pos.row, w_sites, h_rows) {
            debug_assert_eq!(
                self.pixel_loop(design, cell, pos, w_sites, h_rows).err(),
                if self.has_fences {
                    self.fence_loop(design, cell, pos, w_sites, h_rows).err()
                } else {
                    None
                },
                "bitmap fast path disagrees with the per-pixel reference"
            );
            if self.has_fences {
                self.fence_loop(design, cell, pos, w_sites, h_rows)?;
            }
        } else {
            self.pixel_loop(design, cell, pos, w_sites, h_rows)?;
        }
        self.edge_spacing_check(design, cell, pos, h_rows)
    }

    /// The pre-bitmap legality check: identical semantics to
    /// [`check_place`](Self::check_place) via per-pixel scans only. Kept as
    /// the oracle for equivalence tests and as the honest "before" baseline
    /// in the bench harness.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlaceRejection`] encountered, checking cheap
    /// rules first.
    pub fn check_place_reference(
        &self,
        design: &Design,
        cell: CellId,
        pos: GridPos,
    ) -> Result<(), PlaceRejection> {
        let (w_sites, h_rows) = self.footprint(design, cell, pos)?;
        self.pixel_loop(design, cell, pos, w_sites, h_rows)?;
        self.edge_spacing_check(design, cell, pos, h_rows)
    }

    /// Marks `cell` as occupying the pixels at `pos`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) when the position is not
    /// [`check_place`](Self::check_place)-legal; callers must check first.
    pub fn place(&mut self, design: &Design, cell: CellId, pos: GridPos) {
        debug_assert_eq!(self.check_place(design, cell, pos), Ok(()));
        let c = design.cell(cell);
        let w_sites = c.width / design.tech.site_width;
        let x_lo = design.core.lo.x + pos.site * design.tech.site_width;
        for row in pos.row..pos.row + i64::from(c.height_rows) {
            let base = self.pix(pos.site, row);
            for (idx, site) in (base..).zip(pos.site..pos.site + w_sites) {
                self.occ[idx] = cell.0;
                let w = self.word(site, row);
                self.occ_bits[w] |= 1u64 << (site as usize % 64);
            }
            self.row_cells[(row - self.win.lo_row) as usize].insert(x_lo, (x_lo + c.width, cell.0));
        }
    }

    /// Clears `cell` from the pixels at `pos` (its current placement).
    pub fn remove(&mut self, design: &Design, cell: CellId, pos: GridPos) {
        let c = design.cell(cell);
        let w_sites = c.width / design.tech.site_width;
        let x_lo = design.core.lo.x + pos.site * design.tech.site_width;
        for row in pos.row..pos.row + i64::from(c.height_rows) {
            let base = self.pix(pos.site, row);
            for (idx, site) in (base..).zip(pos.site..pos.site + w_sites) {
                debug_assert_eq!(self.occ[idx], cell.0, "removing wrong occupant");
                self.occ[idx] = FREE;
                let w = self.word(site, row);
                self.occ_bits[w] &= !(1u64 << (site as usize % 64));
            }
            self.row_cells[(row - self.win.lo_row) as usize].remove(&x_lo);
        }
    }

    /// `true` when lifting `cell` (placed at `pos`) cannot expose an
    /// illegal adjacency: on every row the cell spans, the placed cells to
    /// its left and right — which become adjacent once the cell is gone —
    /// still satisfy their mutual edge-spacing requirement.
    ///
    /// [`check_place`](Self::check_place) only validates a mover's *new*
    /// spot against its new neighbours; the adjacency its departure
    /// creates at the old spot is invisible to it. Any caller that
    /// relocates an already-placed cell must hold this before removing
    /// it, or two cells it was legally wedged between end up closer than
    /// their edge types allow.
    pub fn vacate_safe(&self, design: &Design, cell: CellId, pos: GridPos) -> bool {
        let c = design.cell(cell);
        let h_rows = i64::from(c.height_rows);
        let x_lo = design.core.lo.x + pos.site * design.tech.site_width;
        for row in pos.row..pos.row + h_rows {
            let map = &self.row_cells[(row - self.win.lo_row) as usize];
            debug_assert_eq!(map.get(&x_lo).map(|&(_, id)| id), Some(cell.0));
            if let (Some((_, &(left_hi, left_cell))), Some((&right_lo, &(_, right_cell)))) =
                (map.range(..x_lo).next_back(), map.range(x_lo + 1..).next())
            {
                let lc = design.cell(CellId(left_cell));
                let rc = design.cell(CellId(right_cell));
                let need = design.tech.edge_spacing(lc.edge_right, rc.edge_left);
                if right_lo - left_hi < need {
                    return false;
                }
            }
        }
        true
    }

    /// Occupant of a pixel: `Some(cell)` for a movable cell, `None` when
    /// free or blocked by a macro. Pixels outside the stored window read
    /// as blocked.
    pub fn occupant(&self, site: i64, row: i64) -> Option<CellId> {
        if !self.win.contains_footprint(GridPos { site, row }, 1, 1) {
            return None;
        }
        match self.occ[self.pix(site, row)] {
            FREE | BLOCKED => None,
            id => Some(CellId(id)),
        }
    }

    /// `true` when a pixel holds neither a placed cell nor a macro.
    pub fn is_free(&self, site: i64, row: i64) -> bool {
        self.win.contains_footprint(GridPos { site, row }, 1, 1)
            && self.occ[self.pix(site, row)] == FREE
    }

    /// Fraction of stored pixels that are free (diagnostic).
    pub fn free_ratio(&self) -> f64 {
        let free = self.occ.iter().filter(|&&o| o == FREE).count();
        free as f64 / self.occ.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, EdgeType, RailParity, Technology};

    fn builder() -> DesignBuilder {
        DesignBuilder::new("px", Technology::contest(), 20, 6)
    }

    #[test]
    fn fixed_cells_block_pixels() {
        let mut b = builder();
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        b.add_fixed_cell("m", 3, 2, Point::new(1_000, 2_000));
        let d = b.build();
        let g = PixelGrid::new(&d);
        assert!(g.is_free(0, 0));
        assert!(!g.is_free(5, 1), "macro pixel blocked");
        assert!(!g.is_free(7, 2), "macro spans rows 1..3");
        assert_eq!(g.occupant(5, 1), None, "macros are anonymous blockers");
        assert_eq!(
            g.check_place(&d, a, GridPos { site: 5, row: 1 }),
            Err(PlaceRejection::Occupied)
        );
    }

    #[test]
    fn bounds_and_parity() {
        let mut b = builder();
        let odd = b.add_cell("odd", 2, 1, Point::new(0, 0));
        let even = b.add_cell("even", 2, 2, Point::new(0, 0));
        b.set_rail(even, RailParity::Even);
        let d = b.build();
        let g = PixelGrid::new(&d);
        assert_eq!(
            g.check_place(&d, odd, GridPos { site: 19, row: 0 }),
            Err(PlaceRejection::OutOfBounds)
        );
        assert_eq!(
            g.check_place(&d, even, GridPos { site: 0, row: 5 }),
            Err(PlaceRejection::OutOfBounds),
            "2-row cell on last row"
        );
        assert_eq!(
            g.check_place(&d, even, GridPos { site: 0, row: 1 }),
            Err(PlaceRejection::RailParity)
        );
        assert_eq!(g.check_place(&d, even, GridPos { site: 0, row: 2 }), Ok(()));
        assert_eq!(g.check_place(&d, odd, GridPos { site: 0, row: 3 }), Ok(()));
    }

    #[test]
    fn place_remove_cycle() {
        let mut b = builder();
        let a = b.add_cell("a", 3, 2, Point::new(0, 0));
        let c = b.add_cell("c", 1, 1, Point::new(0, 0));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        let p = GridPos { site: 4, row: 2 };
        g.place(&d, a, p);
        assert_eq!(g.occupant(4, 2), Some(a));
        assert_eq!(g.occupant(6, 3), Some(a));
        assert_eq!(
            g.check_place(&d, c, GridPos { site: 5, row: 3 }),
            Err(PlaceRejection::Occupied)
        );
        g.remove(&d, a, p);
        assert!(g.is_free(4, 2));
        assert_eq!(g.check_place(&d, c, GridPos { site: 5, row: 3 }), Ok(()));
    }

    #[test]
    fn edge_spacing_between_placed_cells() {
        let mut b = builder();
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        let c = b.add_cell("c", 2, 1, Point::new(0, 0));
        b.set_edges(a, EdgeType(2), EdgeType(2));
        b.set_edges(c, EdgeType(2), EdgeType(2));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 4, row: 0 });
        // Adjacent: gap 0 < 2 sites.
        assert_eq!(
            g.check_place(&d, c, GridPos { site: 6, row: 0 }),
            Err(PlaceRejection::EdgeSpacing)
        );
        // Gap of one site still violates (needs 2).
        assert_eq!(
            g.check_place(&d, c, GridPos { site: 7, row: 0 }),
            Err(PlaceRejection::EdgeSpacing)
        );
        // Two sites: legal.
        assert_eq!(g.check_place(&d, c, GridPos { site: 8, row: 0 }), Ok(()));
        // Left neighbour side as well.
        assert_eq!(
            g.check_place(&d, c, GridPos { site: 1, row: 0 }),
            Err(PlaceRejection::EdgeSpacing)
        );
        // Exactly two sites of gap on the left: legal.
        assert_eq!(g.check_place(&d, c, GridPos { site: 0, row: 0 }), Ok(()));
        // Different row: no constraint.
        assert_eq!(g.check_place(&d, c, GridPos { site: 6, row: 1 }), Ok(()));
    }

    #[test]
    fn vacate_safe_sees_the_adjacency_a_removal_would_create() {
        // a |x| b packed tight: x's default edges need no gap on either
        // side, but a and b (type-2 edges, 2-site mutual spacing) rely on
        // x's body to stay apart. Lifting x must be flagged as not safe.
        let mut b = builder();
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        let x = b.add_cell("x", 1, 1, Point::new(0, 0));
        let c = b.add_cell("c", 2, 1, Point::new(0, 0));
        b.set_edges(a, EdgeType(2), EdgeType(2));
        b.set_edges(c, EdgeType(2), EdgeType(2));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 0, row: 0 });
        g.place(&d, x, GridPos { site: 2, row: 0 });
        g.place(&d, c, GridPos { site: 3, row: 0 });
        assert!(!g.vacate_safe(&d, x, GridPos { site: 2, row: 0 }));
        // Edge cells have a neighbour on one side only: always safe.
        assert!(g.vacate_safe(&d, a, GridPos { site: 0, row: 0 }));
        assert!(g.vacate_safe(&d, c, GridPos { site: 3, row: 0 }));
        // With c one site further right the exposed gap is exactly the
        // required two sites: lifting x becomes safe.
        g.remove(&d, c, GridPos { site: 3, row: 0 });
        g.place(&d, c, GridPos { site: 4, row: 0 });
        assert!(g.vacate_safe(&d, x, GridPos { site: 2, row: 0 }));
    }

    #[test]
    fn fences_gate_both_directions() {
        let mut b = builder();
        let inside = b.add_cell("in", 2, 1, Point::new(0, 0));
        let outside = b.add_cell("out", 2, 1, Point::new(0, 0));
        let r = b.add_region("f", vec![Rect::new(800, 0, 2_000, 4_000)]);
        b.assign_region(inside, r);
        let d = b.build();
        let g = PixelGrid::new(&d);
        // Fenced cell fully inside: ok (sites 4..10 in rows 0,1).
        assert_eq!(
            g.check_place(&d, inside, GridPos { site: 4, row: 0 }),
            Ok(())
        );
        // Fenced cell straddling the boundary: rejected.
        assert_eq!(
            g.check_place(&d, inside, GridPos { site: 3, row: 0 }),
            Err(PlaceRejection::Fence)
        );
        // Unfenced cell inside the region: rejected.
        assert_eq!(
            g.check_place(&d, outside, GridPos { site: 5, row: 0 }),
            Err(PlaceRejection::Fence)
        );
        // Unfenced cell clear of the region: ok.
        assert_eq!(
            g.check_place(&d, outside, GridPos { site: 10, row: 0 }),
            Ok(())
        );
    }

    #[test]
    fn grid_dbu_round_trip() {
        let mut b = builder();
        b.add_cell("a", 1, 1, Point::new(0, 0));
        let d = b.build();
        let g = PixelGrid::new(&d);
        let pos = GridPos { site: 7, row: 3 };
        let p = g.to_dbu(&d, pos);
        assert_eq!(p, Point::new(1_400, 6_000));
        assert_eq!(g.to_grid(&d, p), pos);
        assert_eq!(
            g.to_grid(&d, Point::new(1_399, 5_999)),
            GridPos { site: 6, row: 2 }
        );
    }

    #[test]
    fn free_ratio() {
        let mut b = builder();
        b.add_fixed_cell("m", 10, 3, Point::new(0, 0));
        let d = b.build();
        let g = PixelGrid::new(&d);
        let expect = 1.0 - 30.0 / 120.0;
        assert!((g.free_ratio() - expect).abs() < 1e-9);
    }

    #[test]
    fn window_free_matches_per_pixel() {
        let mut b = builder();
        let a = b.add_cell("a", 3, 2, Point::new(0, 0));
        b.add_fixed_cell("m", 2, 1, Point::new(2_000, 6_000));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 7, row: 2 });
        for row in -1..=g.rows() {
            for site in -1..=g.sites_x() {
                for (w, h) in [(1, 1), (3, 2), (5, 1)] {
                    let pos = GridPos { site, row };
                    let expect = site >= 0
                        && row >= 0
                        && site + w <= g.sites_x()
                        && row + h <= g.rows()
                        && (row..row + h).all(|r| (site..site + w).all(|s| g.is_free(s, r)));
                    assert_eq!(
                        g.window_free(pos, w, h),
                        expect,
                        "window {w}x{h} at ({site},{row})"
                    );
                }
            }
        }
    }

    #[test]
    fn window_has_fixed_sees_only_macros() {
        let mut b = builder();
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        b.add_fixed_cell("m", 2, 1, Point::new(2_000, 6_000));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 0, row: 0 });
        // Movable cell pixels are not "fixed".
        assert!(!g.window_has_fixed(GridPos { site: 0, row: 0 }, 2, 1));
        // Macro at sites 10..12, row 3.
        assert!(g.window_has_fixed(GridPos { site: 9, row: 3 }, 3, 1));
        assert!(!g.window_has_fixed(GridPos { site: 12, row: 3 }, 3, 1));
        // Out of bounds counts as blocked.
        assert!(g.window_has_fixed(GridPos { site: 19, row: 0 }, 2, 1));
    }

    #[test]
    fn free_spans_enumerate_gaps() {
        let mut b = builder();
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        let c = b.add_cell("c", 3, 2, Point::new(0, 0));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 4, row: 2 });
        g.place(&d, c, GridPos { site: 10, row: 2 });
        let mut spans = Vec::new();
        g.for_each_free_span(2, 1, 0, g.sites_x(), |lo, hi| spans.push((lo, hi)));
        assert_eq!(spans, vec![(0, 4), (6, 10), (13, 20)]);
        // Two-row band: only pixels free in both rows count; `a` occupies
        // row 2 only, `c` occupies rows 2..4.
        let mut band = Vec::new();
        g.for_each_free_span(2, 2, 0, g.sites_x(), |lo, hi| band.push((lo, hi)));
        assert_eq!(band, vec![(0, 4), (6, 10), (13, 20)]);
        // Sub-range clips the spans.
        let mut clipped = Vec::new();
        g.for_each_free_span(2, 1, 5, 12, |lo, hi| clipped.push((lo, hi)));
        assert_eq!(clipped, vec![(6, 10)]);
        // Fully occupied range yields nothing.
        let mut none = Vec::new();
        g.for_each_free_span(2, 1, 4, 6, |lo, hi| none.push((lo, hi)));
        assert!(none.is_empty());
    }

    #[test]
    fn free_spans_cross_word_boundaries() {
        // 100-site core exercises spans spanning the 64-bit word boundary.
        let mut b = DesignBuilder::new("wide", Technology::contest(), 100, 2);
        let a = b.add_cell("a", 1, 1, Point::new(0, 0));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 63, row: 0 });
        let mut spans = Vec::new();
        g.for_each_free_span(0, 1, 0, g.sites_x(), |lo, hi| spans.push((lo, hi)));
        assert_eq!(spans, vec![(0, 63), (64, 100)]);
        // Padding bits beyond site 100 must read occupied.
        assert!(!g.window_free(GridPos { site: 99, row: 0 }, 2, 1));
        assert!(g.window_free(GridPos { site: 99, row: 0 }, 1, 1));
    }

    #[test]
    fn grid_window_footprint_containment() {
        let mut b = builder();
        b.add_cell("a", 1, 1, Point::new(0, 0));
        let d = b.build();
        let g = PixelGrid::new(&d);
        let full = GridWindow::full(&g);
        assert!(!full.is_degenerate());
        assert!(full.contains_footprint(GridPos { site: 0, row: 0 }, 20, 6));
        let w = GridWindow {
            lo_site: 4,
            lo_row: 1,
            hi_site: 10,
            hi_row: 4,
        };
        assert!(w.contains_footprint(GridPos { site: 4, row: 1 }, 6, 3));
        assert!(!w.contains_footprint(GridPos { site: 4, row: 1 }, 7, 3));
        assert!(!w.contains_footprint(GridPos { site: 3, row: 1 }, 2, 1));
        assert!(GridWindow {
            lo_site: 5,
            lo_row: 2,
            hi_site: 5,
            hi_row: 3,
        }
        .is_degenerate());
    }

    #[test]
    fn check_place_agrees_with_reference() {
        let mut b = builder();
        let a = b.add_cell("a", 3, 2, Point::new(0, 0));
        let c = b.add_cell("c", 2, 1, Point::new(0, 0));
        let fenced = b.add_cell("f", 1, 1, Point::new(0, 0));
        b.set_edges(a, EdgeType(2), EdgeType(1));
        b.set_edges(c, EdgeType(1), EdgeType(2));
        let r = b.add_region("reg", vec![Rect::new(2_800, 8_000, 4_000, 12_000)]);
        b.assign_region(fenced, r);
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 6, row: 2 });
        for id in [a, c, fenced] {
            for row in -1..=g.rows() {
                for site in -1..=g.sites_x() {
                    let pos = GridPos { site, row };
                    assert_eq!(
                        g.check_place(&d, id, pos),
                        g.check_place_reference(&d, id, pos),
                        "cell {id} at ({site},{row})"
                    );
                }
            }
        }
    }

    #[test]
    fn window_check_place_matches_full_grid_inside_the_window() {
        // Mixed occupancy, fences, edge spacing, and a window whose left
        // edge cuts through the middle of a word: every in-window probe
        // must answer exactly as the full grid.
        let mut b = builder();
        let a = b.add_cell("a", 3, 2, Point::new(0, 0));
        let c = b.add_cell("c", 2, 1, Point::new(0, 0));
        let fenced = b.add_cell("f", 1, 1, Point::new(0, 0));
        b.set_edges(a, EdgeType(2), EdgeType(1));
        b.set_edges(c, EdgeType(1), EdgeType(2));
        let r = b.add_region("reg", vec![Rect::new(2_800, 8_000, 4_000, 12_000)]);
        b.assign_region(fenced, r);
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        g.place(&d, a, GridPos { site: 6, row: 2 });
        g.place(&d, c, GridPos { site: 11, row: 4 });
        let win = GridWindow {
            lo_site: 5,
            lo_row: 1,
            hi_site: 15,
            hi_row: 6,
        };
        let sub = g.extract_window(&d, win);
        assert_eq!(sub.window(), win);
        assert_eq!((sub.sites_x(), sub.rows()), (g.sites_x(), g.rows()));
        for id in [a, c, fenced] {
            let cell = d.cell(id);
            let w_sites = cell.width / d.tech.site_width;
            let h_rows = i64::from(cell.height_rows);
            for row in win.lo_row..win.hi_row - h_rows + 1 {
                for site in win.lo_site..win.hi_site - w_sites + 1 {
                    let pos = GridPos { site, row };
                    assert_eq!(
                        sub.check_place(&d, id, pos),
                        g.check_place(&d, id, pos),
                        "cell {id} at ({site},{row})"
                    );
                }
            }
        }
    }

    #[test]
    fn window_place_blocks_subsequent_probes() {
        let mut b = builder();
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        let c = b.add_cell("c", 2, 1, Point::new(0, 0));
        let d = b.build();
        let g = PixelGrid::new(&d);
        let win = GridWindow {
            lo_site: 2,
            lo_row: 0,
            hi_site: 12,
            hi_row: 4,
        };
        let mut sub = g.extract_window(&d, win);
        let p = GridPos { site: 4, row: 1 };
        assert_eq!(sub.check_place(&d, a, p), Ok(()));
        sub.place(&d, a, p);
        assert_eq!(
            sub.check_place(&d, c, p),
            Err(PlaceRejection::Occupied),
            "a placement must be visible to later solves in the same window"
        );
        assert_eq!(
            sub.check_place(&d, c, GridPos { site: 6, row: 1 }),
            Ok(()),
            "the next free site still accepts"
        );
        // Reloading resets the scratch to the base grid's state.
        sub.load(&g, &d, win);
        assert_eq!(sub.check_place(&d, c, p), Ok(()));
    }

    /// A 300-site, 4-row die with occupancy scattered across word
    /// boundaries: 4.69 words per row exercises the u64×4 block path, the
    /// scalar word tail, and the padded final word at once.
    fn wide_grid() -> (rlleg_design::Design, PixelGrid) {
        let mut b = DesignBuilder::new("wide4", Technology::contest(), 300, 4);
        let sites: [i64; 14] = [0, 5, 62, 63, 65, 90, 126, 128, 140, 200, 255, 256, 270, 296];
        let mut ids = Vec::new();
        for (i, _) in sites.iter().enumerate() {
            ids.push(b.add_cell(
                format!("u{i}"),
                1 + (i as i64 % 3),
                1 + (i as u8 % 2),
                Point::ORIGIN,
            ));
        }
        b.add_fixed_cell("m", 4, 1, Point::new(180 * 200, 3 * 2_000));
        let d = b.build();
        let mut g = PixelGrid::new(&d);
        for (i, (&s, &id)) in sites.iter().zip(&ids).enumerate() {
            let pos = GridPos {
                site: s,
                row: i as i64 % 3,
            };
            if g.check_place(&d, id, pos).is_ok() {
                g.place(&d, id, pos);
            }
        }
        (d, g)
    }

    #[test]
    fn block_window_free_matches_per_pixel_on_wide_grids() {
        let (_d, g) = wide_grid();
        for (w, h) in [(1i64, 1i64), (7, 2), (70, 1), (130, 3), (300, 4)] {
            for row in 0..=g.rows() - h {
                for site in 0..=g.sites_x() - w {
                    let pos = GridPos { site, row };
                    let expect = (row..row + h).all(|r| (site..site + w).all(|s| g.is_free(s, r)));
                    assert_eq!(
                        g.window_free(pos, w, h),
                        expect,
                        "window {w}x{h} at {pos:?}"
                    );
                }
            }
        }
        // Fixed-bitmap path: the macro at sites 180..184 of row 3.
        assert!(g.window_has_fixed(GridPos { site: 100, row: 3 }, 90, 1));
        assert!(!g.window_has_fixed(GridPos { site: 100, row: 3 }, 80, 1));
        assert!(g.window_has_fixed(GridPos { site: 0, row: 0 }, 300, 4));
    }

    #[test]
    fn block_free_spans_match_per_pixel_on_wide_grids() {
        let (_d, g) = wide_grid();
        let reference = |row: i64, h: i64, lo: i64, hi: i64| {
            let (lo, hi) = (lo.max(0), hi.min(g.sites_x()));
            let mut out = Vec::new();
            let mut open = -1i64;
            for s in lo..hi {
                let free = (row..row + h).all(|r| g.is_free(s, r));
                if free && open < 0 {
                    open = s;
                } else if !free && open >= 0 {
                    out.push((open, s));
                    open = -1;
                }
            }
            if open >= 0 {
                out.push((open, hi));
            }
            out
        };
        for h in 1..=3i64 {
            for row in 0..=g.rows() - h {
                // Ranges chosen to start/end mid-word, on word boundaries,
                // inside the same block, and across the block seam.
                for (lo, hi) in [
                    (0, 300),
                    (1, 299),
                    (63, 65),
                    (60, 130),
                    (64, 256),
                    (128, 192),
                    (200, 300),
                    (5, 62),
                ] {
                    let mut got = Vec::new();
                    g.for_each_free_span(row, h, lo, hi, |a, b| got.push((a, b)));
                    assert_eq!(got, reference(row, h, lo, hi), "band {row}+{h} [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn window_block_scans_match_full_grid_on_wide_windows() {
        let (d, g) = wide_grid();
        // Windows cutting mid-word on both edges, wide enough to hold
        // full u64×4 blocks, plus a narrow one that never fills a block.
        for win in [
            GridWindow {
                lo_site: 33,
                lo_row: 0,
                hi_site: 290,
                hi_row: 4,
            },
            GridWindow {
                lo_site: 70,
                lo_row: 1,
                hi_site: 258,
                hi_row: 4,
            },
            GridWindow {
                lo_site: 120,
                lo_row: 0,
                hi_site: 150,
                hi_row: 3,
            },
        ] {
            let sub = g.extract_window(&d, win);
            for h in 1..=2i64 {
                for row in win.lo_row..=win.hi_row - h {
                    let mut got = Vec::new();
                    sub.for_each_free_span(row, h, win.lo_site, win.hi_site, |a, b| {
                        got.push((a, b))
                    });
                    let mut want = Vec::new();
                    g.for_each_free_span(row, h, win.lo_site, win.hi_site, |a, b| {
                        want.push((a, b))
                    });
                    assert_eq!(got, want, "win {win:?} band {row}+{h}");
                }
            }
            for id in d.movable_ids() {
                let c = d.cell(id);
                let (w, h) = (c.width / d.tech.site_width, i64::from(c.height_rows));
                for row in win.lo_row..=win.hi_row - h {
                    for site in win.lo_site..=win.hi_site - w {
                        let pos = GridPos { site, row };
                        assert_eq!(
                            sub.check_place(&d, id, pos),
                            g.check_place(&d, id, pos),
                            "cell {id} at {pos:?} in {win:?}"
                        );
                    }
                }
            }
        }
    }
}
