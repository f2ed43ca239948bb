//! The sequential pixel-wise legalizer and the baseline heuristics.
//!
//! [`Legalizer`] reproduces the flow of the size-ordered academic legalizer
//! the paper compares against (\[26\]/OpenDP-style): legalize cells one at a
//! time with the diamond search, optionally followed by the rearrangement
//! and cell-swap heuristics that compensate for the fixed ordering. The RL
//! framework drives the same `legalize_cell` primitive but picks the order
//! itself and uses no heuristics.

use rlleg_design::{CellId, Design, HotCells};
use rlleg_geom::Dbu;

use crate::gcell::GcellGrid;
use crate::order::Ordering;
use crate::pixel::{GridPos, PixelGrid};
use crate::sched::TileSchedule;
use crate::search::{find_position_hot, SearchConfig};

/// Outcome of one Gcell-local solve: committed `(cell, pos)` pairs in
/// order, plus the cells that found no window-local position.
type GcellSolve = (Vec<(CellId, GridPos)>, Vec<CellId>);

/// Error returned when no legal pixel exists for a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceCellError {
    /// The cell that could not be placed.
    pub cell: CellId,
}

impl std::fmt::Display for PlaceCellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no legal position found for cell {}", self.cell)
    }
}

impl std::error::Error for PlaceCellError {}

/// Summary of one legalization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cells successfully legalized.
    pub legalized: usize,
    /// Cells for which no legal position was found, in encounter order.
    pub failed: Vec<CellId>,
    /// Gcells whose parallel solve panicked and was contained, in merge
    /// order (coarse tiles ascending, tile-local subepisode order within
    /// each); their cells were retried on the sequential size-ordered
    /// fallback path. Always empty for fault-free runs.
    pub quarantined: Vec<usize>,
}

impl RunStats {
    /// `true` when every attempted cell was placed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// A sequential mixed-height legalizer over a [`PixelGrid`].
///
/// The legalizer owns the grid; the [`Design`] is threaded through calls so
/// cell positions and the grid stay in sync.
///
/// ```
/// use rlleg_design::{DesignBuilder, Technology, legality};
/// use rlleg_geom::Point;
/// use rlleg_legalize::{Legalizer, Ordering};
///
/// let mut b = DesignBuilder::new("d", Technology::contest(), 30, 8);
/// for i in 0..10 {
///     b.add_cell(format!("u{i}"), 2, 1, Point::new(i * 130, 70));
/// }
/// let mut design = b.build();
/// let mut lg = Legalizer::new(&design);
/// let stats = lg.run(&mut design, &Ordering::SizeDescending);
/// assert!(stats.is_complete());
/// assert!(legality::is_legal(&design));
/// ```
#[derive(Debug, Clone)]
pub struct Legalizer {
    grid: PixelGrid,
    /// Struct-of-arrays snapshot of the immutable hot cell attributes,
    /// taken at construction (like the grid raster). Orders, search shape
    /// parameters, and merge bookkeeping read these dense columns instead
    /// of striding over `Cell` structs.
    hot: HotCells,
    search: SearchConfig,
}

impl Legalizer {
    /// Creates a legalizer for `design`, rasterizing fixed cells and any
    /// already-legalized movable cells into the grid.
    pub fn new(design: &Design) -> Self {
        Self::with_config(design, SearchConfig::default())
    }

    /// Creates a legalizer with explicit search configuration.
    pub fn with_config(design: &Design, search: SearchConfig) -> Self {
        Self {
            grid: PixelGrid::with_committed(design),
            hot: design.hot_cells(),
            search,
        }
    }

    /// Read access to the occupancy grid.
    pub fn grid(&self) -> &PixelGrid {
        &self.grid
    }

    /// Legalizes a single cell with the pixel-wise search, committing the
    /// best position into the design and the grid.
    ///
    /// Returns the physical displacement from the cell's global-placement
    /// position.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceCellError`] when the search space holds no legal
    /// pixel; the design and grid are unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed or already legalized.
    pub fn legalize_cell(
        &mut self,
        design: &mut Design,
        cell: CellId,
    ) -> Result<Dbu, PlaceCellError> {
        assert!(
            self.hot.is_movable(cell),
            "cannot legalize fixed cell {cell}"
        );
        assert!(
            !design.cell(cell).legalized,
            "cell {cell} already legalized"
        );
        let from = self.hot.gp_pos(cell);
        let Some((pos, disp)) =
            find_position_hot(&self.grid, &self.hot, design, cell, from, self.search)
        else {
            if !telemetry::disabled() {
                telemetry::counter("legalize.cells_failed").inc();
            }
            return Err(PlaceCellError { cell });
        };
        if !telemetry::disabled() {
            telemetry::counter("legalize.cells_placed").inc();
            telemetry::histogram(
                "legalize.displacement_dbu",
                telemetry::buckets::DISPLACEMENT_DBU,
            )
            .record(disp as f64);
        }
        self.grid.place(design, cell, pos);
        let p = self.grid.to_dbu(design, pos);
        let c = design.cell_mut(cell);
        c.pos = p;
        c.legalized = true;
        Ok(disp)
    }

    /// Removes a legalized cell from the grid and restores its
    /// global-placement position (used by the heuristics and by tests).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not currently legalized.
    pub fn unlegalize_cell(&mut self, design: &mut Design, cell: CellId) {
        let c = design.cell(cell);
        assert!(c.legalized, "cell {cell} is not legalized");
        let pos = self.grid.to_grid(design, c.pos);
        self.grid.remove(design, cell, pos);
        let c = design.cell_mut(cell);
        c.pos = c.gp_pos;
        c.legalized = false;
    }

    /// Legalizes all movable cells of `design` in the given order.
    ///
    /// Failed cells are skipped (recorded in [`RunStats::failed`]) and left
    /// at their global-placement position, matching the baseline behaviour
    /// the paper reports as "\[26\] failed to legalize all cells".
    pub fn run(&mut self, design: &mut Design, ordering: &Ordering) -> RunStats {
        let _t = telemetry::span("legalize.run");
        let order = ordering.order_hot(design, &self.hot, None);
        self.run_cells(design, &order)
    }

    /// Legalizes the design Gcell by Gcell ("\[26\]+G" in Tables II–III):
    /// subepisodes in descending cell-count order, cells within each Gcell
    /// ordered by `ordering`.
    pub fn run_gcells(
        &mut self,
        design: &mut Design,
        ordering: &Ordering,
        gcells: &GcellGrid,
    ) -> RunStats {
        let _t = telemetry::span("legalize.run_gcells");
        let mut stats = RunStats::default();
        for g in gcells.subepisode_order() {
            let order = ordering.order_hot(design, &self.hot, Some(gcells.cells_of(g)));
            let s = self.run_cells(design, &order);
            stats.legalized += s.legalized;
            stats.failed.extend(s.failed);
        }
        stats
    }

    /// Legalizes the design Gcell by Gcell with the subepisodes solved in
    /// parallel on `threads` workers (`0` =
    /// [`default_threads`](crate::pool::default_threads), `1` = the
    /// sequential fallback). Worker count is capped at the number of
    /// coarse tiles; the calling thread is worker 0, and the other
    /// workers are `std::thread::scope` threads started for this call.
    ///
    /// Phase 1 solves every Gcell independently and **clone-free**: the
    /// design is never mutated during the solve (cell order and search
    /// starts read only immutable fields), and instead of cloning the
    /// whole grid each worker [`load`](PixelGrid::load)s its own window
    /// grid with just the Gcell's disjoint site/row window
    /// ([`GcellGrid::window_of`]) — occupancy words, occupant block, and
    /// the edge-spacing halo of the row index. Searches are restricted to
    /// the window, and the window grid answers them exactly as the full
    /// grid would, so workers never observe each other and the per-Gcell
    /// outcome cannot depend on thread scheduling. Work is handed out as
    /// coarse 2×2 [`TileSchedule`] tiles off one shared cursor, so a
    /// worker stays in one region of the die for a tile's Gcells and an
    /// idle worker takes the next tile; the cursor only moves *where* a
    /// tile is solved, never what its solve produces. Each worker hands
    /// its `(gcell, solve)` results back when it joins.
    ///
    /// Phase 2 merges the recorded placements sequentially in the fixed
    /// [`TileSchedule::merge_order`] (tiles ascending, tile-local
    /// subepisode order). Placements whose footprint sits at least an
    /// edge-spacing halo inside their window's x-extent are committed
    /// directly — the windows tile disjointly and edge spacing is the
    /// only cross-window rule, so the window-local solve already proved
    /// them legal; only boundary-near placements are re-validated against
    /// the real grid (they can violate edge spacing against a
    /// neighbouring Gcell's cell). Rejected or unplaced cells get a
    /// sequential retry with any caller-configured search window cleared,
    /// so retries may use the whole grid. Every phase after the
    /// embarrassingly-parallel solve is sequential and ordered, which is
    /// what makes the result bit-identical for any thread count —
    /// including the `threads == 1` fallback, which runs the very same
    /// two phases in a plain loop.
    pub fn run_gcells_parallel(
        &mut self,
        design: &mut Design,
        ordering: &Ordering,
        gcells: &GcellGrid,
        threads: usize,
    ) -> RunStats {
        let _t = telemetry::span("legalize.run_gcells_parallel");
        let started = std::time::Instant::now();
        let n = gcells.len();
        // Empty or degenerate grids (no Gcells, or none holding a movable
        // cell) have nothing to solve: never enter the worker machinery.
        if n == 0 || (0..n).all(|g| gcells.cells_of(g).is_empty()) {
            return RunStats::default();
        }
        let tiles = TileSchedule::new(gcells);
        let threads = match threads {
            0 => crate::pool::default_threads(),
            t => t,
        }
        .min(tiles.len());

        // Phase 1: window-restricted, snapshot-isolated per-Gcell solves
        // on per-worker window grids, scheduled as coarse tiles.
        let base_grid = &self.grid;
        let search = self.search;
        let design_ro: &Design = design;
        let hot = &self.hot;
        // The fault plan is thread-scoped: read the caller's here so every
        // worker injects the same faults.
        let panic_at = crate::fault::plan().panic_at_gcell;
        let solve = |scratch: &mut PixelGrid, g: usize| -> GcellSolve {
            if panic_at == Some(g) {
                panic!("injected fault: gcell {g} solve panic");
            }
            let order = ordering.order_hot(design_ro, hot, Some(gcells.cells_of(g)));
            if order.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let win = gcells.window_of(design_ro, g);
            if win.is_degenerate() {
                // No in-window pixel can exist; every cell goes to the
                // sequential retry, as the windowed search would decide.
                return (Vec::new(), order);
            }
            scratch.load(base_grid, design_ro, win);
            let cfg = SearchConfig {
                window: Some(win),
                ..search
            };
            let mut placed = Vec::new();
            let mut failed = Vec::new();
            for cell in order {
                assert!(hot.is_movable(cell), "cannot legalize fixed cell {cell}");
                assert!(
                    !design_ro.cell(cell).legalized,
                    "cell {cell} already legalized"
                );
                match find_position_hot(&*scratch, hot, design_ro, cell, hot.gp_pos(cell), cfg) {
                    Some((pos, _)) => {
                        scratch.place(design_ro, cell, pos);
                        placed.push((cell, pos));
                    }
                    None => failed.push(cell),
                }
            }
            (placed, failed)
        };

        // Each worker claims coarse tiles off the shared cursor and
        // solves their Gcells on one window grid. `Err(())` marks a
        // quarantined Gcell: its solve panicked. The panic is contained
        // here — [`PixelGrid::load`] fully reinitializes the window grid,
        // so the worker's next Gcell is unaffected, and the merge phase
        // retries the Gcell's cells on the sequential size-ordered
        // fallback path instead of aborting the run.
        let next_tile = std::sync::atomic::AtomicUsize::new(0);
        let worker = || {
            let mut scratch = PixelGrid::default();
            let mut out: Vec<(usize, Result<GcellSolve, ()>)> = Vec::new();
            loop {
                let t = next_tile.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if t >= tiles.len() {
                    break;
                }
                for &g in tiles.gcells(t) {
                    let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        solve(&mut scratch, g)
                    }));
                    out.push((g, solved.map_err(drop)));
                }
            }
            out
        };
        let per_worker: Vec<_> = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(worker)).collect();
            let mut all = vec![worker()];
            for h in helpers {
                all.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            all
        });
        if !telemetry::disabled() {
            let mut lo = i64::MAX;
            let mut hi = 0i64;
            for (w, out) in per_worker.iter().enumerate() {
                let done = out.len() as i64;
                telemetry::gauge(&format!("legalize.parallel.worker{w}.gcells")).set(done);
                lo = lo.min(done);
                hi = hi.max(done);
            }
            telemetry::gauge("legalize.tile.imbalance").set(hi - lo);
        }
        let mut results: Vec<Option<Result<GcellSolve, ()>>> = (0..n).map(|_| None).collect();
        for (g, solved) in per_worker.into_iter().flatten() {
            results[g] = Some(solved);
        }

        // Phase 2: deterministic sequential merge, coarse tile by coarse
        // tile in the fixed merge order.
        let mut stats = RunStats::default();
        let mut retry: Vec<CellId> = Vec::new();
        let mut fallback: Vec<CellId> = Vec::new();
        let mut conflicts = 0u64;
        let mut fast_commits = 0u64;
        let sw = design.tech.site_width;
        let halo_sites = (design.tech.max_edge_spacing() + sw - 1).div_euclid(sw);
        for g in tiles.merge_order() {
            let solved = results[g].take().expect("every gcell solved");
            let (placed, failed) = match solved {
                Ok(out) => out,
                Err(()) => {
                    // Quarantine: the solve panicked, so no window-local
                    // result exists. Send every cell of the Gcell to the
                    // sequential size-ordered fallback; the fallback order
                    // is computed here, at merge time, so it is identical
                    // for every thread count.
                    stats.quarantined.push(g);
                    fallback.extend(Ordering::SizeDescending.order_hot(
                        design,
                        &self.hot,
                        Some(gcells.cells_of(g)),
                    ));
                    continue;
                }
            };
            let win = gcells.window_of(design, g);
            for (cell, pos) in placed {
                // Interior fast path: windows tile disjointly, footprint
                // rows stay inside the window, and edge spacing (the only
                // cross-window rule) reaches at most `halo_sites`; a
                // placement that far inside its window's x-extent was
                // fully validated by the window-local solve and cannot
                // conflict with other Gcells' merges. `place` keeps its
                // debug-mode `check_place` tripwire on this path.
                let interior = pos.site - halo_sites >= win.lo_site
                    && pos.site + self.hot.w_sites(cell) + halo_sites <= win.hi_site;
                if interior || self.grid.check_place(design, cell, pos).is_ok() {
                    fast_commits += interior as u64;
                    self.grid.place(design, cell, pos);
                    let p = self.grid.to_dbu(design, pos);
                    let c = design.cell_mut(cell);
                    c.pos = p;
                    c.legalized = true;
                    stats.legalized += 1;
                } else {
                    conflicts += 1;
                    retry.push(cell);
                }
            }
            retry.extend(failed);
        }
        if !telemetry::disabled() {
            telemetry::counter("legalize.parallel.merge_conflicts").add(conflicts);
            telemetry::counter("legalize.parallel.fast_commits").add(fast_commits);
            telemetry::counter("legalize.parallel.retries").add(retry.len() as u64);
            telemetry::counter("legalize.gcell.quarantined").add(stats.quarantined.len() as u64);
        }
        // Merge-retry must see the whole grid: clear any caller-configured
        // window for the duration of the retries.
        let saved_window = self.search.window.take();
        for cell in retry {
            match self.legalize_cell(design, cell) {
                Ok(_) => stats.legalized += 1,
                Err(e) => stats.failed.push(e.cell),
            }
        }
        // Quarantined Gcells run last, on the same sequential full-grid
        // path; for fault-free runs this loop is empty and the run is
        // bit-identical to one without quarantine support.
        let mut fallback_ok = 0u64;
        for cell in fallback {
            match self.legalize_cell(design, cell) {
                Ok(_) => {
                    stats.legalized += 1;
                    fallback_ok += 1;
                }
                Err(e) => stats.failed.push(e.cell),
            }
        }
        if !telemetry::disabled() && fallback_ok > 0 {
            telemetry::counter("legalize.gcell.fallback_ok").add(fallback_ok);
        }
        self.search.window = saved_window;
        if !telemetry::disabled() {
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                telemetry::gauge("legalize.cells_per_sec")
                    .set((stats.legalized as f64 / secs) as i64);
            }
        }
        stats
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

    /// Places `cell` even when the plain search fails, by evicting a small
    /// set of already-legalized cells and re-legalizing them afterwards.
    ///
    /// Plain search failures on dense designs are usually fragmentation:
    /// plenty of free pixels, but no contiguous window for a wide or
    /// multi-row cell. This pass scans every anchor window the cell could
    /// legally occupy, ranks them by target displacement plus an eviction
    /// penalty, and tries the cheapest ones: evict the movable occupants,
    /// commit the target, then re-run the search for each evicted cell.
    /// An attempt where any evicted cell cannot be re-placed is rolled
    /// back exactly, so the design and grid are never left worse than
    /// before the call.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceCellError`] when no attempt succeeds (e.g. the only
    /// windows are blocked by fixed cells, or evictees cannot re-place).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed or already legalized.
    pub fn ripup_place(
        &mut self,
        design: &mut Design,
        cell: CellId,
    ) -> Result<Dbu, PlaceCellError> {
        if let Ok(disp) = self.legalize_cell(design, cell) {
            return Ok(disp);
        }
        if !telemetry::disabled() {
            telemetry::counter("legalize.ripup.attempts").inc();
        }
        /// Most evicted cells per window; windows needing more are skipped.
        const MAX_EVICT: usize = 12;
        /// Most candidate windows actually attempted.
        const MAX_ATTEMPTS: usize = 32;

        let c = design.cell(cell);
        let sw = design.tech.site_width;
        let rh = design.tech.row_height;
        let w_sites = c.width / sw;
        let h_rows = i64::from(c.height_rows);
        let from = c.gp_pos;
        let limit = self.search.displacement_limit.or(design.max_displacement);
        // An eviction is worth roughly one cell's worth of extra movement.
        let evict_penalty = sw + rh;

        // Restrict the scan to the displacement-limit window around the
        // target: anchors whose row or column alone already exceeds the
        // limit can never pass the per-candidate `disp > limit` test the
        // unbounded scan applied, so pruning them is behaviour-preserving.
        let full_rows = (self.grid.rows() - h_rows).max(-1);
        let full_sites = (self.grid.sites_x() - w_sites).max(-1);
        let (lo_row, hi_row, lo_site, hi_site) = match limit {
            Some(l) => {
                let y0 = design.core.lo.y;
                let x0 = design.core.lo.x;
                (
                    (from.y - l - y0 + rh - 1).div_euclid(rh).max(0),
                    (from.y + l - y0).div_euclid(rh).min(full_rows),
                    (from.x - l - x0 + sw - 1).div_euclid(sw).max(0),
                    (from.x + l - x0).div_euclid(sw).min(full_sites),
                )
            }
            None => (0, full_rows, 0, full_sites),
        };
        if !telemetry::disabled() {
            let total = (full_rows + 1).max(0) * (full_sites + 1).max(0);
            let window = (hi_row - lo_row + 1).max(0) * (hi_site - lo_site + 1).max(0);
            telemetry::counter("legalize.ripup.window_pruned").add((total - window).max(0) as u64);
        }

        // Rank every legal-if-evicted anchor window.
        let mut candidates: Vec<(Dbu, crate::pixel::GridPos)> = Vec::new();
        for row in lo_row..=hi_row {
            'site: for site in lo_site..=hi_site {
                let pos = crate::pixel::GridPos { site, row };
                if c.is_rail_constrained() && !c.rail.allows_row(row) {
                    continue;
                }
                let p = self.grid.to_dbu(design, pos);
                let disp = p.manhattan(from);
                if limit.is_some_and(|l| disp > l) {
                    continue;
                }
                // Word-level pre-filter: a window touching a fixed pixel
                // can never be evicted into.
                if self.grid.window_has_fixed(pos, w_sites, h_rows) {
                    continue;
                }
                let mut evicted: Vec<CellId> = Vec::new();
                for r in row..row + h_rows {
                    for s in site..site + w_sites {
                        match self.grid.occupant(s, r) {
                            Some(occ) => {
                                if !evicted.contains(&occ) {
                                    if evicted.len() == MAX_EVICT {
                                        continue 'site;
                                    }
                                    evicted.push(occ);
                                }
                            }
                            None => {
                                if !self.grid.is_free(s, r) {
                                    continue 'site; // fixed-cell pixel
                                }
                            }
                        }
                    }
                }
                if evicted.is_empty() {
                    // The plain search normally covers empty windows; the
                    // ones it rejected (fence, edge spacing) or its radius
                    // bound missed are only worth attempting when directly
                    // legal.
                    if self.grid.check_place(design, cell, pos).is_ok() {
                        candidates.push((disp, pos));
                    }
                    continue;
                }
                candidates.push((disp + evicted.len() as Dbu * evict_penalty, pos));
            }
        }
        candidates.sort_unstable_by_key(|&(cost, pos)| (cost, pos.row, pos.site));

        for &(_, pos) in candidates.iter().take(MAX_ATTEMPTS) {
            // Evict the window's occupants, remembering their spots.
            let mut evicted: Vec<(CellId, rlleg_geom::Point)> = Vec::new();
            for r in pos.row..pos.row + h_rows {
                for s in pos.site..pos.site + w_sites {
                    if let Some(occ) = self.grid.occupant(s, r) {
                        let old = design.cell(occ).pos;
                        self.unlegalize_cell(design, occ);
                        evicted.push((occ, old));
                    }
                }
            }
            let rollback = |lg: &mut Self,
                            design: &mut Design,
                            replaced: &[CellId],
                            evicted: &[(CellId, rlleg_geom::Point)]| {
                for &id in replaced {
                    lg.unlegalize_cell(design, id);
                }
                for &(id, old) in evicted {
                    let gp = lg.grid.to_grid(design, old);
                    lg.grid.place(design, id, gp);
                    let cm = design.cell_mut(id);
                    cm.pos = old;
                    cm.legalized = true;
                }
            };
            // The window may still violate edge spacing against untouched
            // neighbours; if so, restore and try the next one.
            if self.grid.check_place(design, cell, pos).is_err() {
                rollback(self, design, &[], &evicted);
                continue;
            }
            self.grid.place(design, cell, pos);
            let p = self.grid.to_dbu(design, pos);
            let disp = p.manhattan(from);
            let cm = design.cell_mut(cell);
            cm.pos = p;
            cm.legalized = true;
            // Largest evictees first: they are the hardest to re-place.
            let mut order: Vec<CellId> = evicted.iter().map(|&(id, _)| id).collect();
            order.sort_by_key(|&id| {
                let ec = design.cell(id);
                std::cmp::Reverse((i64::from(ec.height_rows), ec.width, id.0))
            });
            let mut replaced: Vec<CellId> = Vec::new();
            let mut ok = true;
            for id in order {
                match self.legalize_cell(design, id) {
                    Ok(_) => replaced.push(id),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if !telemetry::disabled() {
                    telemetry::counter("legalize.ripup.recovered").inc();
                }
                return Ok(disp);
            }
            self.unlegalize_cell(design, cell);
            rollback(self, design, &replaced, &evicted);
        }
        Err(PlaceCellError { cell })
    }

    /// The rearrangement heuristic of the size-ordered baseline: each
    /// legalized cell (worst displacement first) is lifted and re-searched
    /// against the final occupancy; strictly better positions are kept.
    ///
    /// Returns the number of cells improved.
    pub fn rearrange_pass(&mut self, design: &mut Design) -> usize {
        let mut ids: Vec<CellId> = design
            .movable_ids()
            .filter(|&id| design.cell(id).legalized)
            .collect();
        ids.sort_by_key(|&id| std::cmp::Reverse(design.cell(id).displacement()));
        let mut improved = 0;
        for id in ids {
            let old_pos = design.cell(id).pos;
            let old_disp = design.cell(id).displacement();
            if old_disp == 0 {
                break; // sorted descending: nothing left to improve
            }
            // A cell legally wedged between two neighbours can be the only
            // thing keeping them apart — lifting it would expose an
            // edge-spacing violation check_place never re-examines.
            if !self
                .grid
                .vacate_safe(design, id, self.grid.to_grid(design, old_pos))
            {
                continue;
            }
            self.unlegalize_cell(design, id);
            match find_position_hot(
                &self.grid,
                &self.hot,
                design,
                id,
                self.hot.gp_pos(id),
                self.search,
            ) {
                Some((pos, disp)) if disp < old_disp => {
                    self.grid.place(design, id, pos);
                    let p = self.grid.to_dbu(design, pos);
                    let c = design.cell_mut(id);
                    c.pos = p;
                    c.legalized = true;
                    improved += 1;
                }
                _ => {
                    // Restore the original spot (always still legal).
                    let pos = self.grid.to_grid(design, old_pos);
                    self.grid.place(design, id, pos);
                    let c = design.cell_mut(id);
                    c.pos = old_pos;
                    c.legalized = true;
                }
            }
        }
        improved
    }

    /// The cell-swap heuristic of the size-ordered baseline: pairs of
    /// geometrically interchangeable cells (same width, height, rail
    /// parity, edge types, and fence) are swapped when that strictly
    /// reduces their combined displacement.
    ///
    /// Returns the number of swaps applied.
    pub fn swap_pass(&mut self, design: &mut Design) -> usize {
        use std::collections::HashMap;
        /// Geometric interchangeability key: width, height, odd-rail flag,
        /// edge types, fence.
        type SwapKey = (Dbu, u8, bool, u8, u8, Option<u16>);
        // Group interchangeable cells.
        let mut groups: HashMap<SwapKey, Vec<CellId>> = HashMap::new();
        for id in design.movable_ids() {
            let c = design.cell(id);
            if !c.legalized {
                continue;
            }
            let key = (
                c.width,
                c.height_rows,
                c.is_rail_constrained() && matches!(c.rail, rlleg_design::RailParity::Odd),
                c.edge_left.0,
                c.edge_right.0,
                c.region.map(|r| r.0),
            );
            groups.entry(key).or_default().push(id);
        }
        let mut swaps = 0;
        for ids in groups.values() {
            if ids.len() < 2 {
                continue;
            }
            // Greedy: examine pairs in a displacement-weighted order. The
            // group sizes in real designs make full O(k^2) acceptable for
            // k up to a few hundred; larger groups are truncated to the
            // worst offenders.
            let mut sorted = ids.clone();
            sorted.sort_by_key(|&id| std::cmp::Reverse(design.cell(id).displacement()));
            sorted.truncate(400);
            for i in 0..sorted.len() {
                for j in (i + 1)..sorted.len() {
                    let (a, b) = (sorted[i], sorted[j]);
                    let ca = design.cell(a);
                    let cb = design.cell(b);
                    let now = ca.displacement() + cb.displacement();
                    let disp_b_at_a = ca.pos.manhattan(cb.gp_pos);
                    let disp_a_at_b = cb.pos.manhattan(ca.gp_pos);
                    let within_limit = design
                        .max_displacement
                        .is_none_or(|l| disp_b_at_a <= l && disp_a_at_b <= l);
                    if within_limit && disp_b_at_a + disp_a_at_b < now {
                        let pa = ca.pos;
                        let pb = cb.pos;
                        design.cell_mut(a).pos = pb;
                        design.cell_mut(b).pos = pa;
                        // Same-footprint swap: occupancy pixels and the
                        // row index just exchange owners.
                        let ga = self.grid.to_grid(design, pa);
                        let gb = self.grid.to_grid(design, pb);
                        self.grid.remove(design, a, ga);
                        self.grid.remove(design, b, gb);
                        self.grid.place(design, a, gb);
                        self.grid.place(design, b, ga);
                        swaps += 1;
                    }
                }
            }
        }
        swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::GridWindow;
    use rlleg_design::{legality, metrics::Qor, DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn dense_design(n: usize, seed: u64) -> Design {
        // Deterministic pseudo-random overlapping placement.
        let mut b = DesignBuilder::new("lg", Technology::contest(), 60, 12);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            let w = 1 + (next() % 3) as i64;
            let h = 1 + (next() % 7 / 3) as u8; // mostly 1, some 2-3
            let x = (next() % 11_000) as i64;
            let y = (next() % 22_000) as i64;
            b.add_cell(format!("u{i}"), w, h, Point::new(x, y));
        }
        b.build()
    }

    #[test]
    fn run_produces_legal_placement() {
        let mut d = dense_design(60, 1);
        let mut lg = Legalizer::new(&d);
        let stats = lg.run(&mut d, &Ordering::SizeDescending);
        assert!(stats.is_complete(), "failed: {:?}", stats.failed);
        assert!(
            legality::is_legal(&d),
            "{:?}",
            legality::check(&d, true).first()
        );
    }

    #[test]
    fn random_orders_also_legal_but_different_qor() {
        let mut qors = Vec::new();
        for seed in 0..5 {
            let mut d = dense_design(60, 2);
            let mut lg = Legalizer::new(&d);
            let stats = lg.run(&mut d, &Ordering::Random(seed));
            assert!(stats.is_complete());
            assert!(legality::is_legal(&d));
            qors.push(Qor::measure(&d).total_displacement);
        }
        assert!(
            qors.iter().any(|&q| q != qors[0]),
            "order should affect displacement: {qors:?}"
        );
    }

    #[test]
    fn legalize_cell_reports_displacement() {
        let mut b = DesignBuilder::new("one", Technology::contest(), 10, 4);
        let a = b.add_cell("a", 1, 1, Point::new(250, 100));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        let disp = lg.legalize_cell(&mut d, a).expect("placed");
        assert_eq!(disp, 50 + 100, "snap to (200, 0)");
        assert_eq!(d.cell(a).pos, Point::new(200, 0));
        assert!(d.cell(a).legalized);
    }

    #[test]
    #[should_panic(expected = "already legalized")]
    fn double_legalize_panics() {
        let mut b = DesignBuilder::new("one", Technology::contest(), 10, 4);
        let a = b.add_cell("a", 1, 1, Point::new(0, 0));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        lg.legalize_cell(&mut d, a).expect("first is fine");
        let _ = lg.legalize_cell(&mut d, a);
    }

    #[test]
    fn failure_is_reported_and_design_untouched() {
        // Core fully covered by a macro: nowhere to go.
        let mut b = DesignBuilder::new("full", Technology::contest(), 10, 4);
        let a = b.add_cell("a", 1, 1, Point::new(0, 0));
        b.add_fixed_cell("m", 10, 4, Point::new(0, 0));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        let stats = lg.run(&mut d, &Ordering::SizeDescending);
        assert_eq!(stats.failed, vec![a]);
        assert!(!d.cell(a).legalized);
        assert_eq!(d.cell(a).pos, d.cell(a).gp_pos);
    }

    #[test]
    fn unlegalize_round_trip() {
        let mut b = DesignBuilder::new("u", Technology::contest(), 10, 4);
        let a = b.add_cell("a", 2, 1, Point::new(450, 100));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        lg.legalize_cell(&mut d, a).expect("placed");
        let placed = d.cell(a).pos;
        lg.unlegalize_cell(&mut d, a);
        assert_eq!(d.cell(a).pos, d.cell(a).gp_pos);
        assert!(!d.cell(a).legalized);
        // The pixel is free again.
        let g = lg.grid().to_grid(&d, placed);
        assert!(lg.grid().is_free(g.site, g.row));
    }

    #[test]
    fn new_re_rasterizes_legalized_cells() {
        let mut d = dense_design(30, 3);
        let mut lg = Legalizer::new(&d);
        lg.run(&mut d, &Ordering::SizeDescending);
        // Rebuild from the committed design: grid must block placed cells.
        let lg2 = Legalizer::new(&d);
        let any = d.movable_ids().next().expect("cells");
        let pos = lg2.grid().to_grid(&d, d.cell(any).pos);
        assert_eq!(lg2.grid().occupant(pos.site, pos.row), Some(any));
    }

    #[test]
    fn ripup_places_fragmented_tall_cell() {
        // 6 sites x 3 rows; one 1x1 cell per column, staggered across rows,
        // so every column is broken and a 1x3 cell has no contiguous window
        // — the classic fragmentation failure.
        let mut b = DesignBuilder::new("rip", Technology::contest(), 6, 3);
        let mut small = Vec::new();
        for s in 0..6i64 {
            small.push(b.add_cell(format!("s{s}"), 1, 1, Point::new(s * 200, (s % 3) * 2_000)));
        }
        let tall = b.add_cell("tall", 1, 3, Point::new(400, 0));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        for &id in &small {
            lg.legalize_cell(&mut d, id)
                .expect("small cell at its spot");
        }
        assert!(
            lg.legalize_cell(&mut d, tall).is_err(),
            "fragmented grid must defeat the plain search"
        );
        lg.ripup_place(&mut d, tall).expect("rip-up succeeds");
        assert!(d.cell(tall).legalized);
        assert!(
            d.movable_ids().all(|id| d.cell(id).legalized),
            "evicted cells must be re-placed"
        );
        assert!(
            legality::is_legal(&d),
            "{:?}",
            legality::check(&d, true).first()
        );
    }

    #[test]
    fn ripup_fails_cleanly_when_impossible() {
        let mut b = DesignBuilder::new("imp", Technology::contest(), 8, 2);
        let a = b.add_cell("a", 1, 1, Point::new(0, 0));
        b.add_fixed_cell("m", 8, 2, Point::new(0, 0));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        assert!(lg.ripup_place(&mut d, a).is_err());
        assert!(!d.cell(a).legalized);
        assert_eq!(d.cell(a).pos, d.cell(a).gp_pos);
    }

    #[test]
    fn ripup_rolls_back_exactly_when_evictees_cannot_replace() {
        // 2 sites x 3 rows, every pixel occupied: both candidate windows
        // require evicting three cells that then have nowhere to go. The
        // attempt must fail and restore every cell to its original spot.
        let mut b = DesignBuilder::new("rb", Technology::contest(), 2, 3);
        let mut small = Vec::new();
        for s in 0..2i64 {
            for r in 0..3i64 {
                small.push(b.add_cell(format!("s{s}_{r}"), 1, 1, Point::new(s * 200, r * 2_000)));
            }
        }
        let tall = b.add_cell("tall", 1, 3, Point::new(0, 0));
        let mut d = b.build();
        let mut lg = Legalizer::new(&d);
        for &id in &small {
            lg.legalize_cell(&mut d, id)
                .expect("small cell at its spot");
        }
        let before: Vec<_> = small.iter().map(|&id| d.cell(id).pos).collect();
        assert!(lg.ripup_place(&mut d, tall).is_err());
        assert!(!d.cell(tall).legalized);
        for (&id, &pos) in small.iter().zip(&before) {
            assert_eq!(d.cell(id).pos, pos, "rollback must restore {id}");
            assert!(d.cell(id).legalized);
        }
        // The grid still answers consistently: every original spot occupied.
        for &id in &small {
            let g = lg.grid().to_grid(&d, d.cell(id).pos);
            assert_eq!(lg.grid().occupant(g.site, g.row), Some(id));
        }
    }

    #[test]
    fn rearrange_never_worsens_and_stays_legal() {
        let mut d = dense_design(80, 4);
        let mut lg = Legalizer::new(&d);
        lg.run(&mut d, &Ordering::SizeDescending);
        let before = Qor::measure(&d);
        let improved = lg.rearrange_pass(&mut d);
        let after = Qor::measure(&d);
        assert!(after.total_displacement <= before.total_displacement);
        assert!(
            legality::is_legal(&d),
            "{:?}",
            legality::check(&d, true).first()
        );
        // On a dense design, rearrangement should find at least one win.
        let _ = improved;
    }

    #[test]
    fn swap_never_worsens_and_stays_legal() {
        let mut d = dense_design(80, 5);
        let mut lg = Legalizer::new(&d);
        lg.run(&mut d, &Ordering::Random(9));
        let before = Qor::measure(&d);
        let swaps = lg.swap_pass(&mut d);
        let after = Qor::measure(&d);
        assert!(
            after.total_displacement <= before.total_displacement,
            "swaps: {swaps}"
        );
        assert!(
            legality::is_legal(&d),
            "{:?}",
            legality::check(&d, true).first()
        );
    }

    #[test]
    fn parallel_run_on_empty_or_fixed_only_design_returns_empty_stats() {
        // No cells at all.
        let mut d = DesignBuilder::new("none", Technology::contest(), 12, 4).build();
        let g = GcellGrid::new(&d, 2, 2);
        let mut lg = Legalizer::new(&d);
        assert_eq!(
            lg.run_gcells_parallel(&mut d, &Ordering::SizeDescending, &g, 8),
            RunStats::default()
        );
        // Only fixed cells: every Gcell exists but holds nothing movable.
        let mut b = DesignBuilder::new("fixed", Technology::contest(), 12, 4);
        b.add_fixed_cell("m", 4, 2, Point::new(400, 0));
        let mut d = b.build();
        let g = GcellGrid::new(&d, 3, 2);
        let mut lg = Legalizer::new(&d);
        let stats = lg.run_gcells_parallel(&mut d, &Ordering::SizeDescending, &g, 8);
        assert_eq!(stats, RunStats::default());
        assert!(stats.is_complete());
    }

    #[test]
    fn merge_retry_clears_caller_window_and_escapes_the_gcell() {
        // 20 sites x 2 rows, split into a left and a right Gcell. The right
        // half is fully covered by a macro, so the cell whose global
        // placement lands there fails its windowed Gcell solve and goes to
        // the merge-retry. The caller's own search window also points at
        // the blocked right half: the retry must clear it, or the cell can
        // never reach the free left half.
        let mut b = DesignBuilder::new("retry", Technology::contest(), 20, 2);
        let a = b.add_cell("a", 1, 1, Point::new(3_000, 0));
        b.add_fixed_cell("m", 10, 2, Point::new(2_000, 0));
        let mut d = b.build();
        let g = GcellGrid::new(&d, 2, 1);
        let right_half = GridWindow {
            lo_site: 10,
            lo_row: 0,
            hi_site: 20,
            hi_row: 2,
        };
        let mut lg = Legalizer::with_config(
            &d,
            SearchConfig {
                window: Some(right_half),
                ..SearchConfig::default()
            },
        );
        let stats = lg.run_gcells_parallel(&mut d, &Ordering::SizeDescending, &g, 2);
        assert!(stats.is_complete(), "failed: {:?}", stats.failed);
        assert_eq!(stats.legalized, 1);
        assert!(d.cell(a).legalized);
        assert!(
            d.cell(a).pos.x < 2_000,
            "must land in the left half, got {:?}",
            d.cell(a).pos
        );
        // The caller's window is restored after the retries.
        assert_eq!(lg.search.window, Some(right_half));
    }

    #[test]
    fn quarantined_gcell_recovers_via_sequential_fallback() {
        use crate::fault::{arm, FaultPlan};
        let d0 = dense_design(60, 7);
        let g = GcellGrid::new(&d0, 2, 2);
        let target = (0..g.len())
            .find(|&i| !g.cells_of(i).is_empty())
            .expect("a populated gcell");

        // Reference fault-free run: accounts for every movable cell.
        let mut dr = d0.clone();
        let ref_stats =
            Legalizer::new(&dr).run_gcells_parallel(&mut dr, &Ordering::SizeDescending, &g, 2);
        assert!(ref_stats.quarantined.is_empty());

        let _guard = arm(FaultPlan {
            panic_at_gcell: Some(target),
            ..FaultPlan::default()
        });
        // The faulted run must complete (no abort), quarantine exactly the
        // targeted Gcell, still account for every movable cell, and be
        // bit-identical across thread counts.
        let mut reference: Option<Design> = None;
        for threads in [1usize, 2, 4] {
            let mut d = d0.clone();
            let stats = Legalizer::new(&d).run_gcells_parallel(
                &mut d,
                &Ordering::SizeDescending,
                &g,
                threads,
            );
            assert_eq!(stats.quarantined, vec![target], "threads={threads}");
            assert_eq!(
                stats.legalized + stats.failed.len(),
                d.num_movable(),
                "threads={threads}"
            );
            assert!(
                legality::is_legal(&d) || !stats.is_complete(),
                "threads={threads}: {:?}",
                legality::check(&d, true).first()
            );
            match &reference {
                None => reference = Some(d),
                Some(r) => {
                    for id in r.cell_ids() {
                        assert_eq!(
                            r.cell(id).pos,
                            d.cell(id).pos,
                            "threads={threads}: faulted runs must stay deterministic"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_fault_armed_on_another_thread_never_reaches_this_run() {
        use crate::fault::{arm, FaultPlan};
        use std::sync::Barrier;
        let d0 = dense_design(60, 7);
        let g = GcellGrid::new(&d0, 4, 4);
        assert!(TileSchedule::new(&g).len() > 1, "needs a multi-tile grid");
        let target = (0..g.len())
            .find(|&i| !g.cells_of(i).is_empty())
            .expect("a populated gcell");
        let (armed, finished) = (Barrier::new(2), Barrier::new(2));
        let stats = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = arm(FaultPlan {
                    panic_at_gcell: Some(target),
                    ..FaultPlan::default()
                });
                armed.wait();
                // Keep the plan armed until the other run is over.
                finished.wait();
            });
            armed.wait();
            let mut d = d0.clone();
            let stats =
                Legalizer::new(&d).run_gcells_parallel(&mut d, &Ordering::SizeDescending, &g, 2);
            finished.wait();
            stats
        });
        assert!(
            stats.quarantined.is_empty(),
            "another thread's plan quarantined {:?}",
            stats.quarantined
        );
        assert!(stats.is_complete(), "failed: {:?}", stats.failed);
    }

    #[test]
    fn fault_free_runs_have_no_quarantine() {
        let mut d = dense_design(40, 8);
        let g = GcellGrid::new(&d, 2, 2);
        let stats =
            Legalizer::new(&d).run_gcells_parallel(&mut d, &Ordering::SizeDescending, &g, 4);
        assert!(stats.quarantined.is_empty());
    }

    #[test]
    fn gcell_run_matches_flat_run_cell_coverage() {
        let mut d1 = dense_design(60, 6);
        let mut d2 = d1.clone();
        let mut lg1 = Legalizer::new(&d1);
        let s1 = lg1.run(&mut d1, &Ordering::SizeDescending);
        let g = GcellGrid::new(&d2, 2, 2);
        let mut lg2 = Legalizer::new(&d2);
        let s2 = lg2.run_gcells(&mut d2, &Ordering::SizeDescending, &g);
        assert_eq!(
            s1.legalized + s1.failed.len(),
            s2.legalized + s2.failed.len()
        );
        assert!(legality::is_legal(&d2) || !s2.is_complete());
    }
}
