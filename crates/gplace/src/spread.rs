//! Bin-grid density accounting and diffusion-based spreading.
//!
//! The placer deposits movable-cell area into a uniform bin grid, measures
//! *overflow* (the fraction of movable area sitting above bin capacity),
//! and — when overflow is too high — integrates cell positions through a
//! few steps of a density diffusion field to obtain spread targets. The
//! targets feed back into the quadratic solve as anchored pseudo-pins.

use rlleg_design::{Design, HotCells};
use rlleg_geom::Rect;

/// Uniform bin grid over the core with per-bin capacity (placeable area
/// times target density).
#[derive(Debug)]
pub struct BinGrid {
    nx: usize,
    ny: usize,
    /// Bin width/height in dbu.
    bw: f64,
    bh: f64,
    /// Core lower-left corner.
    x0: f64,
    y0: f64,
    /// Per-bin usable capacity in dbu² (already scaled by target density).
    cap: Vec<f64>,
    /// Per-bin deposited movable area in dbu².
    usage: Vec<f64>,
}

impl BinGrid {
    /// Builds the grid, subtracting fixed-cell (macro) area from bin
    /// capacity.
    pub fn new(design: &Design, nx: usize, ny: usize, target_density: f64) -> BinGrid {
        let core = design.core;
        let (nx, ny) = (nx.max(1), ny.max(1));
        let bw = core.width() as f64 / nx as f64;
        let bh = core.height() as f64 / ny as f64;
        let mut cap = vec![bw * bh; nx * ny];
        let rh = design.tech.row_height;
        for c in design.cells.iter().filter(|c| !c.is_movable()) {
            let Some(r) = c.rect(rh).intersection(&core) else {
                continue;
            };
            subtract_rect(&mut cap, nx, ny, bw, bh, core, &r);
        }
        for c in cap.iter_mut() {
            *c = (*c).max(0.0) * target_density;
        }
        BinGrid {
            nx,
            ny,
            bw,
            bh,
            x0: core.lo.x as f64,
            y0: core.lo.y as f64,
            cap,
            usage: vec![0.0; nx * ny],
        }
    }

    /// Bin count per axis.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Per-bin capacity in dbu², row-major.
    pub fn capacity(&self) -> &[f64] {
        &self.cap
    }

    /// Per-bin deposited movable area in dbu², row-major.
    pub fn usage(&self) -> &[f64] {
        &self.usage
    }

    /// Core lower-left corner and bin pitch: `(x0, y0, bw, bh)`.
    pub fn geometry(&self) -> (f64, f64, f64, f64) {
        (self.x0, self.y0, self.bw, self.bh)
    }

    /// Deposits every movable cell's area into the grid at the given
    /// positions (`xs`/`ys` indexed by placer variable).
    pub fn deposit(
        &mut self,
        design: &Design,
        hot: &HotCells,
        var_of: &[u32],
        xs: &[f64],
        ys: &[f64],
    ) {
        self.usage.iter_mut().for_each(|u| *u = 0.0);
        let rh = design.tech.row_height as f64;
        for id in hot.movable_ids() {
            let v = var_of[id.index()] as usize;
            let w = hot.width(id) as f64;
            let h = hot.h_rows(id) as f64 * rh;
            self.add_area(xs[v], ys[v], w, h);
        }
    }

    fn add_area(&mut self, x: f64, y: f64, w: f64, h: f64) {
        let fx0 = (x - self.x0) / self.bw;
        let fx1 = (x + w - self.x0) / self.bw;
        let fy0 = (y - self.y0) / self.bh;
        let fy1 = (y + h - self.y0) / self.bh;
        // The covered bins. A float-to-int cast truncates and sends
        // negatives and NaN to 0, so these are `floor().max(0.0)` and
        // `ceil().max(1.0)` without a libm call.
        let bx0 = (fx0 as usize).min(self.nx - 1);
        let bx1 = ceil_index(fx1).clamp(1, self.nx);
        let by0 = (fy0 as usize).min(self.ny - 1);
        let by1 = ceil_index(fy1).clamp(1, self.ny);
        for by in by0..by1 {
            let oy = overlap_1d(fy0, fy1, by as f64, by as f64 + 1.0) * self.bh;
            if oy <= 0.0 {
                continue;
            }
            for bx in bx0..bx1 {
                let ox = overlap_1d(fx0, fx1, bx as f64, bx as f64 + 1.0) * self.bw;
                if ox > 0.0 {
                    self.usage[by * self.nx + bx] += ox * oy;
                }
            }
        }
    }

    /// Overflow fraction: movable area above bin capacity divided by total
    /// movable area (0 when the grid is empty).
    pub fn overflow(&self) -> f64 {
        let total: f64 = self.usage.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let over: f64 = self
            .usage
            .iter()
            .zip(&self.cap)
            .map(|(&u, &c)| (u - c).max(0.0))
            .sum();
        over / total
    }

    /// Integrates cell positions through their *own* density diffusion
    /// field until peak utilization flattens below `stop_util` (or
    /// `max_steps`), returning spread targets. `nu` is the diffusion
    /// coefficient (stable for `nu <= 0.25`; face velocities are bounded by
    /// `2 * nu` bins per step).
    ///
    /// Every step re-deposits the moved cells and advects them along the
    /// continuity-equation velocity of the resulting utilization field
    /// `rho = usage / capacity` — a Lagrangian integration of
    /// `d rho / dt = nu * lap(rho)`. Re-depositing each step is load-bearing:
    /// diffusing a *fixed* field while tracers lag lets the field flatten
    /// underneath a collapsed cluster whose center never feels a gradient,
    /// leaving the cells stuck. Here the field is always the cells' actual
    /// density, so gradients persist exactly until the cells have moved.
    /// The smooth flow preserves relative cell order (and with it most of
    /// the wirelength).
    /// `jitter` is a deterministic per-variable sub-site offset applied to
    /// the starting targets: exactly-coincident cells would otherwise see
    /// identical velocities and move in lockstep forever.
    ///
    /// A step deposits the cells in cell order, then gives every bin face
    /// its velocity once: `-nu * (rho_hi - rho_lo) / max(mean rho, 0.05)`
    /// bins per step, and 0 on the die boundary, which carries no flux.
    /// Each cell then interpolates its bin's two faces per axis by where
    /// its center sits in the bin. At a density peak the left face flows
    /// left and the right face flows right, so cells at a cluster center
    /// still split apart; a centered-gradient sample would be zero there
    /// by symmetry and leave them stuck. The cells' variables, sizes and
    /// clamp bounds are gathered once per call.
    ///
    /// The targets are bit for bit those of the per-cell sampler this
    /// kernel replaced, which computed the four faces around a cell for
    /// every cell: a face's velocity is the same `f64` whichever cell
    /// reads it, and the advection keeps every operand, clamp bound and
    /// addition order. The unit tests keep that sampler as the oracle and
    /// compare with `f64::to_bits`.
    ///
    /// With telemetry on, the steps that moved cells are counted on
    /// `gplace.spread.steps`.
    #[allow(clippy::too_many_arguments)]
    pub fn spread_targets(
        &mut self,
        design: &Design,
        hot: &HotCells,
        var_of: &[u32],
        xs: &[f64],
        ys: &[f64],
        jitter: &[(f64, f64)],
        max_steps: usize,
        stop_util: f64,
        nu: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (nx, ny) = (self.nx, self.ny);
        // Zero-capacity bins (fully blocked by macros) read as highly
        // over-full so cells flow out of them.
        let floor = 0.01 * self.bw * self.bh;
        let rh = design.tech.row_height as f64;
        let (x_end, y_end) = (self.x0 + nx as f64 * self.bw, self.y0 + ny as f64 * self.bh);
        let cells: Vec<Mover> = hot
            .movable_ids()
            .map(|id| {
                let w = hot.width(id) as f64;
                let h = hot.h_rows(id) as f64 * rh;
                Mover {
                    v: var_of[id.index()] as usize,
                    w,
                    h,
                    // A cell wider/taller than the whole grid inverts the
                    // clamp range; pin such cells to the grid origin instead.
                    hi_x: (x_end - w).max(self.x0),
                    hi_y: (y_end - h).max(self.y0),
                }
            })
            .collect();
        let mut tx = xs.to_vec();
        let mut ty = ys.to_vec();
        for c in &cells {
            let (jx, jy) = jitter.get(c.v).copied().unwrap_or((0.0, 0.0));
            tx[c.v] += jx;
            ty[c.v] += jy;
        }
        let mut rho = vec![0.0f64; nx * ny];
        // Face velocities in bins per step: `vel_x[by * (nx + 1) + bx]` is
        // the face left of bin `(bx, by)` and `vel_y[by * nx + bx]` the one
        // below it. The die-boundary faces are never written.
        let mut vel_x = vec![0.0f64; (nx + 1) * ny];
        let mut vel_y = vec![0.0f64; nx * (ny + 1)];
        let face = |lo: f64, hi: f64| -nu * (hi - lo) / ((lo + hi) * 0.5).max(0.05);
        let mut steps = 0u64;
        for _ in 0..max_steps {
            self.usage.iter_mut().for_each(|u| *u = 0.0);
            for c in &cells {
                self.add_area(tx[c.v], ty[c.v], c.w, c.h);
            }
            for (r, (&u, &c)) in rho.iter_mut().zip(self.usage.iter().zip(&self.cap)) {
                *r = u / c.max(floor);
            }
            let peak = rho.iter().cloned().fold(0.0f64, f64::max);
            if peak <= stop_util {
                break;
            }
            steps += 1;
            for (row, vel) in rho.chunks_exact(nx).zip(vel_x.chunks_exact_mut(nx + 1)) {
                for (v, pair) in vel[1..nx].iter_mut().zip(row.windows(2)) {
                    *v = face(pair[0], pair[1]);
                }
            }
            for ((lo, hi), vel) in rho
                .chunks_exact(nx)
                .zip(rho[nx..].chunks_exact(nx))
                .zip(vel_y[nx..].chunks_exact_mut(nx))
            {
                for ((v, &l), &h) in vel.iter_mut().zip(lo).zip(hi) {
                    *v = face(l, h);
                }
            }
            for c in &cells {
                // Sample the velocity at the cell *center*: a corner sample
                // biases the flow and lets a cell's own deposited mass push
                // it sideways once cells are comparable to bin size.
                let hw = c.w * 0.5;
                let hh = c.h * 0.5;
                let fx = ((tx[c.v] + hw - self.x0) / self.bw).clamp(0.0, nx as f64 - 1e-9);
                let fy = ((ty[c.v] + hh - self.y0) / self.bh).clamp(0.0, ny as f64 - 1e-9);
                // Both are at least 0 (or NaN, which casts to 0), so the
                // truncating cast is their floor without a libm call.
                let bx = (fx as usize).min(nx - 1);
                let by = (fy as usize).min(ny - 1);
                let ax = fx - bx as f64;
                let ay = fy - by as f64;
                let fxi = by * (nx + 1) + bx;
                let fyi = by * nx + bx;
                let vx = vel_x[fxi] * (1.0 - ax) + vel_x[fxi + 1] * ax;
                let vy = vel_y[fyi] * (1.0 - ay) + vel_y[fyi + nx] * ay;
                tx[c.v] = (tx[c.v] + vx * self.bw).clamp(self.x0, c.hi_x);
                ty[c.v] = (ty[c.v] + vy * self.bh).clamp(self.y0, c.hi_y);
            }
        }
        telemetry::counter("gplace.spread.steps").add(steps);
        (tx, ty)
    }
}

/// One movable cell as [`BinGrid::spread_targets`] sees it: its variable,
/// its size in dbu and the upper clamp bounds of its lower-left corner.
struct Mover {
    v: usize,
    w: f64,
    h: f64,
    hi_x: f64,
    hi_y: f64,
}

/// `f.ceil()` cast to `usize`: 0 for negatives and NaN, saturating above.
fn ceil_index(f: f64) -> usize {
    let t = f as usize;
    t.saturating_add(usize::from((t as f64) < f))
}

/// Overlap length of `[a0, a1)` and `[b0, b1)` in bin units.
fn overlap_1d(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

fn subtract_rect(cap: &mut [f64], nx: usize, ny: usize, bw: f64, bh: f64, core: Rect, r: &Rect) {
    let fx0 = (r.lo.x - core.lo.x) as f64 / bw;
    let fx1 = (r.hi.x - core.lo.x) as f64 / bw;
    let fy0 = (r.lo.y - core.lo.y) as f64 / bh;
    let fy1 = (r.hi.y - core.lo.y) as f64 / bh;
    let bx0 = (fx0.floor().max(0.0) as usize).min(nx - 1);
    let bx1 = (fx1.ceil().max(1.0) as usize).min(nx);
    let by0 = (fy0.floor().max(0.0) as usize).min(ny - 1);
    let by1 = (fy1.ceil().max(1.0) as usize).min(ny);
    for by in by0..by1 {
        let oy = overlap_1d(fy0, fy1, by as f64, by as f64 + 1.0) * bh;
        for bx in bx0..bx1 {
            let ox = overlap_1d(fx0, fx1, bx as f64, bx as f64 + 1.0) * bw;
            cap[by * nx + bx] -= ox * oy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rlleg_design::{DesignBuilder, Technology};
    use rlleg_geom::Point;

    /// The per-cell velocity sampler `spread_targets` ran before the
    /// per-face kernel, kept as the kernel's differential oracle.
    impl BinGrid {
        #[allow(clippy::too_many_arguments)]
        fn reference_spread_targets(
            &mut self,
            design: &Design,
            hot: &HotCells,
            var_of: &[u32],
            xs: &[f64],
            ys: &[f64],
            jitter: &[(f64, f64)],
            max_steps: usize,
            stop_util: f64,
            nu: f64,
        ) -> (Vec<f64>, Vec<f64>) {
            let (nx, ny) = (self.nx, self.ny);
            let floor = 0.01 * self.bw * self.bh;
            let mut tx = xs.to_vec();
            let mut ty = ys.to_vec();
            for id in hot.movable_ids() {
                let v = var_of[id.index()] as usize;
                let (jx, jy) = jitter.get(v).copied().unwrap_or((0.0, 0.0));
                tx[v] += jx;
                ty[v] += jy;
            }
            let mut rho = vec![0.0f64; nx * ny];
            for _ in 0..max_steps {
                self.reference_deposit(design, hot, var_of, &tx, &ty);
                for (r, (&u, &c)) in rho.iter_mut().zip(self.usage.iter().zip(&self.cap)) {
                    *r = u / c.max(floor);
                }
                let peak = rho.iter().cloned().fold(0.0f64, f64::max);
                if peak <= stop_util {
                    break;
                }
                let rh = design.tech.row_height as f64;
                for id in hot.movable_ids() {
                    let v = var_of[id.index()] as usize;
                    let hw = hot.width(id) as f64 * 0.5;
                    let hh = hot.h_rows(id) as f64 * rh * 0.5;
                    let fx = ((tx[v] + hw - self.x0) / self.bw).clamp(0.0, nx as f64 - 1e-9);
                    let fy = ((ty[v] + hh - self.y0) / self.bh).clamp(0.0, ny as f64 - 1e-9);
                    let (vx, vy) = self.velocity(&rho, fx, fy, nu);
                    let hi_x = (self.x0 + nx as f64 * self.bw - 2.0 * hw).max(self.x0);
                    let hi_y = (self.y0 + ny as f64 * self.bh - 2.0 * hh).max(self.y0);
                    tx[v] = (tx[v] + vx * self.bw).clamp(self.x0, hi_x);
                    ty[v] = (ty[v] + vy * self.bh).clamp(self.y0, hi_y);
                }
            }
            (tx, ty)
        }

        /// [`BinGrid::deposit`] as it was, with `floor` and `ceil` bounding
        /// each cell's bin range.
        fn reference_deposit(
            &mut self,
            design: &Design,
            hot: &HotCells,
            var_of: &[u32],
            xs: &[f64],
            ys: &[f64],
        ) {
            self.usage.iter_mut().for_each(|u| *u = 0.0);
            let rh = design.tech.row_height as f64;
            for id in hot.movable_ids() {
                let v = var_of[id.index()] as usize;
                let (x, y) = (xs[v], ys[v]);
                let w = hot.width(id) as f64;
                let h = hot.h_rows(id) as f64 * rh;
                let fx0 = (x - self.x0) / self.bw;
                let fx1 = (x + w - self.x0) / self.bw;
                let fy0 = (y - self.y0) / self.bh;
                let fy1 = (y + h - self.y0) / self.bh;
                let bx0 = (fx0.floor().max(0.0) as usize).min(self.nx - 1);
                let bx1 = (fx1.ceil().max(1.0) as usize).min(self.nx);
                let by0 = (fy0.floor().max(0.0) as usize).min(self.ny - 1);
                let by1 = (fy1.ceil().max(1.0) as usize).min(self.ny);
                for by in by0..by1 {
                    let oy = overlap_1d(fy0, fy1, by as f64, by as f64 + 1.0) * self.bh;
                    if oy <= 0.0 {
                        continue;
                    }
                    for bx in bx0..bx1 {
                        let ox = overlap_1d(fx0, fx1, bx as f64, bx as f64 + 1.0) * self.bw;
                        if ox > 0.0 {
                            self.usage[by * self.nx + bx] += ox * oy;
                        }
                    }
                }
            }
        }

        /// Face-flux continuity velocity (in bins per step) at fractional
        /// bin coordinates, from the four faces around the sample's bin.
        fn velocity(&self, rho: &[f64], fx: f64, fy: f64, nu: f64) -> (f64, f64) {
            let (nx, ny) = (self.nx, self.ny);
            let bx = (fx.floor() as usize).min(nx - 1);
            let by = (fy.floor() as usize).min(ny - 1);
            let ax = fx - bx as f64;
            let ay = fy - by as f64;
            let floor = 0.05;
            let face = |lo: f64, hi: f64| -nu * (hi - lo) / ((lo + hi) * 0.5).max(floor);
            let c = rho[by * nx + bx];
            let vx_lo = if bx == 0 {
                0.0
            } else {
                face(rho[by * nx + bx - 1], c)
            };
            let vx_hi = if bx + 1 >= nx {
                0.0
            } else {
                face(c, rho[by * nx + bx + 1])
            };
            let vy_lo = if by == 0 {
                0.0
            } else {
                face(rho[(by - 1) * nx + bx], c)
            };
            let vy_hi = if by + 1 >= ny {
                0.0
            } else {
                face(c, rho[(by + 1) * nx + bx])
            };
            (
                vx_lo * (1.0 - ax) + vx_hi * ax,
                vy_lo * (1.0 - ay) + vy_hi * ay,
            )
        }
    }

    /// A random spreading problem drawn from `seed` on an `nx` x `ny`
    /// grid: a core of 1–80 sites by 1–12 rows, up to four fixed macros
    /// (some covering whole bins, so those bins have zero capacity), up to
    /// 40 movable cells of which some are wider or taller than the core,
    /// star variables that no cell owns, start positions up to a core
    /// size off the core and a jitter list that may be shorter than the
    /// variables.
    struct Case {
        design: Design,
        nx: usize,
        ny: usize,
        density: f64,
        var_of: Vec<u32>,
        xs: Vec<f64>,
        ys: Vec<f64>,
        jitter: Vec<(f64, f64)>,
        nu: f64,
    }

    impl Case {
        fn draw(seed: u64, nx: usize, ny: usize) -> Case {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let tech = Technology::contest();
            let sw = tech.site_width as f64;
            let sites: i64 = rng.gen_range(1..=80);
            let rows: i64 = rng.gen_range(1..=12);
            let mut b = DesignBuilder::new("spread", tech, sites, rows);
            let (cw, ch) = (sites * 200, rows * 2_000);
            for i in 0..rng.gen_range(0..=4) {
                let w = rng.gen_range(1..=sites);
                let h = rng.gen_range(1..=4u8);
                let at = Point::new(rng.gen_range(-cw / 2..cw), rng.gen_range(-ch / 2..ch));
                b.add_fixed_cell(format!("m{i}"), w, h, at);
            }
            for i in 0..rng.gen_range(0..=40) {
                let w = if rng.gen_range(0..8) == 0 {
                    sites + rng.gen_range(1..=5)
                } else {
                    rng.gen_range(1..=8)
                };
                b.add_cell(format!("c{i}"), w, rng.gen_range(1..=4u8), Point::new(0, 0));
            }
            let design = b.build();
            let m = design.num_movable();
            let n = m + rng.gen_range(0..=5);
            // Variables in a shuffled order, so cell order and variable
            // order differ.
            let mut order: Vec<u32> = (0..m as u32).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut next = order.into_iter();
            let var_of = design
                .cells
                .iter()
                .map(|c| {
                    if c.is_movable() {
                        next.next().expect("one variable per movable cell")
                    } else {
                        u32::MAX
                    }
                })
                .collect();
            let (cw, ch) = (cw as f64, ch as f64);
            let xs = (0..n).map(|_| rng.gen_range(-cw..2.0 * cw)).collect();
            let ys = (0..n).map(|_| rng.gen_range(-ch..2.0 * ch)).collect();
            let jitter = (0..rng.gen_range(0..=n))
                .map(|_| (rng.gen_range(-0.5..0.5) * sw, rng.gen_range(-0.5..0.5) * sw))
                .collect();
            Case {
                design,
                nx,
                ny,
                density: rng.gen_range(0.3..=1.0),
                var_of,
                xs,
                ys,
                jitter,
                nu: rng.gen_range(0.01..=0.25),
            }
        }

        /// Runs the kernel and the reference on fresh grids and returns
        /// the first difference in the bits of the targets, of the usage
        /// the spread left, or of a deposit at the start positions.
        fn compare(&self, max_steps: usize, stop_util: f64) -> Result<(), String> {
            let d = &self.design;
            let hot = d.hot_cells();
            let (var_of, xs, ys) = (&self.var_of, &self.xs, &self.ys);
            let run = |reference: bool| {
                let mut g = BinGrid::new(d, self.nx, self.ny, self.density);
                let (tx, ty) = if reference {
                    g.reference_spread_targets(
                        d,
                        &hot,
                        var_of,
                        xs,
                        ys,
                        &self.jitter,
                        max_steps,
                        stop_util,
                        self.nu,
                    )
                } else {
                    g.spread_targets(
                        d,
                        &hot,
                        var_of,
                        xs,
                        ys,
                        &self.jitter,
                        max_steps,
                        stop_util,
                        self.nu,
                    )
                };
                let spread_usage = g.usage.clone();
                if reference {
                    g.reference_deposit(d, &hot, var_of, xs, ys);
                } else {
                    g.deposit(d, &hot, var_of, xs, ys);
                }
                (tx, ty, spread_usage, g.usage)
            };
            let (got, want) = (run(false), run(true));
            for (what, g, w) in [
                ("x target", &got.0, &want.0),
                ("y target", &got.1, &want.1),
                ("spread usage", &got.2, &want.2),
                ("start deposit", &got.3, &want.3),
            ] {
                if let Some(i) = (0..w.len()).find(|&i| g[i].to_bits() != w[i].to_bits()) {
                    return Err(format!("{what} {i}: kernel {} reference {}", g[i], w[i]));
                }
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The per-face kernel returns the per-cell sampler's targets bit
        /// for bit. `stop` picks a `stop_util` met at step 0, one never
        /// met, or one in between.
        #[test]
        fn kernel_matches_the_per_cell_sampler_bit_for_bit(
            (nx, ny) in (1usize..=64, 1usize..=48),
            seed in any::<u64>(),
            max_steps in 0usize..=40,
            stop in 0u8..3,
            util in 0.5f64..4.0,
        ) {
            let stop_util = match stop {
                0 => f64::INFINITY,
                1 => -1.0,
                _ => util,
            };
            let case = Case::draw(seed, nx, ny);
            prop_assert_eq!(case.compare(max_steps, stop_util), Ok(()));
        }
    }

    /// The extreme grid shapes, over cases that include zero-capacity
    /// bins and cells larger than the core.
    #[test]
    fn kernel_matches_the_per_cell_sampler_at_the_grid_extremes() {
        let (mut zero_cap, mut oversized) = (0, 0);
        for (nx, ny) in [(1, 1), (1, 48), (64, 1), (64, 48), (3, 2)] {
            for seed in 0..20 {
                let case = Case::draw(seed, nx, ny);
                let d = &case.design;
                let g = BinGrid::new(d, nx, ny, case.density);
                zero_cap += usize::from(g.cap.contains(&0.0));
                let rh = d.tech.row_height;
                oversized += usize::from(d.cells.iter().any(|c| {
                    c.is_movable() && (c.width > d.core.width() || c.height(rh) > d.core.height())
                }));
                for stop_util in [f64::INFINITY, -1.0, 1.0] {
                    if let Err(e) = case.compare(40, stop_util) {
                        panic!("{nx}x{ny} seed {seed} stop {stop_util}: {e}");
                    }
                }
            }
        }
        assert!(zero_cap > 0 && oversized > 0, "{zero_cap} {oversized}");
    }

    #[test]
    fn deposit_conserves_area_and_reports_overflow() {
        let mut b = DesignBuilder::new("t", Technology::contest(), 100, 10);
        for i in 0..4 {
            b.add_cell(format!("c{i}"), 2, 1, Point::new(0, 0));
        }
        let d = b.build();
        let hot = d.hot_cells();
        let var_of: Vec<u32> = (0..4).collect();
        let mut g = BinGrid::new(&d, 4, 4, 1.0);
        // All four cells stacked on one spot: usage concentrates, so some
        // overflow only if the bin is smaller than 4 cells; capacity of one
        // bin here is 25 sites x 2.5 rows, far more than 8 sites of cells.
        let xs = vec![0.0; 4];
        let ys = vec![0.0; 4];
        g.deposit(&d, &hot, &var_of, &xs, &ys);
        let rh = d.tech.row_height as f64;
        let sw = d.tech.site_width as f64;
        let total: f64 = g.usage.iter().sum();
        assert!((total - 4.0 * 2.0 * sw * rh).abs() < 1e-6, "area conserved");
        assert_eq!(g.overflow(), 0.0);
        // Shrink capacity to force overflow.
        let mut tight = BinGrid::new(&d, 100, 10, 0.001);
        tight.deposit(&d, &hot, &var_of, &xs, &ys);
        assert!(tight.overflow() > 0.5, "overflow {}", tight.overflow());
    }

    #[test]
    fn macros_eat_capacity() {
        let mut b = DesignBuilder::new("t", Technology::contest(), 100, 10);
        b.add_fixed_cell("m", 50, 4, Point::new(0, 0));
        let d = b.build();
        let g = BinGrid::new(&d, 2, 2, 1.0);
        // Lower-left quadrant is half-covered by the macro.
        assert!(
            g.cap[0] < g.cap[1],
            "macro bin {} vs free {}",
            g.cap[0],
            g.cap[1]
        );
    }

    #[test]
    fn spreading_moves_cells_apart() {
        // Many cells stacked in the middle of the die must diffuse out
        // until peak utilization reaches the stop threshold.
        let mut b = DesignBuilder::new("t", Technology::contest(), 120, 40);
        for i in 0..64 {
            b.add_cell(format!("c{i}"), 4, 1, Point::new(0, 0));
        }
        let d = b.build();
        let hot = d.hot_cells();
        let var_of: Vec<u32> = (0..64).collect();
        let mut g = BinGrid::new(&d, 8, 8, 0.2);
        let cx = g.x0 + 4.0 * g.bw;
        let cy = g.y0 + 4.0 * g.bh;
        // Tiny deterministic stagger so coincident cells pick directions.
        let xs: Vec<f64> = (0..64).map(|i| cx + (i % 8) as f64 - 3.5).collect();
        let ys: Vec<f64> = (0..64).map(|i| cy + (i / 8) as f64 - 3.5).collect();
        g.deposit(&d, &hot, &var_of, &xs, &ys);
        let before = g.overflow();
        assert!(before > 0.3, "start must be congested, overflow {before}");
        let (tx, ty) = g.spread_targets(&d, &hot, &var_of, &xs, &ys, &[], 400, 1.0, 0.2);
        g.deposit(&d, &hot, &var_of, &tx, &ty);
        let after = g.overflow();
        assert!(
            after < 0.05,
            "spreading must flatten the pile-up: {before} -> {after}"
        );
        // The flow is outward: the spread of x positions strictly grows.
        let span = |v: &[f64]| {
            v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(span(&tx) > span(&xs) && span(&ty) > span(&ys));
    }
}
