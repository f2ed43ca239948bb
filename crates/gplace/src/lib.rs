//! Analytical global placement for the RL-Legalizer reproduction.
//!
//! `rlleg-gplace` turns a netlist (with fixed macros and IO pins) into a
//! realistic, overlapping global placement — the input every legalization
//! scenario downstream consumes. The algorithm is the classic quadratic
//! two-step, sized to this repo's zero-dependency constraints:
//!
//! 1. **Quadratic wirelength minimization.** Each net becomes springs via a
//!    clique model (small nets) or a star node (nets above a pin-count
//!    crossover); the resulting per-axis Laplacian systems are solved with
//!    the Jacobi-preconditioned conjugate gradient from
//!    [`rlleg_nn::sparse`].
//! 2. **Diffusion-based density spreading.** Movable area is deposited into
//!    a bin grid; while *overflow* (area above bin capacity) exceeds the
//!    target, cell positions are advected through a few steps of a density
//!    diffusion field and the resulting spread targets are fed back into
//!    the solve as anchored pseudo-pins of geometrically growing weight.
//!
//! Two modes share that loop. **Warm refinement** (the default) starts
//! from the design's current placement, uses strong anchors and short
//! spreads so every round is a local improvement, and selects the
//! lowest-wirelength iterate whose overflow does not regress past the
//! input's. The refined iterate then competes against the input and
//! fine-grained spreads of itself in a legalization-aware finalist round:
//! each is legalized with the deterministic Gcell legalizer and the lowest
//! post-legalization wirelength wins. The input is always a finalist, so
//! warm refinement never hands back a placement that legalizes worse than
//! what it was given. **Cold construction**
//! (`warm_start: false`) begins from the pure wirelength solve (a single
//! collapsed cluster) and relies on the diffusion loop to disperse it,
//! returning the lowest-overflow iterate.
//!
//! The overflow trajectory reported in [`GpStats`] tracks the best
//! (lowest) overflow seen and is non-increasing by construction.
//!
//! Every anchored solve shares one matrix between the axes (springs and
//! anchors weigh the same on either), refilled in place from a pattern and
//! summation order planned once per call
//! ([`netmodel::AnchoredSystem`]). All arithmetic is `f64`, and each solve,
//! spread and trial legalization is sequential. When
//! [`default_threads`](rlleg_legalize::pool::default_threads) is above 1,
//! the X and Y solves, and the finalist round's two re-spreads, run in
//! pairs on the calling thread and one scoped helper; each half computes
//! exactly what it would alone. So for a fixed [`GpConfig`] (including its
//! seed) the output is bit-identical across runs and thread counts.
//!
//! With telemetry on, `place` records the spans `gplace.place`,
//! `gplace.solve` (one per anchored solve: matrix refill plus both PCG
//! solves; cold construction's anchor-free first solve is one too),
//! `gplace.spread` (one per outer iteration's spreading) and
//! `gplace.finalist` (the whole finalist round), and counts the trial
//! legalizations it ran on `gplace.finalist.trials` and the winning
//! finalist's kind on `gplace.finalist.{input,refined,spread}`.
//!
//! # Example
//!
//! ```
//! use rlleg_gplace::{place, GpConfig};
//!
//! let spec = rlleg_benchgen::find_spec("usb_phy").expect("table row").scaled(0.05);
//! let mut design = rlleg_benchgen::generate(&spec);
//! let stats = place(&mut design, &GpConfig::default());
//! assert!(stats.overflow.last().expect("iterated") <= &stats.overflow[0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod netmodel;
pub mod spread;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use rlleg_design::Design;
use rlleg_geom::Point;
use rlleg_nn::sparse::{pcg_solve, Csr};

use netmodel::{AnchoredSystem, Axis, NetModel};
use spread::BinGrid;

/// Tuning knobs for [`place`]. The defaults are sized for benchgen-scale
/// designs (1k–1M cells) and converge on every spec in the table.
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Nets with more pins than this use the star model (linear assembly);
    /// smaller nets use the exact clique.
    pub star_crossover: usize,
    /// Relative residual tolerance of each conjugate-gradient solve.
    pub cg_tol: f64,
    /// Iteration cap of each conjugate-gradient solve.
    pub cg_max_iters: usize,
    /// Outer solve→spread iterations cap.
    pub max_iterations: usize,
    /// Stop once the overflow fraction drops to this value.
    pub target_overflow: f64,
    /// Anchor weight of the first spreading iteration (relative to the
    /// typical spring weight of 1).
    pub anchor_base: f64,
    /// Geometric growth factor of the anchor weight per iteration.
    pub anchor_growth: f64,
    /// Cap on diffusion steps per spreading iteration; each iteration
    /// integrates until the utilization field flattens below 1.0 or the
    /// cap is hit.
    pub diffusion_steps: usize,
    /// Diffusion coefficient (stable for values `<= 0.25`).
    pub diffusion_nu: f64,
    /// Bin-capacity scale; `None` derives it from the design density.
    pub target_density: Option<f64>,
    /// Bins per axis; `None` sizes the grid from the movable-cell count.
    pub bins: Option<usize>,
    /// Seed of the deterministic tie-break jitter.
    pub seed: u64,
    /// Warm-start refinement: initialize from the design's current
    /// positions and keep the lowest-wirelength iterate whose overflow does
    /// not regress past the input's. When `false` the placer constructs a
    /// placement from scratch (pure wirelength solve, then spreading).
    pub warm_start: bool,
    /// Anchor weight of the first warm-start iteration. Warm refinement
    /// needs a strong pull (the unconstrained optimum is a collapsed
    /// cluster far from any feasible start).
    pub warm_anchor_base: f64,
    /// Diffusion-step cap per warm-start iteration; short spreads keep each
    /// round's targets close to the current iterate.
    pub warm_diffusion_steps: usize,
    /// Legalization-aware finalist selection for warm starts: legalize
    /// each finalist placement in turn on one clone of the design with the
    /// deterministic Gcell legalizer, and keep the one with the lowest
    /// post-legalization wirelength. The finalists are the input, the
    /// refined iterate (only when an outer iteration replaced the input;
    /// otherwise it is the input, whose tie the input wins anyway), and two
    /// fine-grained spreads of it: three or four legalizations. Because the
    /// input is always a finalist, warm refinement can never worsen the
    /// legalized result. Disable to skip the extra legalizer runs and keep
    /// the refined iterate unconditionally.
    pub legalize_eval: bool,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            star_crossover: 5,
            cg_tol: 1e-6,
            cg_max_iters: 250,
            max_iterations: 24,
            target_overflow: 0.10,
            anchor_base: 0.02,
            anchor_growth: 1.6,
            diffusion_steps: 200,
            diffusion_nu: 0.2,
            target_density: None,
            bins: None,
            seed: 1,
            warm_start: true,
            warm_anchor_base: 0.6,
            warm_diffusion_steps: 30,
            legalize_eval: true,
        }
    }
}

/// Outcome report of one [`place`] run.
#[derive(Debug, Clone)]
pub struct GpStats {
    /// Outer iterations run (first entry of `overflow` is the pure
    /// wirelength solve before any spreading).
    pub iterations: usize,
    /// Best-so-far overflow fraction after each outer iteration;
    /// non-increasing by construction.
    pub overflow: Vec<f64>,
    /// Whether the selected output's overflow reached the qualifying bound
    /// (`target_overflow`, relaxed to the input's own overflow for warm
    /// starts).
    pub converged: bool,
    /// Total conjugate-gradient iterations across all solves.
    pub cg_iterations: usize,
    /// Total HPWL of the written global placement, in dbu.
    pub hpwl: i64,
    /// Bin-capacity density the spreader targeted.
    pub target_density: f64,
    /// Star variables in the net model.
    pub stars: usize,
    /// Springs in the net model.
    pub springs: usize,
}

/// Runs analytical global placement on `design`, overwriting every movable
/// cell's `gp_pos` *and* `pos` with the new placement (and clearing its
/// `legalized` flag). Fixed cells and pins are never moved.
///
/// Deterministic: the same design and config produce a bit-identical
/// placement regardless of thread count (see the crate docs).
pub fn place(design: &mut Design, cfg: &GpConfig) -> GpStats {
    let _t = telemetry::span("gplace.place");
    let model = NetModel::build(design, cfg.star_crossover);
    let hot = design.hot_cells();
    let n = model.num_vars();
    let m = model.num_cell_vars;
    let core = design.core;
    let lanes = rlleg_legalize::pool::default_threads();

    let target_density = cfg
        .target_density
        .unwrap_or_else(|| (design.density() * 1.2 + 0.05).clamp(0.30, 1.0));
    let mut stats = GpStats {
        iterations: 0,
        overflow: Vec::new(),
        converged: true,
        cg_iterations: 0,
        hpwl: 0,
        target_density,
        stars: model.num_stars,
        springs: model.springs.len(),
    };
    if m == 0 {
        stats.hpwl = rlleg_design::metrics::total_hpwl(design);
        return stats;
    }

    // Working positions, plus a deterministic sub-site jitter so
    // exactly-coincident cells have distinct spread directions. Warm starts
    // begin at the design's current positions; cold starts at the core
    // center (the pure wirelength solve below ignores the start anyway).
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let cx = (core.lo.x + core.hi.x) as f64 * 0.5;
    let cy = (core.lo.y + core.hi.y) as f64 * 0.5;
    let sw = design.tech.site_width as f64;
    let jitter: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(-0.5..0.5) * sw, rng.gen_range(-0.5..0.5) * sw))
        .collect();
    let warm = cfg.warm_start;
    let mut xs: Vec<f64> = jitter.iter().map(|j| cx + j.0).collect();
    let mut ys: Vec<f64> = jitter.iter().map(|j| cy + j.1).collect();
    if warm {
        // Exactly the input positions: the first warm candidate must be the
        // placement the caller handed in, or "never worse" breaks.
        for id in hot.movable_ids() {
            let v = model.var_of[id.index()] as usize;
            let c = &design.cells[id.index()];
            xs[v] = c.pos.x as f64;
            ys[v] = c.pos.y as f64;
        }
    }

    // Weak positive-definiteness anchor toward the core center: keeps
    // floating cells and fixed-pin-free components in the die.
    let eps = 1e-6;
    let eps_tx = vec![cx; n];
    let eps_ty = vec![cy; n];
    // Both axes solve from the current iterate, the Y solve on a helper
    // when there is a second lane; each is the same sequential PCG on
    // either thread.
    let solve_xy = |a: [&Csr; 2], b: [&[f64]; 2], xs: &mut [f64], ys: &mut [f64]| -> usize {
        let solve = |a: &Csr, b: &[f64], x: &mut [f64]| {
            pcg_solve(a, b, x, cfg.cg_tol, cfg.cg_max_iters).iterations
        };
        let (ix, iy) = join(lanes, || solve(a[0], b[0], xs), || solve(a[1], b[1], ys));
        ix + iy
    };
    // Without anchors the triplet list lacks the anchor terms, and with
    // them the summation order the anchored system was planned for, so
    // the anchor-free system is assembled directly.
    let solve_unanchored = |xs: &mut [f64], ys: &mut [f64]| -> usize {
        let none = vec![(0.0, 0.0); n];
        let (ax, bx) = model.assemble(Axis::X, &none, eps, &eps_tx);
        let (ay, by) = model.assemble(Axis::Y, &none, eps, &eps_ty);
        solve_xy([&ax, &ay], [&bx, &by], xs, ys)
    };

    if !warm {
        // Cold iteration 0: pure wirelength solve.
        let _s = telemetry::span("gplace.solve");
        stats.cg_iterations += solve_unanchored(&mut xs, &mut ys);
    }
    clamp_vars(design, &hot, &model.var_of, &mut xs, &mut ys);
    // The exact starting placement, kept as the fallback finalist of warm
    // refinement's legalization-aware selection.
    let input_pos = (xs.clone(), ys.clone());

    let bins = cfg
        .bins
        .unwrap_or_else(|| (((m as f64) / 6.0).sqrt().ceil() as usize).clamp(4, 256));
    let mut grid = BinGrid::new(design, bins, bins, target_density);
    grid.deposit(design, &hot, &model.var_of, &xs, &ys);
    let init_overflow = grid.overflow();
    let mut best_overflow = init_overflow;
    let mut best = (xs.clone(), ys.clone());
    stats.overflow.push(best_overflow);

    // Warm-start output selection: lowest float wirelength among iterates
    // whose overflow does not regress past the input's (the input itself is
    // the first candidate, so refinement can never hand back something
    // worse than it was given).
    let qualify = cfg.target_overflow.max(init_overflow);
    let mut best_hpwl = if warm {
        float_hpwl(design, &model, &xs, &ys)
    } else {
        f64::MAX
    };
    let mut best_warm = (xs.clone(), ys.clone());
    let mut best_warm_ovf = init_overflow;
    // Whether an iterate replaced the input as `best_warm`.
    let mut refined = false;

    // Solve → spread loop. Each iteration diffuses the *current* iterate's
    // density toward feasibility (the spreader re-deposits every step, so
    // clusters genuinely disperse), then re-solves with anchors of
    // geometrically growing weight pulling toward the spread targets:
    // springs recover wirelength where there is slack while the anchors
    // enforce the spread. Warm starts use a strong anchor base and short
    // spreads — each round is a local refinement of the input — while cold
    // starts begin with weak anchors so the early rounds can rearrange the
    // collapsed wirelength optimum globally.
    let steps = if warm {
        cfg.warm_diffusion_steps
    } else {
        cfg.diffusion_steps
    };
    let mut anchor_w = if warm {
        cfg.warm_anchor_base
    } else {
        cfg.anchor_base
    };
    // Planned on the first anchored solve: anchors pull every cell
    // variable, with one weight on both axes.
    let mut system: Option<AnchoredSystem> = None;
    for _iter in 0..cfg.max_iterations {
        // Warm refinement keeps tightening wirelength even once feasible;
        // cold construction stops as soon as overflow reaches the target.
        if anchor_w > 100.0 || (!warm && best_overflow <= cfg.target_overflow) {
            break;
        }
        stats.iterations += 1;
        let (tx, ty) = {
            let _s = telemetry::span("gplace.spread");
            grid.spread_targets(
                design,
                &hot,
                &model.var_of,
                &xs,
                &ys,
                &jitter,
                steps,
                1.0,
                cfg.diffusion_nu,
            )
        };
        stats.cg_iterations += {
            let _s = telemetry::span("gplace.solve");
            if anchor_w > 0.0 {
                let system =
                    system.get_or_insert_with(|| model.anchored_system(eps, [&eps_tx, &eps_ty]));
                let (a, bx, by) = system.refill(anchor_w, &tx, &ty);
                solve_xy([a, a], [bx, by], &mut xs, &mut ys)
            } else {
                // A weight that is not positive leaves every anchor out.
                solve_unanchored(&mut xs, &mut ys)
            }
        };
        clamp_vars(design, &hot, &model.var_of, &mut xs, &mut ys);
        grid.deposit(design, &hot, &model.var_of, &xs, &ys);
        let ovf = grid.overflow();
        if ovf < best_overflow {
            best_overflow = ovf;
            best = (xs.clone(), ys.clone());
        }
        if warm && ovf <= qualify {
            let h = float_hpwl(design, &model, &xs, &ys);
            if h < best_hpwl {
                best_hpwl = h;
                best_warm = (xs.clone(), ys.clone());
                best_warm_ovf = ovf;
                refined = true;
            }
        }
        stats.overflow.push(best_overflow);
        anchor_w *= cfg.anchor_growth;
    }

    if warm {
        best = best_warm;
        best_overflow = best_warm_ovf;
        if cfg.legalize_eval {
            let _f = telemetry::span("gplace.finalist");
            // Legalization-aware finalist selection. The refined iterate
            // minimizes float wirelength subject to bin-level capacity, but
            // the bin metric is blind to intra-bin stacking — at some
            // scales the legalizer pays more resolving that than the
            // refinement saved. The only metric that settles it is the
            // legalizer itself: run the deterministic Gcell legalizer at
            // each finalist and keep the lowest post-legalization
            // wirelength (fewest failed cells first). Finalists are the
            // input (ties favor it, so refinement never worsens the
            // legalized result), the refined iterate, and fine-grained
            // diffusion spreads of it that trade wirelength for local
            // decongestion. When no iterate replaced the input, the
            // refined iterate *is* the input, so its trial could only tie
            // and lose; it is skipped.
            let placed: &Design = design;
            let spread = |cells_per_bin: f64| {
                let fb = (((m as f64) / cells_per_bin).sqrt().ceil() as usize).clamp(4, 512);
                BinGrid::new(placed, fb, fb, target_density).spread_targets(
                    placed,
                    &hot,
                    &model.var_of,
                    &best.0,
                    &best.1,
                    &jitter,
                    cfg.diffusion_steps,
                    1.0,
                    cfg.diffusion_nu,
                )
            };
            let (fine, local) = join(lanes, || spread(1.5), || spread(3.0));
            let mut finalists = vec![("input", input_pos)];
            if refined {
                finalists.push(("refined", best));
            }
            finalists.push(("spread_fine", fine));
            finalists.push(("spread_local", local));
            telemetry::counter("gplace.finalist.trials").add(finalists.len() as u64);
            // Legalization writes only `pos` and `legalized`, and
            // `write_positions` rewrites both (and `gp_pos`) on every
            // movable cell, so one clone serves every trial.
            let mut trial = design.clone();
            let mut win = 0usize;
            let mut best_key = (usize::MAX, i64::MAX);
            for (i, (_, (fx, fy))) in finalists.iter().enumerate() {
                write_positions(&mut trial, &model.var_of, fx, fy);
                let gcells = rlleg_legalize::GcellGrid::auto(&trial);
                let mut lg = rlleg_legalize::Legalizer::new(&trial);
                let run = lg.run_gcells_parallel(
                    &mut trial,
                    &rlleg_legalize::Ordering::SizeDescending,
                    &gcells,
                    1,
                );
                let key = (run.failed.len(), rlleg_design::metrics::total_hpwl(&trial));
                if key < best_key {
                    best_key = key;
                    win = i;
                }
            }
            match finalists[win].0 {
                "input" => telemetry::counter("gplace.finalist.input").add(1),
                "refined" => telemetry::counter("gplace.finalist.refined").add(1),
                _ => telemetry::counter("gplace.finalist.spread").add(1),
            }
            best = finalists.swap_remove(win).1;
            grid.deposit(design, &hot, &model.var_of, &best.0, &best.1);
            best_overflow = grid.overflow();
            // The trajectory reports feasibility progress (min-so-far); the
            // winning finalist may sit above an earlier minimum, so only
            // extend the vector where it stays non-increasing.
            let last = *stats.overflow.last().expect("pushed at init");
            if best_overflow < last {
                stats.overflow.push(best_overflow);
            }
        }
    }
    // Final rough legalization (cold construction only): if the run never
    // reached the overflow target, spread the best iterate once more until
    // its peak utilization is feasible and hand the *targets* to the
    // writeback. The anchored solve always re-introduces some overlap; the
    // legalizer downstream pays for that in displacement, so what it
    // receives must be the capacity-feasible side of the loop, not the
    // solver side. Warm refinement instead settles the trade with the
    // legalization-aware finalist selection above.
    if !warm && best_overflow > cfg.target_overflow {
        let (fx, fy) = grid.spread_targets(
            design,
            &hot,
            &model.var_of,
            &best.0,
            &best.1,
            &jitter,
            cfg.diffusion_steps,
            1.0,
            cfg.diffusion_nu,
        );
        grid.deposit(design, &hot, &model.var_of, &fx, &fy);
        let ovf = grid.overflow();
        if ovf <= best_overflow {
            best_overflow = ovf;
            best = (fx, fy);
            // The trajectory reports feasibility progress (min-so-far); the
            // selected warm iterate may sit above an earlier minimum, so
            // only extend the vector where it stays non-increasing.
            let last = *stats.overflow.last().expect("pushed at init");
            if ovf < last {
                stats.overflow.push(ovf);
            }
        }
    }
    stats.converged = best_overflow <= qualify;

    // Write the best iterate back: integer positions, clamped on-die (and
    // into the nearest fitting fence rectangle for fenced cells).
    write_positions(design, &model.var_of, &best.0, &best.1);

    telemetry::counter("gplace.runs").add(1);
    telemetry::counter("gplace.cg_iterations").add(stats.cg_iterations as u64);
    stats.hpwl = rlleg_design::metrics::total_hpwl(design);
    stats
}

/// Runs `a` on the calling thread and `b` on one scoped helper thread when
/// `lanes > 1`, else both in turn. A panic on the helper is re-raised on
/// the caller.
fn join<A, B: Send>(lanes: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B + Send) -> (A, B) {
    if lanes < 2 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let b = s.spawn(b);
        let a = a();
        (a, b.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
    })
}

/// Float HPWL over the real nets at the given variable positions (fixed
/// cells and fixed pins at their design coordinates). Used to rank warm
/// refinement iterates without rounding to integer positions.
fn float_hpwl(design: &Design, model: &netmodel::NetModel, xs: &[f64], ys: &[f64]) -> f64 {
    let mut total = 0.0;
    for net in design.nets.iter() {
        let mut lo_x = f64::MAX;
        let mut hi_x = f64::MIN;
        let mut lo_y = f64::MAX;
        let mut hi_y = f64::MIN;
        let mut pins = 0usize;
        for pin in net.pins.iter() {
            let (px, py) = match *pin {
                rlleg_design::Pin::OnCell { cell, offset } => {
                    let ci = cell.index();
                    if design.cells[ci].is_movable() {
                        let v = model.var_of[ci] as usize;
                        (xs[v] + offset.x as f64, ys[v] + offset.y as f64)
                    } else {
                        let p = design.cells[ci].pos;
                        ((p.x + offset.x) as f64, (p.y + offset.y) as f64)
                    }
                }
                rlleg_design::Pin::Fixed(p) => (p.x as f64, p.y as f64),
            };
            lo_x = lo_x.min(px);
            hi_x = hi_x.max(px);
            lo_y = lo_y.min(py);
            hi_y = hi_y.max(py);
            pins += 1;
        }
        if pins >= 2 {
            total += (hi_x - lo_x) + (hi_y - lo_y);
        }
    }
    total
}

/// Writes float variable positions into the design as integer `gp_pos`
/// and `pos`, clamped fully on-die — and into the nearest fitting fence
/// rectangle for fenced cells — clearing the `legalized` flag. Fixed cells
/// are untouched.
fn write_positions(design: &mut Design, var_of: &[u32], xs: &[f64], ys: &[f64]) {
    let core = design.core;
    let rh = design.tech.row_height;
    for id in design.cell_ids().collect::<Vec<_>>() {
        let c = design.cell(id);
        if !c.is_movable() {
            continue;
        }
        let v = var_of[id.index()] as usize;
        let (w, h) = (c.width, c.height(rh));
        let mut bounds = core;
        if let Some(reg) = c.region {
            let p = Point::new(xs[v].round() as i64, ys[v].round() as i64);
            // Only the on-die part of a fence rect is a valid target: a
            // hostile fence hanging off the core must not pull the cell
            // off-die (such cells fall back to a plain core clamp and are
            // the legalizer's problem to fail or quarantine).
            if let Some(r) = design
                .region(reg)
                .rects
                .iter()
                .filter_map(|r| r.intersection(&core))
                .filter(|r| r.width() >= w && r.height() >= h)
                .min_by_key(|r| r.manhattan_to_point(p))
            {
                bounds = r;
            }
        }
        let x = (xs[v].round() as i64).clamp(bounds.lo.x, (bounds.hi.x - w).max(bounds.lo.x));
        let y = (ys[v].round() as i64).clamp(bounds.lo.y, (bounds.hi.y - h).max(bounds.lo.y));
        let cell = design.cell_mut(id);
        cell.gp_pos = Point::new(x, y);
        cell.pos = Point::new(x, y);
        cell.legalized = false;
    }
}

/// Clamps every movable variable into the core (cell fully on-die).
fn clamp_vars(
    design: &Design,
    hot: &rlleg_design::HotCells,
    var_of: &[u32],
    xs: &mut [f64],
    ys: &mut [f64],
) {
    let core = design.core;
    let rh = design.tech.row_height as f64;
    for id in hot.movable_ids() {
        let v = var_of[id.index()] as usize;
        let w = hot.width(id) as f64;
        let h = hot.h_rows(id) as f64 * rh;
        let lo_x = core.lo.x as f64;
        let hi_x = (core.hi.x as f64 - w).max(lo_x);
        let lo_y = core.lo.y as f64;
        let hi_y = (core.hi.y as f64 - h).max(lo_y);
        xs[v] = xs[v].clamp(lo_x, hi_x);
        ys[v] = ys[v].clamp(lo_y, hi_y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, Technology};

    fn bench_design(scale: f64) -> Design {
        let spec = rlleg_benchgen::find_spec("usb_phy")
            .expect("table row")
            .scaled(scale);
        rlleg_benchgen::generate(&spec)
    }

    #[test]
    fn cold_place_reduces_overflow_monotonically() {
        let mut d = bench_design(0.1);
        let cfg = GpConfig {
            warm_start: false,
            ..GpConfig::default()
        };
        let stats = place(&mut d, &cfg);
        assert!(!stats.overflow.is_empty());
        for w in stats.overflow.windows(2) {
            assert!(w[1] <= w[0], "overflow not monotone: {:?}", stats.overflow);
        }
        assert!(
            stats.overflow.last().expect("entries") < &stats.overflow[0].max(0.101),
            "spreading made no progress: {:?}",
            stats.overflow
        );
    }

    fn legalized_hpwl(mut d: Design) -> i64 {
        let gcells = rlleg_legalize::GcellGrid::auto(&d);
        let mut lg = rlleg_legalize::Legalizer::new(&d);
        let run = lg.run_gcells_parallel(
            &mut d,
            &rlleg_legalize::Ordering::SizeDescending,
            &gcells,
            1,
        );
        assert!(
            run.failed.is_empty(),
            "legalization failed {} cells",
            run.failed.len()
        );
        rlleg_design::metrics::total_hpwl(&d)
    }

    #[test]
    fn warm_place_never_worsens_legalized_wirelength() {
        let d0 = bench_design(0.1);
        let baseline = legalized_hpwl(d0.clone());
        let mut d = d0;
        let stats = place(&mut d, &GpConfig::default());
        for w in stats.overflow.windows(2) {
            assert!(w[1] <= w[0], "overflow not monotone: {:?}", stats.overflow);
        }
        // The input is itself a finalist of the legalization-aware
        // selection, so the legalized result can never regress.
        let after = legalized_hpwl(d);
        assert!(
            after <= baseline,
            "warm refinement worsened legalized HPWL: {baseline} -> {after}"
        );
    }

    #[test]
    fn place_is_deterministic_and_on_die() {
        let mut a = bench_design(0.05);
        let mut b = bench_design(0.05);
        let s1 = place(&mut a, &GpConfig::default());
        let s2 = place(&mut b, &GpConfig::default());
        assert_eq!(s1.hpwl, s2.hpwl);
        let rh = a.tech.row_height;
        for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(ca.gp_pos, cb.gp_pos, "cell {} differs", ca.name);
            assert!(a.core.contains(&ca.rect(rh)), "{} off-die", ca.name);
        }
    }

    #[test]
    fn fixed_cells_never_move() {
        let mut b = DesignBuilder::new("t", Technology::contest(), 200, 40);
        let f = b.add_fixed_cell("macro", 20, 4, Point::new(4_000, 8_000));
        let c = b.add_cell("c", 2, 1, Point::new(0, 0));
        b.add_net("n0", vec![(f, 0, 0), (c, 0, 0)]);
        let mut d = b.build();
        let before = d.cell(f).pos;
        place(&mut d, &GpConfig::default());
        assert_eq!(d.cell(f).pos, before);
        assert!(d.cell(c).is_movable());
        // The movable cell is pulled toward the macro pin.
        let p = d.cell(c).pos;
        assert!(
            p.manhattan(Point::new(4_000, 8_000)) < 4_000,
            "cell at {p} not attracted to the macro pin"
        );
    }

    #[test]
    fn fenced_cells_end_inside_their_region() {
        // usb_phy is OpenCores (no fences); use a contest spec instead.
        let spec = rlleg_benchgen::find_spec("des_perf_b_md1")
            .expect("table row")
            .scaled(0.004);
        let mut d = rlleg_benchgen::generate(&spec);
        place(&mut d, &GpConfig::default());
        let rh = d.tech.row_height;
        for c in d.cells.iter().filter(|c| c.is_movable()) {
            if let Some(reg) = c.region {
                assert!(
                    d.region(reg).contains(&c.rect(rh)),
                    "fenced cell {} at {} escaped its region",
                    c.name,
                    c.pos
                );
            }
        }
    }

    #[test]
    fn empty_design_is_a_no_op() {
        let mut d = DesignBuilder::new("e", Technology::contest(), 20, 8).build();
        let stats = place(&mut d, &GpConfig::default());
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.hpwl, 0);
    }
}
