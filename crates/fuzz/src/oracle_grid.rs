//! Oracle 3: randomized op sequences on [`PixelGrid`] cross-checked
//! against the kept `*_reference` implementations.
//!
//! Ops: differential `check_place` (fast bitmap path vs per-pixel
//! reference, error-for-error), `place`/`remove` with occupancy
//! spot-checks, differential `find_position` (span-walk vs ring
//! enumeration), `extract_window` parity (the same window-restricted
//! search on a grid loaded with just that window and on the full grid
//! must return the identical position), and differential
//! `for_each_free_span` (the u64×4 block scan vs a per-pixel scalar sweep,
//! with window edges biased onto 64-bit word boundaries).

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use rlleg_design::CellId;
use rlleg_geom::Point;
use rlleg_legalize::{
    find_position, find_position_reference, GridPos, GridWindow, PixelGrid, SearchConfig,
};

use crate::scenario::Scenario;
use crate::Failure;

/// Ops per sequence.
const OPS: usize = 120;

/// Runs one randomized op sequence. Deterministic in `op_seed`.
pub fn check(sc: &Scenario, op_seed: u64) -> Vec<Failure> {
    let design = &sc.design;
    let mut rng = ChaCha8Rng::seed_from_u64(op_seed);
    let mut grid = PixelGrid::new(design);
    let movable: Vec<CellId> = design.movable_ids().collect();
    if movable.is_empty() {
        return Vec::new();
    }
    let mut unplaced = movable;
    let mut placed: Vec<(CellId, GridPos)> = Vec::new();
    let mut failures = Vec::new();
    let core_w = design.core.width();
    let core_h = design.core.height();

    let fail = |msg: String, failures: &mut Vec<Failure>| {
        failures.push(Failure {
            oracle: "grid",
            scenario: sc.label.clone(),
            message: msg,
            artifact: None,
        });
    };

    for op in 0..OPS {
        if !failures.is_empty() {
            break; // one sequence failure is enough; the shrinker takes over
        }
        match rng.gen_range(0..7u32) {
            // Differential check_place, then commit when legal.
            0 | 1 => {
                let Some(&cell) = unplaced.choose(&mut rng) else {
                    continue;
                };
                let pos = GridPos {
                    site: rng.gen_range(-2..grid.sites_x() + 2),
                    row: rng.gen_range(-2..grid.rows() + 2),
                };
                let fast = grid.check_place(design, cell, pos);
                let slow = grid.check_place_reference(design, cell, pos);
                if fast != slow {
                    fail(
                        format!(
                            "op {op}: check_place({cell}, {pos:?}) fast={fast:?} reference={slow:?}"
                        ),
                        &mut failures,
                    );
                    continue;
                }
                if fast.is_ok() {
                    grid.place(design, cell, pos);
                    unplaced.retain(|&c| c != cell);
                    placed.push((cell, pos));
                    if grid.occupant(pos.site, pos.row) != Some(cell) {
                        fail(
                            format!("op {op}: occupant after place({cell}) is not {cell}"),
                            &mut failures,
                        );
                    }
                }
            }
            // Remove a placed cell; its anchor pixel must free up.
            2 => {
                if placed.is_empty() {
                    continue;
                }
                let idx = rng.gen_range(0..placed.len());
                let (cell, pos) = placed.swap_remove(idx);
                grid.remove(design, cell, pos);
                unplaced.push(cell);
                if !grid.is_free(pos.site, pos.row) {
                    fail(
                        format!("op {op}: pixel still occupied after remove({cell})"),
                        &mut failures,
                    );
                }
            }
            // Differential diamond search from an arbitrary (possibly
            // off-core) start point.
            3 | 4 => {
                let Some(&cell) = unplaced.choose(&mut rng) else {
                    continue;
                };
                let from = Point::new(
                    rng.gen_range(-core_w / 2..=core_w + core_w / 2),
                    rng.gen_range(-core_h / 2..=core_h + core_h / 2),
                );
                let cfg = SearchConfig {
                    max_radius: if rng.gen_bool(0.5) {
                        Some(rng.gen_range(1..=10i64))
                    } else {
                        None
                    },
                    displacement_limit: if rng.gen_bool(0.3) {
                        Some(rng.gen_range(0..=4i64) * design.tech.row_height)
                    } else {
                        None
                    },
                    window: None,
                };
                let a = find_position(&grid, design, cell, from, cfg);
                let b = find_position_reference(&grid, design, cell, from, cfg);
                if a != b {
                    fail(
                        format!(
                            "op {op}: find_position({cell}, from=({}, {}), {cfg:?}) \
                             span-walk={a:?} reference={b:?}",
                            from.x, from.y
                        ),
                        &mut failures,
                    );
                }
            }
            // Differential band scan: the u64x4 block walk behind
            // for_each_free_span vs a per-pixel scalar sweep. Edges are
            // biased onto 64-bit word boundaries so lane clamps and
            // partial first/last words get exercised.
            5 => {
                let row = rng.gen_range(0..grid.rows());
                let h_rows = rng.gen_range(1..=(grid.rows() - row).min(4));
                let edge = |rng: &mut ChaCha8Rng| {
                    if rng.gen_bool(0.7) {
                        // Straddle a word boundary by a few sites.
                        let words = (grid.sites_x() / 64).max(1);
                        64 * rng.gen_range(0..=words) + rng.gen_range(-3..=3i64)
                    } else {
                        rng.gen_range(-4..grid.sites_x() + 4)
                    }
                };
                let (a, b) = (edge(&mut rng), edge(&mut rng));
                let (lo, hi) = (a.min(b), a.max(b) + 1);
                let mut fast = Vec::new();
                grid.for_each_free_span(row, h_rows, lo, hi, |s, e| fast.push((s, e)));
                let mut slow = Vec::new();
                let mut run: Option<i64> = None;
                for site in lo.max(0)..hi.min(grid.sites_x()) {
                    let free = (row..row + h_rows).all(|r| grid.is_free(site, r));
                    match (free, run) {
                        (true, None) => run = Some(site),
                        (false, Some(s)) => {
                            slow.push((s, site));
                            run = None;
                        }
                        _ => {}
                    }
                }
                if let Some(s) = run {
                    slow.push((s, hi.min(grid.sites_x())));
                }
                if fast != slow {
                    fail(
                        format!(
                            "op {op}: free spans row={row} h={h_rows} [{lo}, {hi}) \
                             block-scan={fast:?} scalar={slow:?}"
                        ),
                        &mut failures,
                    );
                }
            }
            // Loaded-window parity: the same window-restricted search
            // must land on the identical pixel.
            _ => {
                let Some(&cell) = unplaced.choose(&mut rng) else {
                    continue;
                };
                let lo_site = rng.gen_range(0..grid.sites_x());
                let hi_site = rng.gen_range(lo_site + 1..=grid.sites_x());
                let lo_row = rng.gen_range(0..grid.rows());
                let hi_row = rng.gen_range(lo_row + 1..=grid.rows());
                let win = GridWindow {
                    lo_site,
                    lo_row,
                    hi_site,
                    hi_row,
                };
                let sub = grid.extract_window(design, win);
                let from = Point::new(rng.gen_range(0..core_w), rng.gen_range(0..core_h));
                let cfg = SearchConfig {
                    max_radius: None,
                    displacement_limit: None,
                    window: Some(win),
                };
                let a = find_position(&sub, design, cell, from, cfg);
                let b = find_position(&grid, design, cell, from, cfg);
                if a != b {
                    fail(
                        format!(
                            "op {op}: windowed search ({win:?}) on window grid={a:?} \
                             vs full grid={b:?}"
                        ),
                        &mut failures,
                    );
                }
            }
        }
    }

    let fr = grid.free_ratio();
    if !(0.0..=1.0).contains(&fr) {
        fail(format!("free_ratio {fr} outside [0, 1]"), &mut failures);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, Technology};

    #[test]
    fn op_sequences_hold_on_a_mixed_design() {
        let mut b = DesignBuilder::new("grid", Technology::contest(), 24, 6);
        for i in 0..16i64 {
            b.add_cell(
                format!("u{i}"),
                1 + i % 3,
                1 + (i % 2) as u8,
                Point::new(i * 290, (i % 4) * 1_700),
            );
        }
        b.add_fixed_cell("m", 4, 2, Point::new(2_000, 2_000));
        let sc = Scenario {
            label: "test:grid".into(),
            design: b.build(),
        };
        for seed in 0..6 {
            let failures = check(&sc, seed);
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
        }
    }
}
