//! Property tests for the word-level bitset grid against the per-pixel
//! reference oracle, plus the parallel-vs-sequential determinism guarantee.
//!
//! The bitset fast paths (`check_place`, `window_free`, the span-walking
//! `find_position`) must be observationally identical to the pre-bitmap
//! per-pixel implementations (`check_place_reference`,
//! `find_position_reference`) on arbitrary place/remove/check sequences over
//! designs with mixed-height cells, fences, macros, and edge spacing.

use std::collections::HashMap;

use proptest::prelude::*;
use rlleg_benchgen::{find_spec, generate};
use rlleg_design::{
    legality, metrics::Qor, CellId, Design, DesignBuilder, EdgeType, RailParity, Technology,
};
use rlleg_geom::{Point, Rect};
use rlleg_legalize::{
    find_position, find_position_reference, GcellGrid, GridPos, GridWindow, Legalizer, Ordering,
    PixelGrid, SearchConfig,
};

/// A core whose site count is forced off the 64-bit word boundary, with a
/// fixed blockage hugging the right edge so Gcell windows clipped at the
/// die boundary meet occupied words.
fn build_ragged(sites: i64, rows: i64, cells: &[CellSpec]) -> Design {
    let mut b = DesignBuilder::new("ragged", Technology::contest(), sites, rows);
    b.add_fixed_cell("edge_macro", 3, 2, Point::new((sites - 3) * 200, 0));
    for (i, c) in cells.iter().enumerate() {
        let id = b.add_cell(
            format!("u{i}"),
            c.w,
            c.h.min(rows as u8),
            Point::new(c.x % (sites * 200), c.y % (rows * 2_000)),
        );
        b.set_edges(id, EdgeType(c.el), EdgeType(c.er));
        b.set_rail(
            id,
            if c.odd_rail {
                RailParity::Odd
            } else {
                RailParity::Even
            },
        );
    }
    b.build()
}

#[derive(Debug, Clone)]
struct CellSpec {
    w: i64,
    h: u8,
    x: i64,
    y: i64,
    el: u8,
    er: u8,
    odd_rail: bool,
}

fn arb_cell() -> impl Strategy<Value = CellSpec> {
    (
        1i64..5,
        1u8..=3,
        0i64..12_000,
        0i64..22_000,
        0u8..3,
        0u8..3,
        any::<bool>(),
    )
        .prop_map(|(w, h, x, y, el, er, odd_rail)| CellSpec {
            w,
            h,
            x,
            y,
            el,
            er,
            odd_rail,
        })
}

/// One step of a random grid workload: try to place cell `cell % n` at the
/// probe position when `place` is set, otherwise remove it if placed.
#[derive(Debug, Clone)]
struct Op {
    cell: u8,
    site: i64,
    row: i64,
    place: bool,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), -2i64..66, -2i64..14, any::<bool>()).prop_map(|(cell, site, row, place)| Op {
        cell,
        site,
        row,
        place,
    })
}

/// A 64-site × 12-row contest-tech core with a macro and a fence region,
/// exercising every `check_place` rule at once.
fn build(cells: &[CellSpec]) -> Design {
    build_core(cells, true)
}

/// [`build`]'s core, with the fence region (and every third cell assigned
/// to it) only when `fenced`: a fence-free design allocates no fence maps.
fn build_core(cells: &[CellSpec], fenced: bool) -> Design {
    let mut b = DesignBuilder::new("bitset-prop", Technology::contest(), 64, 12);
    b.add_fixed_cell("macro", 10, 3, Point::new(4_000, 8_000));
    let fence =
        fenced.then(|| b.add_region("fence", vec![Rect::new(8_400, 2_000, 11_000, 10_000)]));
    for (i, c) in cells.iter().enumerate() {
        let id = b.add_cell(format!("u{i}"), c.w, c.h, Point::new(c.x, c.y));
        b.set_edges(id, EdgeType(c.el), EdgeType(c.er));
        b.set_rail(
            id,
            if c.odd_rail {
                RailParity::Odd
            } else {
                RailParity::Even
            },
        );
        // Fence some cells so both in-fence and out-of-fence placement
        // rules are exercised.
        if let Some(fence) = fence.filter(|_| i % 3 == 0) {
            b.assign_region(id, fence);
        }
    }
    b.build()
}

/// Applies a random place/remove op sequence to a fresh grid for `d`,
/// returning the grid and the cells it left placed.
fn grid_after_ops(d: &Design, ops: &[Op]) -> (PixelGrid, HashMap<CellId, GridPos>) {
    let mut g = PixelGrid::new(d);
    let mut placed: HashMap<CellId, GridPos> = HashMap::new();
    let ids: Vec<CellId> = d.movable_ids().collect();
    for op in ops {
        let cell = ids[op.cell as usize % ids.len()];
        let pos = GridPos {
            site: op.site,
            row: op.row,
        };
        if op.place {
            if !placed.contains_key(&cell) && g.check_place(d, cell, pos).is_ok() {
                g.place(d, cell, pos);
                placed.insert(cell, pos);
            }
        } else if let Some(at) = placed.remove(&cell) {
            g.remove(d, cell, at);
        }
    }
    (g, placed)
}

/// One Gcell-style solve run twice: every unplaced cell is searched with
/// `cfg.window = Some(win)` on a window loaded from the grid and on the
/// full grid, and each result is placed into the grid that found it.
/// Every step must agree, and afterwards every in-window `check_place`
/// probe must answer the same on both grids.
fn sequential_window_solve_matches(
    d: &Design,
    ops: &[Op],
    win: GridWindow,
) -> Result<(), TestCaseError> {
    let (mut g, placed) = grid_after_ops(d, ops);
    let win = GridWindow {
        hi_site: win.hi_site.min(g.sites_x()),
        hi_row: win.hi_row.min(g.rows()),
        ..win
    };
    let mut sub = g.extract_window(d, win);
    let cfg = SearchConfig {
        window: Some(win),
        ..SearchConfig::default()
    };
    let ids: Vec<CellId> = d.movable_ids().collect();
    for &cell in &ids {
        if placed.contains_key(&cell) {
            continue;
        }
        let from = d.cell(cell).pos;
        let got = find_position(&sub, d, cell, from, cfg);
        let want = find_position(&g, d, cell, from, cfg);
        prop_assert_eq!(got, want, "cell {:?} win {:?}", cell, win);
        if let Some((pos, _)) = got {
            sub.place(d, cell, pos);
        }
        if let Some((pos, _)) = want {
            g.place(d, cell, pos);
        }
    }
    for &cell in &ids {
        let c = d.cell(cell);
        let (w_sites, h_rows) = (c.width / d.tech.site_width, i64::from(c.height_rows));
        for row in win.lo_row..=win.hi_row - h_rows {
            for site in win.lo_site..=win.hi_site - w_sites {
                let pos = GridPos { site, row };
                prop_assert_eq!(
                    sub.check_place(d, cell, pos),
                    g.check_place(d, cell, pos),
                    "cell {:?} at {:?} win {:?}",
                    cell,
                    pos,
                    win
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random place/remove/check sequences, every `check_place` answer
    /// (including the rejection variant) and every `window_free` answer
    /// must match the per-pixel reference.
    #[test]
    fn check_place_equals_reference_under_random_workload(
        cells in prop::collection::vec(arb_cell(), 4..14),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let d = build(&cells);
        let mut g = PixelGrid::new(&d);
        let mut placed: HashMap<CellId, GridPos> = HashMap::new();
        let ids: Vec<CellId> = d.movable_ids().collect();
        for op in &ops {
            let cell = ids[op.cell as usize % ids.len()];
            let pos = GridPos { site: op.site, row: op.row };
            let c = d.cell(cell);
            let w_sites = c.width / d.tech.site_width;
            let h_rows = i64::from(c.height_rows);

            // The oracle check: bitset-accelerated vs reference, probed on
            // every op regardless of whether it commits.
            let fast = g.check_place(&d, cell, pos);
            let slow = g.check_place_reference(&d, cell, pos);
            prop_assert_eq!(fast, slow, "cell {:?} at {:?}", cell, pos);

            // Word-level window test vs per-pixel occupancy scan.
            let in_bounds = pos.site >= 0
                && pos.row >= 0
                && pos.site + w_sites <= g.sites_x()
                && pos.row + h_rows <= g.rows();
            let scan_free = in_bounds
                && (pos.row..pos.row + h_rows).all(|r| {
                    (pos.site..pos.site + w_sites).all(|s| g.is_free(s, r))
                });
            prop_assert_eq!(g.window_free(pos, w_sites, h_rows), scan_free);

            if op.place {
                if !placed.contains_key(&cell) && slow.is_ok() {
                    g.place(&d, cell, pos);
                    placed.insert(cell, pos);
                }
            } else if let Some(at) = placed.remove(&cell) {
                g.remove(&d, cell, at);
            }
        }
    }

    /// After a random prefix of placements, the span-walking search must
    /// return exactly the reference's answer (same position, same
    /// displacement, same tie-break) for every remaining cell under
    /// several configs, including a Gcell-style window.
    #[test]
    fn find_position_equals_reference(
        cells in prop::collection::vec(arb_cell(), 4..14),
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let d = build(&cells);
        let (g, placed) = grid_after_ops(&d, &ops);
        let ids: Vec<CellId> = d.movable_ids().collect();
        let configs = [
            SearchConfig::default(),
            SearchConfig { displacement_limit: Some(3_000), ..SearchConfig::default() },
            SearchConfig { max_radius: Some(9), ..SearchConfig::default() },
            SearchConfig {
                window: Some(GridWindow { lo_site: 2, lo_row: 1, hi_site: 40, hi_row: 9 }),
                ..SearchConfig::default()
            },
        ];
        for &cell in &ids {
            if placed.contains_key(&cell) {
                continue;
            }
            let from = d.cell(cell).pos;
            for cfg in configs {
                prop_assert_eq!(
                    find_position(&g, &d, cell, from, cfg),
                    find_position_reference(&g, &d, cell, from, cfg),
                    "cell {:?} cfg {:?}", cell, cfg
                );
            }
        }
    }

    /// A grid loaded with one window must answer every window-restricted
    /// search exactly as the full grid does — the invariant the clone-free
    /// parallel solve stands on.
    #[test]
    fn window_search_matches_full_grid(
        cells in prop::collection::vec(arb_cell(), 4..14),
        ops in prop::collection::vec(arb_op(), 1..40),
        lo_site in 0i64..50,
        lo_row in 0i64..9,
        w in 4i64..40,
        h in 2i64..8,
    ) {
        let d = build(&cells);
        let (g, placed) = grid_after_ops(&d, &ops);
        let ids: Vec<CellId> = d.movable_ids().collect();
        let win = GridWindow {
            lo_site,
            lo_row,
            hi_site: (lo_site + w).min(g.sites_x()),
            hi_row: (lo_row + h).min(g.rows()),
        };
        let sub = g.extract_window(&d, win);
        let cfg = SearchConfig { window: Some(win), ..SearchConfig::default() };
        for &cell in &ids {
            if placed.contains_key(&cell) {
                continue;
            }
            let from = d.cell(cell).pos;
            prop_assert_eq!(
                find_position(&sub, &d, cell, from, cfg),
                find_position(&g, &d, cell, from, cfg),
                "cell {:?} win {:?}", cell, win
            );
        }
    }

    /// Sequential windowed solves on a loaded window must track the full
    /// grid step for step, on the fenced design and on a fence-free one.
    #[test]
    fn sequential_window_solves_match_full_grid(
        cells in prop::collection::vec(arb_cell(), 4..14),
        ops in prop::collection::vec(arb_op(), 1..40),
        lo_site in 0i64..50,
        lo_row in 0i64..9,
        w in 4i64..40,
        h in 2i64..8,
    ) {
        let win = GridWindow { lo_site, lo_row, hi_site: lo_site + w, hi_row: lo_row + h };
        for fenced in [true, false] {
            sequential_window_solve_matches(&build_core(&cells, fenced), &ops, win)?;
        }
    }

    /// Thread-count invariance on awkward geometry: cores whose site count
    /// is not a multiple of 64 (boundary words are partially padded) and
    /// Gcell grids whose windows clip at the die edges. Every thread count
    /// must reproduce the single-threaded result bit for bit.
    #[test]
    fn parallel_solve_bit_identical_across_thread_counts_on_ragged_cores(
        sites in 33i64..130,
        rows in 4i64..14,
        nx in 1usize..4,
        ny in 1usize..4,
        cells in prop::collection::vec(arb_cell(), 6..20),
        seed in 0u64..100,
    ) {
        let sites = if sites % 64 == 0 { sites + 1 } else { sites };
        let d0 = build_ragged(sites, rows, &cells);
        let gcells = GcellGrid::new(&d0, nx, ny);
        let ordering = Ordering::Random(seed);
        let run = |threads: usize| {
            let mut d = d0.clone();
            let mut lg = Legalizer::new(&d);
            let stats = lg.run_gcells_parallel(&mut d, &ordering, &gcells, threads);
            let placement: Vec<(Point, bool)> =
                d.cells.iter().map(|c| (c.pos, c.legalized)).collect();
            (stats.failed, placement)
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            let got = run(threads);
            prop_assert_eq!(&got.0, &reference.0, "threads {}: failures differ", threads);
            prop_assert_eq!(&got.1, &reference.1, "threads {}: placements differ", threads);
        }
    }
}

/// Parallel per-Gcell legalization must be bit-identical to the sequential
/// fallback: same placements, same failures, same QoR, for every seed.
#[test]
fn parallel_gcell_legalization_is_deterministic() {
    let spec = find_spec("des_perf_b_md1").expect("spec").scaled(0.004);
    for seed in [1u64, 7, 23] {
        let base = generate(&spec);
        let gcells = GcellGrid::new(&base, 3, 3);
        let ordering = Ordering::Random(seed);

        let run = |threads: usize| -> (Design, Vec<CellId>, Qor) {
            let mut d = base.clone();
            let mut lg = Legalizer::new(&d);
            let stats = lg.run_gcells_parallel(&mut d, &ordering, &gcells, threads);
            let qor = Qor::measure(&d);
            (d, stats.failed, qor)
        };

        let (d_seq, failed_seq, qor_seq) = run(1);
        let (d_par, failed_par, qor_par) = run(2);
        let (d_par4, failed_par4, qor_par4) = run(4);

        assert!(
            legality::is_legal(&d_seq),
            "seed {seed}: sequential illegal"
        );
        assert_eq!(failed_seq, failed_par, "seed {seed}: failure sets differ");
        assert_eq!(failed_seq, failed_par4, "seed {seed}: failure sets differ");
        assert_eq!(qor_seq, qor_par, "seed {seed}: QoR differs");
        assert_eq!(qor_seq, qor_par4, "seed {seed}: QoR differs");
        for (a, b) in d_seq.cells.iter().zip(d_par.cells.iter()) {
            assert_eq!(a.pos, b.pos, "seed {seed}: {} placed differently", a.name);
            assert_eq!(a.legalized, b.legalized, "seed {seed}: {}", a.name);
        }
        for (a, b) in d_seq.cells.iter().zip(d_par4.cells.iter()) {
            assert_eq!(a.pos, b.pos, "seed {seed}: {} placed differently", a.name);
        }
    }
}

/// The windowed parallel runner must still produce a legal placement when
/// driven by the size ordering used everywhere else.
#[test]
fn parallel_gcell_legalization_is_legal() {
    let spec = find_spec("pci_bridge32_b_md1").expect("spec").scaled(0.008);
    let mut d = generate(&spec);
    let gcells = GcellGrid::new(&d, 3, 3);
    let mut lg = Legalizer::new(&d);
    let stats = lg.run_gcells_parallel(&mut d, &Ordering::SizeDescending, &gcells, 2);
    assert!(stats.is_complete(), "failed: {}", stats.failed.len());
    assert!(legality::is_legal(&d));
}
