//! Integration tests: the pixel-wise legalizer on generated benchmarks.
//!
//! Every ordering must produce a fully legal placement (verified by the
//! independent design-rule checker) on designs with macros, fences, edge
//! types, and mixed heights.

use rlleg_benchgen::{find_spec, generate};
use rlleg_design::{legality, metrics::Qor, DesignBuilder, EdgeType, Technology};
use rlleg_geom::Point;
use rlleg_legalize::{GcellGrid, Legalizer, Ordering, TetrisLegalizer, TileSchedule};

fn legalize_and_check(name: &str, scale: f64, ordering: Ordering) -> Qor {
    let spec = find_spec(name).expect("spec exists").scaled(scale);
    let mut design = generate(&spec);
    let mut lg = Legalizer::new(&design);
    let stats = lg.run(&mut design, &ordering);
    assert!(
        stats.is_complete(),
        "{name}: {} cells failed to legalize",
        stats.failed.len()
    );
    let violations = legality::check(&design, true);
    assert!(
        violations.is_empty(),
        "{name}: {} violations, first: {}",
        violations.len(),
        violations[0]
    );
    Qor::measure(&design)
}

#[test]
fn opencores_size_ordered() {
    let q = legalize_and_check("jpeg_encoder", 0.01, Ordering::SizeDescending);
    assert!(q.avg_displacement > 0.0, "legalization must move something");
}

#[test]
fn opencores_random_ordered() {
    legalize_and_check("des3", 0.008, Ordering::Random(7));
}

#[test]
fn contest_with_fences_and_macros() {
    let q = legalize_and_check("des_perf_a_md1", 0.004, Ordering::SizeDescending);
    assert!(q.max_displacement > 0);
}

#[test]
fn contest_low_density_with_macros() {
    legalize_and_check("pci_bridge32_b_md1", 0.008, Ordering::SizeDescending);
}

#[test]
fn high_density_design() {
    // des_perf_1 is the 0.91-density design the baseline fails on at full
    // scale; at small scale it must still legalize completely.
    legalize_and_check("des_perf_1", 0.004, Ordering::SizeDescending);
}

#[test]
fn x_ordered_on_contest() {
    legalize_and_check("fft_2_md2", 0.01, Ordering::XAscending);
}

#[test]
fn gcell_partitioned_run_is_legal() {
    let spec = find_spec("des_perf_b_md1").expect("spec").scaled(0.004);
    let mut design = generate(&spec);
    let gcells = GcellGrid::new(&design, 3, 3);
    let mut lg = Legalizer::new(&design);
    let stats = lg.run_gcells(&mut design, &Ordering::SizeDescending, &gcells);
    assert!(stats.is_complete(), "failed: {}", stats.failed.len());
    assert!(legality::is_legal(&design));
}

/// Two callers running the parallel solver at the same time (the serve
/// executors' pattern) each start their own workers and must each match a
/// single-threaded run cell for cell.
#[test]
fn concurrent_parallel_callers_match_a_single_threaded_run() {
    let spec = find_spec("des_perf_b_md1").expect("spec").scaled(0.004);
    let base = generate(&spec);
    let gcells = GcellGrid::new(&base, 4, 4);
    assert!(
        TileSchedule::new(&gcells).len() > 1,
        "needs a multi-tile grid"
    );
    let ordering = Ordering::Random(5);
    let run = |threads: usize| {
        let mut d = base.clone();
        let stats = Legalizer::new(&d).run_gcells_parallel(&mut d, &ordering, &gcells, threads);
        (stats, d)
    };
    let (ref_stats, reference) = run(1);
    assert!(ref_stats.is_complete(), "failed: {:?}", ref_stats.failed);
    let start = std::sync::Barrier::new(2);
    let runs: Vec<_> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    run(2)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .collect()
    });
    for (i, (stats, d)) in runs.iter().enumerate() {
        assert_eq!(stats, &ref_stats, "caller {i}: stats differ");
        for (a, b) in reference.cells.iter().zip(&d.cells) {
            assert_eq!(a.pos, b.pos, "caller {i}: {} placed differently", a.name);
            assert_eq!(a.legalized, b.legalized, "caller {i}: {}", a.name);
        }
    }
}

#[test]
fn heuristics_improve_random_order() {
    let spec = find_spec("eth_top").expect("spec").scaled(0.008);
    let mut design = generate(&spec);
    let mut lg = Legalizer::new(&design);
    let stats = lg.run(&mut design, &Ordering::Random(3));
    assert!(stats.is_complete());
    let before = Qor::measure(&design);
    lg.swap_pass(&mut design);
    lg.rearrange_pass(&mut design);
    let after = Qor::measure(&design);
    assert!(after.total_displacement <= before.total_displacement);
    assert!(legality::is_legal(&design));
}

#[test]
fn order_changes_qor_on_generated_designs() {
    let spec = find_spec("wb_conmax_top").expect("spec").scaled(0.02);
    let mut disps = Vec::new();
    for seed in 0..4 {
        let mut design = generate(&spec);
        let mut lg = Legalizer::new(&design);
        let stats = lg.run(&mut design, &Ordering::Random(seed));
        assert!(stats.is_complete());
        disps.push(Qor::measure(&design).total_displacement);
    }
    assert!(
        disps.iter().any(|&d| d != disps[0]),
        "QoR should vary with order: {disps:?}"
    );
}

/// Two committed type-2 cells that need 400 dbu between them, kept apart
/// by a one-site type-0 cell with a higher id. Re-registering the
/// committed cells in id order would check the second type-2 cell against
/// the first one 200 dbu away before the middle cell is in the grid, and
/// trip the edge-spacing debug assertion in `PixelGrid::place`.
#[test]
fn committed_cells_re_register_without_false_edge_spacing_violations() {
    let mut b = DesignBuilder::new("es", Technology::contest(), 20, 1);
    let left = b.add_cell("left", 2, 1, Point::new(1_000, 0));
    let right = b.add_cell("right", 2, 1, Point::new(1_600, 0));
    let mid = b.add_cell("mid", 1, 1, Point::new(1_400, 0));
    let e2 = EdgeType(2);
    b.set_edges(left, e2, e2).set_edges(right, e2, e2);
    let mut design = b.build();
    for id in [left, right, mid] {
        design.cell_mut(id).legalized = true;
    }
    assert!(legality::check(&design, true).is_empty());

    let sites = [(5, left), (6, left), (7, mid), (8, right), (9, right)];
    let lg = Legalizer::new(&design);
    let tetris = TetrisLegalizer::new(&design);
    for (site, id) in sites {
        assert_eq!(lg.grid().occupant(site, 0), Some(id));
        assert_eq!(tetris.grid().occupant(site, 0), Some(id));
    }
}
