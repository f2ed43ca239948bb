//! Legalizer performance suite tracked in `BENCH_legalize.json`.
//!
//! Benches the word-level bitset `find_position` against the per-pixel
//! reference (`find_position_reference`) on dense / sparse / macro-heavy
//! occupancy grids, full-design legalization (sequential vs parallel
//! per-Gcell), the `legalize_scale` curve (flat vs parallel at 1k/10k/100k
//! cells, with an opt-in 1M smoke), the analytical global placer (wall
//! time, overflow-trajectory endpoints, and post-legalization HPWL from
//! gplace vs the synthetic benchgen perturbation), batched vs per-state
//! network evaluation, and async vs round-robin training throughput on a
//! 10k-cell design. The custom `main` exports every measurement (mean ns)
//! to `BENCH_legalize.json` at the repo root so the perf trajectory is
//! diffable across PRs.
//!
//! CLI (after `cargo bench -p rlleg-bench --`):
//!
//! - `--cells 1k|10k|100k|1m` — largest `legalize_scale` point (default
//!   100k; `1m` is the million-cell smoke),
//! - `--only-scale` — run only the `legalize_scale` curve,
//! - `--only-gplace` — run only the `gplace` and `legalize_from_gp`
//!   groups (the ci.sh global-placement smoke),
//! - `--out <path>` — where to write the JSON snapshot.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use rl_legalizer::{train, CellWiseNet, RlConfig, Trainer};
use rlleg_benchgen::{find_spec, generate, parse_cells};
use rlleg_design::{metrics, CellId, Design};
use rlleg_gplace::{place, GpConfig};
use rlleg_legalize::{
    find_position, find_position_reference, GcellGrid, Legalizer, Ordering, SearchConfig,
    NUM_FEATURES,
};
use rlleg_nn::Matrix;

fn design(name: &str, scale: f64) -> Design {
    generate(&find_spec(name).expect("spec").scaled(scale))
}

/// Fully legalizes a design and returns it with the grid that produced it.
fn legalized(name: &str, scale: f64) -> (Design, Legalizer) {
    let d = design(name, scale);
    let mut lg = Legalizer::new(&d);
    let mut placed = d.clone();
    lg.run(&mut placed, &Ordering::SizeDescending);
    (placed, lg)
}

/// `find_position` micro-benchmark: re-search every sampled cell from its
/// global-placement position against the final (dense) occupancy, once with
/// the span-walking bitset search and once with the per-pixel reference.
fn bench_find_position(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_position");
    group.sample_size(30);
    // des_perf_1 is the 0.91-utilization design the baseline chokes on;
    // pci_bridge32 is low-density; des_perf_a_md1 adds fences + macros.
    let cases = [
        ("dense", "des_perf_1", 0.008),
        ("sparse", "pci_bridge32_b_md1", 0.012),
        ("macro_heavy", "des_perf_a_md1", 0.008),
    ];
    for (label, name, scale) in cases {
        let (placed, lg) = legalized(name, scale);
        let cells: Vec<CellId> = placed.movable_ids().step_by(7).take(48).collect();
        let cfg = SearchConfig::default();
        group.bench_with_input(BenchmarkId::new("bitset", label), &cells, |b, cells| {
            b.iter(|| {
                cells
                    .iter()
                    .filter_map(|&cell| {
                        find_position(lg.grid(), &placed, cell, placed.cell(cell).gp_pos, cfg)
                    })
                    .count()
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", label), &cells, |b, cells| {
            b.iter(|| {
                cells
                    .iter()
                    .filter_map(|&cell| {
                        find_position_reference(
                            lg.grid(),
                            &placed,
                            cell,
                            placed.cell(cell).gp_pos,
                            cfg,
                        )
                    })
                    .count()
            })
        });
    }
    group.finish();
}

/// End-to-end legalization of a whole design: flat, Gcell-sequential, and
/// Gcell-parallel (2 workers; on a single-core host this measures the
/// orchestration overhead rather than a speedup).
fn bench_full_legalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("legalize_full");
    group.sample_size(10);
    let d = design("des_perf_b_md1", 0.006);
    group.bench_function("flat", |b| {
        b.iter(|| {
            let mut local = d.clone();
            let mut lg = Legalizer::new(&local);
            black_box(lg.run(&mut local, &Ordering::SizeDescending))
        })
    });
    let gcells = GcellGrid::new(&d, 3, 3);
    group.bench_function("gcell_seq", |b| {
        b.iter(|| {
            let mut local = d.clone();
            let mut lg = Legalizer::new(&local);
            black_box(lg.run_gcells(&mut local, &Ordering::SizeDescending, &gcells))
        })
    });
    group.bench_function("gcell_parallel2", |b| {
        b.iter(|| {
            let mut local = d.clone();
            let mut lg = Legalizer::new(&local);
            black_box(lg.run_gcells_parallel(&mut local, &Ordering::SizeDescending, &gcells, 2))
        })
    });
    group.finish();
}

/// The scale curve: flat vs parallel legalization of des_perf_b_md1 grown
/// to explicit cell-count presets. Every iteration asserts zero failed
/// cells, so a run that trades completeness for speed fails the bench
/// itself, not just the guard script.
fn bench_scale(c: &mut Criterion, max_cells: usize) {
    let mut group = c.benchmark_group("legalize_scale");
    group.sample_size(5);
    let spec = find_spec("des_perf_b_md1").expect("spec");
    let threads = rlleg_legalize::pool::default_threads();
    for (label, cells) in [
        ("1k", 1_000usize),
        ("10k", 10_000),
        ("100k", 100_000),
        ("1m", 1_000_000),
    ] {
        if cells > max_cells {
            continue;
        }
        let s = spec.scaled_to(cells);
        let d = generate(&s);
        let (nx, ny) = s.paper_gcell_grid();
        let gcells = GcellGrid::new(&d, nx, ny);
        group.bench_function(format!("flat/{label}"), |b| {
            b.iter(|| {
                let mut local = d.clone();
                let stats = Legalizer::new(&local).run(&mut local, &Ordering::SizeDescending);
                assert!(
                    stats.failed.is_empty(),
                    "flat/{label}: {} cells failed",
                    stats.failed.len()
                );
                black_box(stats.legalized)
            })
        });
        group.bench_function(format!("parallel/{label}"), |b| {
            b.iter(|| {
                let mut local = d.clone();
                let stats = Legalizer::new(&local).run_gcells_parallel(
                    &mut local,
                    &Ordering::SizeDescending,
                    &gcells,
                    threads,
                );
                assert!(
                    stats.failed.is_empty(),
                    "parallel/{label}: {} cells failed",
                    stats.failed.len()
                );
                black_box(stats.legalized)
            })
        });
    }
    group.finish();
}

/// Analytical global placement at the scale-curve presets: wall time of
/// the full `place` pipeline (quadratic solves + diffusion spreading +
/// the legalization-aware finalist round) plus its bin-overflow trajectory
/// endpoints as raw scalars. `bench_guard.sh` asserts the overflow
/// decreases at 10k cells.
fn bench_gplace(c: &mut Criterion, max_cells: usize) {
    let mut group = c.benchmark_group("gplace");
    group.sample_size(2);
    let spec = find_spec("des_perf_b_md1").expect("spec");
    let cfg = GpConfig::default();
    for (label, cells) in [("1k", 1_000usize), ("10k", 10_000), ("100k", 100_000)] {
        if cells > max_cells {
            continue;
        }
        let d = generate(&spec.scaled_to(cells));
        let mut last = None;
        group.bench_function(format!("place/{label}"), |b| {
            b.iter(|| {
                let mut local = d.clone();
                last = Some(place(&mut local, &cfg));
            })
        });
        let stats = last.expect("bench ran");
        let start = stats.overflow.first().copied().unwrap_or(0.0);
        let end = stats.overflow.last().copied().unwrap_or(0.0);
        criterion::record_value("gplace", format!("overflow_start/{label}"), start);
        criterion::record_value("gplace", format!("overflow_end/{label}"), end);
    }
    group.finish();
}

/// The QoR comparison the placer exists for: legalize the same netlist
/// once from the synthetic benchgen perturbation and once from the gplace
/// output, and record post-legalization HPWL plus failed-cell counts as
/// raw scalars. `bench_guard.sh` asserts zero failed cells from gplace
/// and a strictly lower HPWL than the synthetic baseline at 10k cells.
fn bench_legalize_from_gp(c: &mut Criterion, max_cells: usize) {
    let mut group = c.benchmark_group("legalize_from_gp");
    group.sample_size(2);
    let spec = find_spec("des_perf_b_md1").expect("spec");
    let threads = rlleg_legalize::pool::default_threads();
    let cfg = GpConfig::default();
    for (label, cells) in [("1k", 1_000usize), ("10k", 10_000), ("100k", 100_000)] {
        if cells > max_cells {
            continue;
        }
        let d = generate(&spec.scaled_to(cells));
        let mut placed = d.clone();
        place(&mut placed, &cfg);
        for (variant, input) in [("synthetic", &d), ("gp", &placed)] {
            let gcells = GcellGrid::auto(input);
            let mut failed = 0usize;
            let mut hpwl = 0i64;
            group.bench_function(format!("{variant}/{label}"), |b| {
                b.iter(|| {
                    let mut local = input.clone();
                    let stats = Legalizer::new(&local).run_gcells_parallel(
                        &mut local,
                        &Ordering::SizeDescending,
                        &gcells,
                        threads,
                    );
                    assert!(
                        stats.failed.is_empty(),
                        "{variant}/{label}: {} cells failed",
                        stats.failed.len()
                    );
                    failed = stats.failed.len();
                    hpwl = metrics::total_hpwl(&local);
                    black_box(stats.legalized)
                })
            });
            criterion::record_value(
                "legalize_from_gp",
                format!("failed_{variant}/{label}"),
                failed as f64,
            );
            criterion::record_value(
                "legalize_from_gp",
                format!("hpwl_{variant}/{label}"),
                hpwl as f64,
            );
        }
    }
    group.finish();
}

/// Batched network evaluation: one stacked matrix–matrix forward over all
/// per-step states vs one small forward per state, and the policy-only
/// inference path vs the full policy+value forward.
fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("network");
    group.sample_size(30);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let net = CellWiseNet::new(64, &mut rng);
    // Per-step states are small (the cells still unplaced in one Gcell
    // subepisode), so the batched path's win is amortizing per-forward
    // overhead across the whole mini-batch.
    let states: Vec<Matrix> = (0..64)
        .map(|k| {
            let n = 2 + (k * 3) % 12;
            let data: Vec<f32> = (0..n * NUM_FEATURES)
                .map(|i| ((i * 7 + k) % 23) as f32 / 23.0)
                .collect();
            Matrix::from_vec(n, NUM_FEATURES, data)
        })
        .collect();
    let refs: Vec<&Matrix> = states.iter().collect();
    group.bench_function("values_batched", |b| {
        b.iter(|| black_box(net.values_batch(&refs)).len())
    });
    group.bench_function("values_per_state", |b| {
        b.iter(|| {
            states
                .iter()
                .map(|s| net.forward_inference(s).value)
                .sum::<f32>()
        })
    });
    group.bench_function("policy_only", |b| {
        b.iter(|| {
            states
                .iter()
                .map(|s| net.forward_policy(s).len())
                .sum::<usize>()
        })
    });
    group.bench_function("policy_and_value", |b| {
        b.iter(|| {
            states
                .iter()
                .map(|s| net.forward_inference(s).logits.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Training throughput: the asynchronous concurrent-agent trainer (batched
/// policy forwards across Gcells, a shared locked parameter store) vs the
/// deterministic round-robin `Trainer` on the same 10k-cell design and
/// config. Both run `agents × episodes` full episodes, so mean time per
/// iteration is directly comparable as steps/sec; `bench_guard.sh` asserts
/// async ≥ round-robin whenever the host has ≥ 2 cores.
fn bench_train_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_throughput");
    group.sample_size(10);
    let spec = find_spec("des_perf_b_md1").expect("spec");
    let d = generate(&spec.scaled_to(10_000));
    let designs = std::slice::from_ref(&d);
    let cfg = RlConfig {
        hidden_dim: 16,
        agents: 2,
        episodes: 1,
        pretrain_episodes: 0,
        seed: 7,
        ..RlConfig::default()
    };
    group.bench_function("async2/10k", |b| {
        b.iter(|| black_box(train(designs, &cfg).history.len()))
    });
    group.bench_function("roundrobin2/10k", |b| {
        b.iter(|| {
            let mut t = Trainer::new(designs, &cfg);
            while t.run_episode() {}
            black_box(t.finish().history.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_find_position,
    bench_full_legalize,
    bench_inference,
    bench_train_throughput
);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let max_cells = value_of("--cells").map_or(100_000, |v| {
        parse_cells(&v)
            .unwrap_or_else(|| panic!("--cells wants 1k|10k|100k|1m or an integer, got {v:?}"))
    });
    let only_scale = args.iter().any(|a| a == "--only-scale");
    let only_gplace = args.iter().any(|a| a == "--only-gplace");
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_legalize.json").to_owned();
    let path = value_of("--out").unwrap_or(default_out);

    let mut c = Criterion::default();
    if !only_scale && !only_gplace {
        benches();
    }
    if !only_scale {
        bench_gplace(&mut c, max_cells);
        bench_legalize_from_gp(&mut c, max_cells);
    }
    if !only_gplace {
        bench_scale(&mut c, max_cells);
    }
    criterion::export_json(&path).expect("write bench snapshot");
    println!("wrote {path}");
}
