//! Stage spans, the spread step counter and the finalist trial counter
//! of `place`.
//!
//! Telemetry's enabled flag and registry are process-global, so these
//! checks run in their own test binary and serialize through [`lock`].

use std::sync::{Mutex, MutexGuard};

use rlleg_benchgen::{find_spec, generate};
use rlleg_gplace::{place, GpConfig, GpStats};
use telemetry::Snapshot;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One `place` call on des_perf_b_md1 at 1k cells with telemetry on, and
/// what it recorded.
fn traced_place(cfg: &GpConfig) -> (GpStats, Snapshot) {
    let _g = lock();
    let mut d = generate(&find_spec("des_perf_b_md1").expect("spec").scaled_to(1_000));
    telemetry::global().reset();
    telemetry::enable();
    let stats = place(&mut d, cfg);
    telemetry::disable();
    (stats, telemetry::snapshot())
}

fn spans(s: &Snapshot, name: &str) -> u64 {
    s.histogram(&format!("span.{name}")).map_or(0, |h| h.count)
}

#[test]
fn warm_place_records_one_solve_and_one_spread_per_iteration() {
    let cfg = GpConfig::default();
    let (stats, s) = traced_place(&cfg);
    assert!(stats.iterations > 0);
    let iterations = stats.iterations as u64;
    assert_eq!(spans(&s, "gplace.place"), 1);
    assert_eq!(spans(&s, "gplace.solve"), iterations);
    assert_eq!(spans(&s, "gplace.spread"), iterations);
    assert_eq!(spans(&s, "gplace.finalist"), 1);
    assert_eq!(spans(&s, "gplace.finalist.respread"), 1);
    // Each loop spread takes at most `warm_diffusion_steps` steps and each
    // finalist re-spread at most `diffusion_steps`.
    let steps = s.counter("gplace.spread.steps");
    let cap = cfg.warm_diffusion_steps as u64 * iterations + 2 * cfg.diffusion_steps as u64;
    assert!(steps > 0 && steps <= cap, "{steps} steps, cap {cap}");
    // An iterate replaced the input here, so every finalist is tried:
    // the input, the refined iterate and the two spreads.
    assert_eq!(s.counter("gplace.finalist.trials"), 4);
    assert_eq!(spans(&s, "legalize.run_gcells_parallel"), 4);
}

#[test]
fn without_iterations_the_refined_trial_is_skipped() {
    let cfg = GpConfig {
        max_iterations: 0,
        ..GpConfig::default()
    };
    let (stats, s) = traced_place(&cfg);
    assert_eq!(stats.iterations, 0);
    assert_eq!(spans(&s, "gplace.solve"), 0);
    assert_eq!(spans(&s, "gplace.spread"), 0);
    assert_eq!(spans(&s, "gplace.finalist"), 1);
    assert_eq!(spans(&s, "gplace.finalist.respread"), 1);
    // The refined iterate is the input: only the input and the two
    // spreads are legalized.
    assert_eq!(s.counter("gplace.finalist.trials"), 3);
    assert_eq!(spans(&s, "legalize.run_gcells_parallel"), 3);
    assert_eq!(s.counter("gplace.finalist.refined"), 0);
}

#[test]
fn cold_place_spans_its_initial_solve_and_runs_no_finalist() {
    let cfg = GpConfig {
        warm_start: false,
        ..GpConfig::default()
    };
    let (stats, s) = traced_place(&cfg);
    let iterations = stats.iterations as u64;
    // The anchor-free wirelength solve before the loop is a solve too.
    assert_eq!(spans(&s, "gplace.solve"), iterations + 1);
    assert_eq!(spans(&s, "gplace.spread"), iterations);
    assert_eq!(spans(&s, "gplace.finalist"), 0);
    assert_eq!(spans(&s, "gplace.finalist.respread"), 0);
    assert_eq!(s.counter("gplace.finalist.trials"), 0);
}
