//! Oracle 5: fault injection — every injected fault must end in a
//! *completed* run, never a process abort.
//!
//! The other oracles establish what the pipeline does on hostile *inputs*;
//! this one establishes what it does when the pipeline *itself* misbehaves.
//! Each iteration injects one deterministic fault from each family and
//! checks the documented recovery contract:
//!
//! - **panic-at-Gcell** — a solver panic in the parallel Gcell path must be
//!   quarantined and retried on the sequential fallback, with every movable
//!   cell still accounted for;
//! - **checkpoint corruption** — a truncated / bit-flipped / version-skewed
//!   newest generation must make [`CheckpointStore::load_latest`] fall back
//!   to the previous valid one, and training must resume from it;
//! - **NaN-poisoned weights** — RL inference with a non-finite network must
//!   degrade to the size-ordered fallback and still legalize;
//! - **slow-solve stall** (sampled iterations — it costs real wall clock) —
//!   an injected inference stall must trip the wall-clock watchdog, not
//!   hang the run.
//!
//! The harness deliberately keeps no `catch_unwind` of its own: if recovery
//! fails and a panic (or abort) escapes, the fuzz process dies and *that*
//! is the signal.

use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use rl_legalizer::{
    CheckpointStore, DegradeReason, InferenceBudget, RlConfig, RlLegalizer, Trainer,
};
use rlleg_design::{legality, DesignBuilder, Technology};
use rlleg_geom::Point;
use rlleg_legalize::{fault, FaultPlan, GcellGrid, InferStall, Legalizer, Ordering};

use rl_legalizer::CellWiseNet;

use crate::scenario::Scenario;
use crate::Failure;

/// Runs the fault-injection invariants. Deterministic in `fault_seed`;
/// `deep` additionally runs the wall-clock stall case (real sleeps).
pub fn check(sc: &Scenario, fault_seed: u64, deep: bool) -> Vec<Failure> {
    let mut rng = ChaCha8Rng::seed_from_u64(fault_seed);
    let mut failures = Vec::new();
    check_panic_quarantine(sc, &mut rng, &mut failures);
    check_checkpoint_recovery(sc, &mut rng, &mut failures);
    check_nan_weights_degrade(sc, &mut rng, &mut failures);
    if deep {
        check_stall_watchdog(sc, &mut failures);
    }
    failures
}

fn fail(sc: &Scenario, msg: String, failures: &mut Vec<Failure>) {
    failures.push(Failure {
        oracle: "fault",
        scenario: sc.label.clone(),
        message: msg,
        artifact: None,
    });
}

/// Runs `f` with panic traces suppressed: the injected panics are expected
/// and would otherwise drown the fuzz log. The panic hook is process-global
/// while fault plans are per thread, so concurrent callers (test threads)
/// take turns here; otherwise one could restore another's quiet hook.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static SWAP: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = SWAP
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A panicking Gcell solve must be quarantined, retried sequentially, and
/// leave a complete, deterministic accounting of every movable cell.
fn check_panic_quarantine(sc: &Scenario, rng: &mut ChaCha8Rng, failures: &mut Vec<Failure>) {
    if sc.design.num_movable() == 0 {
        return;
    }
    let grid = GcellGrid::auto(&sc.design);
    let populated: Vec<usize> = (0..grid.len())
        .filter(|&g| !grid.cells_of(g).is_empty())
        .collect();
    let Some(&target) = populated.get(rng.gen_range(0..populated.len().max(1))) else {
        return;
    };
    let threads = [1usize, 2, 4][rng.gen_range(0..3)];

    let guard = fault::arm(FaultPlan {
        panic_at_gcell: Some(target),
        ..FaultPlan::default()
    });
    let (stats, design) = with_quiet_panics(|| {
        let mut d = sc.design.clone();
        let stats = Legalizer::new(&d).run_gcells_parallel(
            &mut d,
            &Ordering::SizeDescending,
            &grid,
            threads,
        );
        (stats, d)
    });
    drop(guard);

    if stats.quarantined != vec![target] {
        fail(
            sc,
            format!(
                "panic at gcell {target} (threads {threads}): quarantined {:?}",
                stats.quarantined
            ),
            failures,
        );
    }
    if stats.legalized + stats.failed.len() != design.num_movable() {
        fail(
            sc,
            format!(
                "panic at gcell {target}: {} legalized + {} failed != {} movable",
                stats.legalized,
                stats.failed.len(),
                design.num_movable()
            ),
            failures,
        );
    }
    if stats.is_complete() && !legality::is_legal(&design) {
        fail(
            sc,
            format!(
                "panic at gcell {target}: complete but illegal: {:?}",
                legality::check(&design, true).first()
            ),
            failures,
        );
    }
}

/// Corrupting the newest checkpoint generation (torn tail, bit flip, or
/// version skew) must leave the store recoverable from the previous one —
/// and training must actually resume from what was recovered.
fn check_checkpoint_recovery(sc: &Scenario, rng: &mut ChaCha8Rng, failures: &mut Vec<Failure>) {
    let mut b = DesignBuilder::new("fuzz_ckpt", Technology::contest(), 20, 5);
    for i in 0..8i64 {
        b.add_cell(
            format!("c{i}"),
            1 + i % 2,
            1,
            Point::new(i * 360 + 60, (i % 3) * 1_800 + 90),
        );
    }
    let designs = [b.build()];
    let cfg = RlConfig {
        hidden_dim: 8,
        agents: 1,
        episodes: 3,
        pretrain_episodes: 0,
        seed: rng.gen(),
        ..RlConfig::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "rlleg-fuzz-ckpt-{}-{:x}",
        std::process::id(),
        rng.gen::<u64>()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match CheckpointStore::new(&dir, 3) {
        Ok(s) => s,
        Err(e) => {
            fail(
                sc,
                format!("checkpoint store creation failed: {e}"),
                failures,
            );
            return;
        }
    };

    let mut t = Trainer::new(&designs, &cfg);
    t.run_episode();
    let good_state = t.state();
    if let Err(e) = store.save(&good_state) {
        fail(sc, format!("checkpoint save failed: {e}"), failures);
        return;
    }
    t.run_episode();
    if let Err(e) = store.save(&t.state()) {
        fail(sc, format!("checkpoint save failed: {e}"), failures);
        return;
    }

    // Corrupt the newest generation, one of three ways.
    let gens = store.generations();
    let Some((newest_seq, newest_path)) = gens.last().cloned() else {
        fail(sc, "no generations after two saves".into(), failures);
        return;
    };
    let mut bytes = std::fs::read(&newest_path).unwrap_or_default();
    let kind = rng.gen_range(0..3u8);
    match kind {
        0 => bytes.truncate(rng.gen_range(0..bytes.len())), // torn write
        1 => {
            let pos = rng.gen_range(20..bytes.len()); // body bit flip
            bytes[pos] ^= 1 << rng.gen_range(0..8u8);
        }
        _ => bytes[4] = bytes[4].wrapping_add(1), // version skew
    }
    if std::fs::write(&newest_path, &bytes).is_err() {
        fail(sc, "could not plant corrupt checkpoint".into(), failures);
        return;
    }

    match store.load_latest() {
        None => fail(
            sc,
            format!("corruption kind {kind} of gen {newest_seq} lost ALL generations"),
            failures,
        ),
        Some((seq, recovered)) => {
            if recovered != good_state {
                fail(
                    sc,
                    format!(
                        "corruption kind {kind}: recovered gen {seq} differs from what was saved"
                    ),
                    failures,
                );
            } else if let Ok(mut resumed) = Trainer::restore(&designs, &recovered) {
                while resumed.run_episode() {}
                if !resumed.done() {
                    fail(sc, "resumed trainer did not finish".into(), failures);
                }
            } else {
                fail(
                    sc,
                    format!("corruption kind {kind}: recovered state fails to restore"),
                    failures,
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A network whose weights are all NaN must degrade to the size-ordered
/// fallback — and still account for and legalize the design's cells.
fn check_nan_weights_degrade(sc: &Scenario, rng: &mut ChaCha8Rng, failures: &mut Vec<Failure>) {
    if sc.design.num_movable() == 0 {
        return;
    }
    let mut net = CellWiseNet::new(rng.gen_range(8..=16usize), rng);
    let poisoned = vec![f32::NAN; net.num_params()];
    net.set_params_flat(&poisoned);
    let mut d = sc.design.clone();
    let report = RlLegalizer::new(net).legalize(&mut d);
    if report.degraded != Some(DegradeReason::NonFiniteOutput) {
        fail(
            sc,
            format!("NaN weights: degraded = {:?}", report.degraded),
            failures,
        );
    }
    if report.legalized + report.failed.len() != d.num_movable() {
        fail(
            sc,
            format!(
                "NaN weights: {} legalized + {} failed != {} movable",
                report.legalized,
                report.failed.len(),
                d.num_movable()
            ),
            failures,
        );
    }
    if report.is_complete() && !legality::is_legal(&d) {
        fail(
            sc,
            format!(
                "NaN weights: complete but illegal: {:?}",
                legality::check(&d, true).first()
            ),
            failures,
        );
    }
}

/// An injected per-step stall must trip the wall-clock watchdog instead of
/// hanging; the run still finishes on the fallback path.
fn check_stall_watchdog(sc: &Scenario, failures: &mut Vec<Failure>) {
    let mut b = DesignBuilder::new("fuzz_stall", Technology::contest(), 24, 6);
    for i in 0..10i64 {
        b.add_cell(format!("s{i}"), 1 + i % 2, 1, Point::new(i * 320, 500));
    }
    let mut d = b.build();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let net = CellWiseNet::new(8, &mut rng);
    let _guard = fault::arm(FaultPlan {
        infer_stall: Some(InferStall {
            from_step: 1,
            sleep: Duration::from_millis(25),
        }),
        ..FaultPlan::default()
    });
    let report = RlLegalizer::new(net)
        .with_budget(InferenceBudget::wall(Duration::from_millis(10)))
        .legalize(&mut d);
    if report.degraded != Some(DegradeReason::WallClock) {
        fail(
            sc,
            format!("stalled inference: degraded = {:?}", report.degraded),
            failures,
        );
    }
    if !report.is_complete() {
        fail(
            sc,
            format!("stalled inference left failures: {:?}", report.failed),
            failures,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_scenario() -> Scenario {
        let mut b = DesignBuilder::new("fault", Technology::contest(), 20, 5);
        for i in 0..8i64 {
            b.add_cell(
                format!("u{i}"),
                1 + i % 2,
                1,
                Point::new(i * 400, (i % 2) * 2_000),
            );
        }
        Scenario {
            label: "test:fault".into(),
            design: b.build(),
        }
    }

    #[test]
    fn all_injected_faults_recover() {
        let sc = toy_scenario();
        for seed in 0..3u64 {
            let failures = check(&sc, seed, true);
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
        }
    }
}
