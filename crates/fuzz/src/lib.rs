//! Differential fuzzing and invariant audit across the legalization
//! pipeline.
//!
//! The paper's headline claim rests on a legality guarantee ("no design rule
//! violations occur for all benchmarks"); this crate stress-tests that
//! guarantee under adversarial inputs instead of the curated bench designs.
//! Each iteration draws one seeded [`scenario`] (half benchmark-spec-based,
//! half deliberately hostile: off-core macros, degenerate fences, cells
//! wider than a Gcell window) and drives four differential oracles over it:
//!
//! 1. [`oracle_legalize`] — every legalizer configuration (three orderings ×
//!    flat/Gcell/parallel × threads {1, 2, 4}) must leave an empty
//!    [`rlleg_design::legality::check`] or an *explained* failure set
//!    (every violation involves a cell the run reported as failed), with
//!    parallel runs bit-identical to `threads = 1`;
//! 2. [`oracle_parse`] — DEF/LEF round-trips are lossless, and mutated or
//!    truncated inputs return `Err`, never panic (there is deliberately no
//!    `catch_unwind` anywhere: a panic crashes the harness and *is* the
//!    detection);
//! 3. [`oracle_grid`] — randomized place/remove/search/window op sequences
//!    on [`rlleg_legalize::PixelGrid`] cross-checked against the kept
//!    `*_reference` oracles and against loaded Gcell windows;
//! 4. [`oracle_nn`] — trainer/inference invariants: priorities form a
//!    probability simplex, `values_batch` equals the per-state forward
//!    pass bit-for-bit, and short training runs produce finite losses and
//!    parameters;
//! 5. [`oracle_fault`] — deterministic fault injection: solver panics,
//!    corrupted checkpoints, NaN-poisoned weights, and stalled inference
//!    must all end in a completed run with the documented recovery
//!    behaviour, never a process abort;
//! 6. [`oracle_proto`] — the serving wire protocol: valid frames
//!    round-trip and reassemble from adversarial chunk sizes, while
//!    mutated, truncated, spliced, or garbage byte streams return `Err`
//!    — never panic, hang, or mis-frame;
//! 7. [`oracle_params`] — the asynchronous trainer's
//!    [`rl_legalizer::ParamStore`] under writer/reader thread
//!    contention: snapshots are never torn, the reported epoch always
//!    names the publish actually read (no ABA), and epochs are monotone;
//! 8. [`oracle_gplace`] — the analytical global placer: output positions
//!    are finite and on-die, fixed cells never move, the overflow
//!    trajectory is non-increasing, runs are bit-deterministic for a
//!    fixed seed, and benchmark-spec scenarios always legalize with zero
//!    failed cells and an empty legality check;
//! 9. [`oracle_wal`] — crash-durability of the serving write-ahead job
//!    journal: after a kill at a seeded point (torn tail, garbage tail,
//!    or mid-rotation), every durably acknowledged job is either
//!    recovered for re-run or its persisted result served bit-identically
//!    — checked differentially against an independent replay model.
//!
//! Failing designs are minimized by the greedy [`shrink`]er and written to
//! `crates/fuzz/corpus/`, which doubles as the regression suite replayed by
//! `tests/corpus.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod oracle_fault;
pub mod oracle_gplace;
pub mod oracle_grid;
pub mod oracle_legalize;
pub mod oracle_nn;
pub mod oracle_params;
pub mod oracle_parse;
pub mod oracle_proto;
pub mod oracle_wal;
pub mod scenario;
pub mod shrink;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Repro material a failing oracle leaves behind.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// The failing design (shrunk when the minimizer could) as
    /// [`rlleg_design::Design::to_json`].
    DesignJson(String),
    /// The DEF text that triggered the failure.
    Def(String),
    /// The LEF text that triggered the failure.
    Lef(String),
    /// A hex dump of the protocol bytes that triggered the failure.
    FrameHex(String),
    /// A `key=value` [`oracle_params::Case`] that triggered the failure.
    ParamsCase(String),
    /// A hex dump of a write-ahead-journal segment left by a failing
    /// crash-recovery run.
    WalSegmentHex(String),
}

impl Artifact {
    /// File extension the artifact should be written with.
    pub fn extension(&self) -> &'static str {
        match self {
            Artifact::DesignJson(_) => "json",
            Artifact::Def(_) => "def",
            Artifact::Lef(_) => "lef",
            Artifact::FrameHex(_) => "hex",
            Artifact::ParamsCase(_) => "params",
            Artifact::WalSegmentHex(_) => "wal",
        }
    }

    /// The artifact payload.
    pub fn contents(&self) -> &str {
        match self {
            Artifact::DesignJson(s)
            | Artifact::Def(s)
            | Artifact::Lef(s)
            | Artifact::FrameHex(s)
            | Artifact::ParamsCase(s)
            | Artifact::WalSegmentHex(s) => s,
        }
    }
}

/// One oracle failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle fired (`legalize`, `parse`, `grid`, `nn`, `fault`,
    /// `proto`, `params`, `gplace`, `wal`).
    pub oracle: &'static str,
    /// Scenario label (generator family + parameters).
    pub scenario: String,
    /// Human-readable description of the broken invariant.
    pub message: String,
    /// Repro input, when one can be serialized.
    pub artifact: Option<Artifact>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.oracle, self.scenario, self.message)
    }
}

/// Budget for shrinker predicate evaluations per failing iteration.
const SHRINK_BUDGET: usize = 200;

/// Runs one full fuzz iteration (scenario + all nine oracles) and returns
/// every invariant failure. Deterministic in `(seed, iter)`.
pub fn run_iteration(seed: u64, iter: u64) -> Vec<Failure> {
    run_iteration_filtered(seed, iter, None)
}

/// [`run_iteration`], restricted to the oracle named by `only` when given
/// (`legalize`, `parse`, `grid`, `nn`, `fault`, `proto`, `params`,
/// `gplace`, `wal`). Seed
/// derivation is shared with the unfiltered run, so `--only` repros match
/// full-run failures.
pub fn run_iteration_filtered(seed: u64, iter: u64, only: Option<&str>) -> Vec<Failure> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sc = scenario::generate(&mut rng);
    telemetry::counter("fuzz.iters").inc();
    let wants = |name: &str| only.is_none_or(|o| o == name);

    let mut failures = Vec::new();

    let order_seed: u64 = rng.gen();
    let mut leg = if wants("legalize") {
        timed("legalize", || oracle_legalize::check(&sc, order_seed))
    } else {
        Vec::new()
    };
    if !leg.is_empty() {
        let json = minimized_json(&sc, &mut |d| {
            let probe = scenario::Scenario {
                label: sc.label.clone(),
                design: d.clone(),
            };
            !oracle_legalize::check(&probe, order_seed).is_empty()
        });
        for f in &mut leg {
            f.artifact
                .get_or_insert_with(|| Artifact::DesignJson(json.clone()));
        }
        failures.extend(leg);
    }

    // Each remaining oracle gets its own seed drawn unconditionally, so a
    // `--only` run reproduces exactly what the full run fed that oracle.
    let parse_seed: u64 = rng.gen();
    if wants("parse") {
        let mut parse_rng = ChaCha8Rng::seed_from_u64(parse_seed);
        failures.extend(timed("parse", || oracle_parse::check(&sc, &mut parse_rng)));
    }

    let grid_seed: u64 = rng.gen();
    let mut grd = if wants("grid") {
        timed("grid", || oracle_grid::check(&sc, grid_seed))
    } else {
        Vec::new()
    };
    if !grd.is_empty() {
        let json = minimized_json(&sc, &mut |d| {
            let probe = scenario::Scenario {
                label: sc.label.clone(),
                design: d.clone(),
            };
            !oracle_grid::check(&probe, grid_seed).is_empty()
        });
        for f in &mut grd {
            f.artifact
                .get_or_insert_with(|| Artifact::DesignJson(json.clone()));
        }
        failures.extend(grd);
    }

    let nn_seed: u64 = rng.gen();
    // The (slower) end-to-end training invariants run on a sampled subset
    // of iterations; the cheap inference invariants run every time.
    let deep = iter.is_multiple_of(16);
    if wants("nn") {
        failures.extend(timed("nn", || oracle_nn::check(&sc, nn_seed, deep)));
    }

    let fault_seed: u64 = rng.gen();
    // The stall case sleeps for real wall clock; sample it like the deep
    // nn check. The panic/checkpoint/NaN cases run every iteration.
    let fault_deep = iter.is_multiple_of(8);
    if wants("fault") {
        failures.extend(timed("fault", || {
            oracle_fault::check(&sc, fault_seed, fault_deep)
        }));
    }

    let proto_seed: u64 = rng.gen();
    if wants("proto") {
        failures.extend(timed("proto", || oracle_proto::check(&sc, proto_seed)));
    }

    let params_seed: u64 = rng.gen();
    if wants("params") {
        failures.extend(timed("params", || oracle_params::check(&sc, params_seed)));
    }

    let gplace_seed: u64 = rng.gen();
    let mut gpl = if wants("gplace") {
        timed("gplace", || oracle_gplace::check(&sc, gplace_seed))
    } else {
        Vec::new()
    };
    if !gpl.is_empty() {
        let json = minimized_json(&sc, &mut |d| {
            let probe = scenario::Scenario {
                label: sc.label.clone(),
                design: d.clone(),
            };
            !oracle_gplace::check(&probe, gplace_seed).is_empty()
        });
        for f in &mut gpl {
            f.artifact
                .get_or_insert_with(|| Artifact::DesignJson(json.clone()));
        }
        failures.extend(gpl);
    }

    let wal_seed: u64 = rng.gen();
    if wants("wal") {
        failures.extend(timed("wal", || oracle_wal::check(&sc, wal_seed)));
    }

    if !failures.is_empty() {
        telemetry::counter("fuzz.failures").add(failures.len() as u64);
    }
    failures
}

/// Shrinks the scenario design against `fails` and serializes the result.
fn minimized_json(
    sc: &scenario::Scenario,
    fails: &mut dyn FnMut(&rlleg_design::Design) -> bool,
) -> String {
    let small = shrink::shrink_design(&sc.design, fails, SHRINK_BUDGET);
    small
        .to_json()
        .unwrap_or_else(|e| format!("{{\"serialize_error\":\"{e}\"}}"))
}

/// Runs `f`, recording its wall time and failure count under
/// `fuzz.oracle.<name>.*`.
fn timed(name: &'static str, f: impl FnOnce() -> Vec<Failure>) -> Vec<Failure> {
    let t0 = std::time::Instant::now();
    let out = f();
    if !telemetry::disabled() {
        telemetry::histogram(
            &format!("fuzz.oracle.{name}.seconds"),
            telemetry::buckets::SECONDS,
        )
        .record(t0.elapsed().as_secs_f64());
        if !out.is_empty() {
            telemetry::counter(&format!("fuzz.oracle.{name}.failures")).add(out.len() as u64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_are_deterministic() {
        let a = run_iteration(7, 3);
        let b = run_iteration(7, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.message, y.message);
        }
    }

    #[test]
    fn fixed_seed_iterations_find_nothing_at_head() {
        for iter in 0..4 {
            let failures = run_iteration(99, iter);
            assert!(
                failures.is_empty(),
                "iteration {iter} failed: {}",
                failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
    }
}
