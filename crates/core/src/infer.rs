//! Inference with a trained model (Sec. III-E-4, "test" process).
//!
//! The paper trains once on 80 % of the benchmarks and applies the frozen
//! network to held-out designs: a few seconds of overhead for Gcell
//! partitioning, feature extraction, and network evaluation, with ~80 % of
//! the time in feature extraction. [`RlLegalizer`] reproduces that flow and
//! reports the same timing split.

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use rlleg_design::{CellId, Design};
use rlleg_nn::ops;

use crate::env::LegalizeEnv;
use crate::model::CellWiseNet;
use crate::train::sample_categorical;

/// How actions are chosen at inference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Highest-priority cell first (deterministic; default).
    #[default]
    Greedy,
    /// Categorical sampling from the priority vector with the given seed
    /// (the training-time behaviour).
    Sample(u64),
}

/// Watchdog budget for the RL-ordered pass.
///
/// RL ordering is an *optimization*, not a correctness requirement: when
/// the network misbehaves (stalls, runs past its time share, emits NaN),
/// the run must still finish. When either limit trips, the remaining cells
/// are legalized in the deterministic size-descending fallback order and
/// the report says so in [`InferenceReport::degraded`]. The default is
/// unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InferenceBudget {
    /// Maximum number of policy steps (network-driven cell selections).
    pub max_steps: Option<u64>,
    /// Maximum wall clock for the whole RL-ordered pass.
    pub max_wall: Option<Duration>,
}

impl InferenceBudget {
    /// A budget limited to `n` policy steps.
    pub fn steps(n: u64) -> Self {
        Self {
            max_steps: Some(n),
            ..Self::default()
        }
    }

    /// A budget limited to `d` of wall clock.
    pub fn wall(d: Duration) -> Self {
        Self {
            max_wall: Some(d),
            ..Self::default()
        }
    }

    /// The reason the budget is exhausted at (`steps`, `elapsed`), if it is.
    fn exhausted(&self, steps: u64, elapsed: Duration) -> Option<DegradeReason> {
        if self.max_steps.is_some_and(|m| steps >= m) {
            return Some(DegradeReason::StepBudget);
        }
        if self.max_wall.is_some_and(|m| elapsed >= m) {
            return Some(DegradeReason::WallClock);
        }
        None
    }
}

/// Why an RL-ordered run abandoned the policy and fell back to the
/// size-ordered legalizer for its remaining cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The [`InferenceBudget::max_steps`] limit was reached.
    StepBudget,
    /// The [`InferenceBudget::max_wall`] limit was reached.
    WallClock,
    /// The network produced a non-finite logit (NaN/Inf priorities cannot
    /// be ranked or sampled meaningfully).
    NonFiniteOutput,
}

impl DegradeReason {
    fn counter_name(self) -> &'static str {
        match self {
            DegradeReason::StepBudget => "infer.degrade.step_budget",
            DegradeReason::WallClock => "infer.degrade.wall_clock",
            DegradeReason::NonFiniteOutput => "infer.degrade.non_finite",
        }
    }
}

/// Outcome of one RL-ordered legalization run.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Number of cells legalized.
    pub legalized: usize,
    /// Cells that failed to place (empty on success).
    pub failed: Vec<CellId>,
    /// Why (and whether) the run degraded to the size-ordered fallback
    /// partway through. `None` for a healthy run.
    pub degraded: Option<DegradeReason>,
    /// Cells placed by the fallback path after degradation (0 for a
    /// healthy run).
    pub degraded_cells: usize,
    /// Wall-clock total.
    pub total_time: Duration,
    /// Time spent extracting/normalizing features (the paper's dominant
    /// cost).
    pub feature_time: Duration,
    /// Time spent in network forward passes.
    pub network_time: Duration,
}

impl InferenceReport {
    /// `true` when every movable cell was legalized.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// A legalizer driven by a trained cell-priority network.
#[derive(Debug, Clone)]
pub struct RlLegalizer {
    model: CellWiseNet,
    selection: Selection,
    backend: crate::config::Backend,
    budget: InferenceBudget,
}

impl RlLegalizer {
    /// Wraps a trained model with greedy selection and the diamond-search
    /// backend.
    pub fn new(model: CellWiseNet) -> Self {
        Self {
            model,
            selection: Selection::Greedy,
            backend: crate::config::Backend::Diamond,
            budget: InferenceBudget::default(),
        }
    }

    /// Sets the action-selection mode.
    pub fn with_selection(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the watchdog budget for the RL-ordered pass.
    pub fn with_budget(mut self, budget: InferenceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the legalizer backend the inference run drives.
    pub fn with_backend(mut self, backend: crate::config::Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &CellWiseNet {
        &self.model
    }

    /// Legalizes `design` in the RL-chosen order, mutating it in place.
    ///
    /// On a failure the affected subepisode is terminated (remaining cells
    /// in that Gcell are attempted in the fallback size order so the run
    /// still commits as much as possible, mirroring how the baseline
    /// reports partial results).
    pub fn legalize(&self, design: &mut Design) -> InferenceReport {
        let _t = telemetry::span("infer.legalize");
        let t0 = Instant::now();
        let mut feature_time = Duration::ZERO;
        let mut network_time = Duration::ZERO;
        let mut network_rows = 0usize;
        let mut network_evals = 0usize;
        let mut rng = match self.selection {
            Selection::Greedy => ChaCha8Rng::seed_from_u64(0),
            Selection::Sample(seed) => ChaCha8Rng::seed_from_u64(seed),
        };

        let gcells = rlleg_legalize::GcellGrid::auto(design);
        let mut env = LegalizeEnv::with_options(design.clone(), gcells, self.backend);
        let mut legalized = 0usize;
        let mut failed = Vec::new();
        let mut degraded: Option<DegradeReason> = None;
        let mut degraded_cells = 0usize;
        let mut steps = 0u64;
        // State buffers reused across every step of the run: feature
        // extraction dominates inference time, and reallocating an n×13
        // matrix per step added avoidable churn on top.
        let mut state_raw: Vec<f32> = Vec::new();
        let mut state = rlleg_nn::Matrix::zeros(0, 0);
        for g in env.subepisode_order() {
            let mut remaining = env.remaining_in(g);
            while !remaining.is_empty() {
                // Watchdog: once the budget trips (or the network emits a
                // non-finite logit below), the rest of the run — this
                // subepisode and all later ones — is drained in the
                // deterministic size-descending order `remaining_in`
                // already provides. Degradation is keyed only on the
                // logical step count or the declared wall budget, never on
                // where in the Gcell order it happens, so a degraded run is
                // still reproducible under a step budget.
                if degraded.is_none() {
                    if let Some(reason) = self.budget.exhausted(steps, t0.elapsed()) {
                        degraded = Some(reason);
                        if !telemetry::disabled() {
                            telemetry::counter(reason.counter_name()).inc();
                        }
                    }
                }
                if degraded.is_some() {
                    for c in remaining.drain(..) {
                        degraded_cells += 1;
                        if env.step(c).is_failure() {
                            failed.push(c);
                        } else {
                            legalized += 1;
                        }
                    }
                    break;
                }
                // Deterministic stall injection point (disarmed: one
                // relaxed atomic load).
                if let Some(stall) = rlleg_legalize::fault::infer_stall(steps) {
                    std::thread::sleep(stall);
                }
                let tf = Instant::now();
                env.state_into(&remaining, &mut state_raw, &mut state);
                feature_time += tf.elapsed();
                let tn = Instant::now();
                // Policy-only batched forward: one matrix–matrix pass over
                // all candidate cells; the value head is never needed for
                // action selection.
                let mut logits = self.model.forward_policy(&state);
                network_time += tn.elapsed();
                network_rows += state.rows();
                network_evals += 1;
                steps += 1;
                if logits.iter().any(|l| !l.is_finite()) {
                    // NaN/Inf priorities cannot be ranked; retrying the
                    // forward would yield the same poison. Degrade.
                    degraded = Some(DegradeReason::NonFiniteOutput);
                    if !telemetry::disabled() {
                        telemetry::counter(DegradeReason::NonFiniteOutput.counter_name()).inc();
                    }
                    continue;
                }
                let a = match self.selection {
                    Selection::Greedy => logits
                        .iter()
                        .enumerate()
                        .max_by(|x, y| x.1.total_cmp(y.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                    Selection::Sample(_) => {
                        ops::softmax_in_place(&mut logits);
                        sample_categorical(&logits, &mut rng)
                    }
                };
                let cell = remaining[a];
                let outcome = env.step(cell);
                if outcome.is_failure() {
                    failed.push(cell);
                    remaining.remove(a);
                    // Subepisode terminated: drain the rest in size order
                    // so the report covers every cell.
                    for c in remaining.drain(..) {
                        if env.step(c).is_failure() {
                            failed.push(c);
                        } else {
                            legalized += 1;
                        }
                    }
                } else {
                    legalized += 1;
                    remaining.remove(a);
                }
            }
        }
        *design = env.into_design();
        recover_failures(design, &mut legalized, &mut failed);
        let total_time = t0.elapsed();
        if !telemetry::disabled() {
            use telemetry::buckets::SECONDS;
            telemetry::counter("infer.runs").inc();
            telemetry::counter("infer.cells_failed").add(failed.len() as u64);
            if degraded.is_some() {
                telemetry::counter("infer.degraded_runs").inc();
                telemetry::counter("infer.degraded_cells").add(degraded_cells as u64);
            }
            telemetry::histogram("infer.total_seconds", SECONDS).record(total_time.as_secs_f64());
            telemetry::histogram("infer.feature_seconds", SECONDS)
                .record(feature_time.as_secs_f64());
            telemetry::histogram("infer.network_seconds", SECONDS)
                .record(network_time.as_secs_f64());
            // Batching factor of the policy forwards: cell rows evaluated
            // per single matrix–matrix network call.
            if network_evals > 0 {
                telemetry::histogram("infer.network.batch_rows", telemetry::buckets::MAGNITUDE)
                    .record(network_rows as f64 / network_evals as f64);
            }
        }
        InferenceReport {
            legalized,
            failed,
            degraded,
            degraded_cells,
            total_time,
            feature_time,
            network_time,
        }
    }
}

/// Retries cells the policy-ordered pass could not place.
///
/// A failure during the main pass is usually ordering-induced: earlier
/// cells fragmented the free space until no contiguous window was left for
/// a wide or multi-row cell. Each recovery round first runs a
/// rearrangement pass (pulling committed cells back toward their
/// global-placement positions, which can reopen windows), then retries the
/// remaining failures with the rip-up-and-retry placer. Rounds stop as
/// soon as one makes no progress; genuinely impossible cells stay in
/// `failed`.
fn recover_failures(design: &mut Design, legalized: &mut usize, failed: &mut Vec<CellId>) {
    if failed.is_empty() {
        return;
    }
    let mut lg = rlleg_legalize::Legalizer::new(design);
    for _ in 0..3 {
        lg.rearrange_pass(design);
        let before = failed.len();
        let retry = std::mem::take(failed);
        for cell in retry {
            match lg.ripup_place(design, cell) {
                Ok(_) => {
                    *legalized += 1;
                    if !telemetry::disabled() {
                        telemetry::counter("infer.recovered_cells").inc();
                    }
                }
                Err(e) => failed.push(e.cell),
            }
        }
        if failed.is_empty() || failed.len() == before {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rlleg_design::{legality, DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn design() -> Design {
        let mut b = DesignBuilder::new("inf", Technology::contest(), 30, 8);
        for i in 0..20i64 {
            b.add_cell(
                format!("u{i}"),
                1 + i % 3,
                1 + (i % 4 == 0) as u8,
                Point::new((i * 450) % 5_000, (i * 1_300) % 14_000),
            );
        }
        b.build()
    }

    fn untrained() -> RlLegalizer {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        RlLegalizer::new(CellWiseNet::new(8, &mut rng))
    }

    #[test]
    fn untrained_model_still_legalizes_legally() {
        let mut d = design();
        let report = untrained().legalize(&mut d);
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.legalized, 20);
        assert!(
            legality::is_legal(&d),
            "{:?}",
            legality::check(&d, true).first()
        );
        assert!(report.total_time >= report.feature_time);
    }

    #[test]
    fn greedy_is_deterministic() {
        let rl = untrained();
        let mut d1 = design();
        let mut d2 = design();
        rl.legalize(&mut d1);
        rl.legalize(&mut d2);
        for (a, b) in d1.cells.iter().zip(d2.cells.iter()) {
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn sampling_mode_runs_and_is_seeded() {
        let rl = untrained().with_selection(Selection::Sample(5));
        let mut d1 = design();
        let mut d2 = design();
        rl.legalize(&mut d1);
        rl.legalize(&mut d2);
        for (a, b) in d1.cells.iter().zip(d2.cells.iter()) {
            assert_eq!(a.pos, b.pos, "same seed, same result");
        }
        assert!(legality::is_legal(&d1));
    }

    #[test]
    fn healthy_runs_never_report_degradation() {
        let mut d = design();
        let report = untrained().legalize(&mut d);
        assert_eq!(report.degraded, None);
        assert_eq!(report.degraded_cells, 0);
    }

    #[test]
    fn step_budget_degrades_but_completes_legally() {
        let mut d = design();
        let report = untrained()
            .with_budget(InferenceBudget::steps(3))
            .legalize(&mut d);
        assert_eq!(report.degraded, Some(DegradeReason::StepBudget));
        assert_eq!(report.degraded_cells, 20 - 3, "rest placed by fallback");
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert!(legality::is_legal(&d));
    }

    #[test]
    fn step_budget_degradation_is_deterministic() {
        let rl = untrained().with_budget(InferenceBudget::steps(5));
        let mut d1 = design();
        let mut d2 = design();
        rl.legalize(&mut d1);
        rl.legalize(&mut d2);
        for (a, b) in d1.cells.iter().zip(d2.cells.iter()) {
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn nan_weights_degrade_to_fallback_instead_of_garbage() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut net = CellWiseNet::new(8, &mut rng);
        let poisoned = vec![f32::NAN; net.num_params()];
        net.set_params_flat(&poisoned);
        let mut d = design();
        let report = RlLegalizer::new(net).legalize(&mut d);
        assert_eq!(report.degraded, Some(DegradeReason::NonFiniteOutput));
        assert_eq!(report.degraded_cells, 20, "nothing placed by the policy");
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert!(legality::is_legal(&d));
    }

    #[test]
    fn injected_stall_trips_the_wall_clock_budget() {
        let _guard = rlleg_legalize::fault::arm(rlleg_legalize::FaultPlan {
            infer_stall: Some(rlleg_legalize::InferStall {
                from_step: 1,
                sleep: Duration::from_millis(30),
            }),
            ..rlleg_legalize::FaultPlan::default()
        });
        let mut d = design();
        let report = untrained()
            .with_budget(InferenceBudget::wall(Duration::from_millis(15)))
            .legalize(&mut d);
        assert_eq!(report.degraded, Some(DegradeReason::WallClock));
        assert!(report.degraded_cells > 0);
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert!(legality::is_legal(&d));
    }

    #[test]
    fn failure_fallback_covers_all_cells() {
        // One cell is impossible; everything else must still commit.
        let mut b = DesignBuilder::new("f", Technology::contest(), 8, 2);
        for i in 0..4i64 {
            b.add_cell(format!("u{i}"), 1, 1, Point::new(i * 200, 0));
        }
        b.add_cell("impossible", 8, 2, Point::new(0, 0));
        b.add_fixed_cell("m", 8, 1, Point::new(0, 2_000));
        let mut d = b.build();
        let report = untrained().legalize(&mut d);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.legalized, 4);
    }
}
