//! The legalizer MDP environment (Sec. III-A).
//!
//! States are `N × 13` feature matrices of the not-yet-legalized cells of
//! the current Gcell subepisode (feature-wise L2-normalized); actions pick
//! the next cell to legalize; rewards follow Eq. 2. One episode legalizes
//! the whole design, Gcell by Gcell.

use rlleg_design::{metrics, CellId, Design};
use rlleg_geom::Dbu;
use rlleg_legalize::{
    FeatureSpace, GcellGrid, Legalizer, Ordering, PlaceCellError, TetrisLegalizer, NUM_FEATURES,
};

use crate::config::Backend;
use rlleg_nn::{ops, Matrix};

use crate::reward::{RewardParams, FAIL_REWARD};

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The cell was legalized.
    Placed {
        /// Eq. 2 reward.
        reward: f32,
        /// Physical displacement in dbu.
        displacement: Dbu,
    },
    /// The pixel search failed; the subepisode must terminate (penalty
    /// reward).
    Failed {
        /// The failure penalty (−5).
        reward: f32,
    },
}

impl StepOutcome {
    /// The reward of this outcome.
    pub fn reward(&self) -> f32 {
        match self {
            StepOutcome::Placed { reward, .. } | StepOutcome::Failed { reward } => *reward,
        }
    }

    /// `true` when the step failed.
    pub fn is_failure(&self) -> bool {
        matches!(self, StepOutcome::Failed { .. })
    }
}

/// A sequential legalizer behind the environment, selected by
/// [`Backend`].
#[derive(Debug)]
enum BackendImpl {
    // Boxed: each legalizer carries a whole pixel grid (the diamond one
    // the SoA hot-cell snapshot too), so the enum stays pointer-sized.
    Diamond(Box<Legalizer>),
    Tetris(Box<TetrisLegalizer>),
}

impl BackendImpl {
    fn new(kind: Backend, design: &Design) -> Self {
        match kind {
            Backend::Diamond => BackendImpl::Diamond(Box::new(Legalizer::new(design))),
            Backend::Tetris => BackendImpl::Tetris(Box::new(TetrisLegalizer::new(design))),
        }
    }

    fn kind(&self) -> Backend {
        match self {
            BackendImpl::Diamond(_) => Backend::Diamond,
            BackendImpl::Tetris(_) => Backend::Tetris,
        }
    }

    fn legalize_cell(
        &mut self,
        design: &mut Design,
        cell: rlleg_design::CellId,
    ) -> Result<Dbu, PlaceCellError> {
        match self {
            BackendImpl::Diamond(lg) => lg.legalize_cell(design, cell),
            BackendImpl::Tetris(lg) => lg.legalize_cell(design, cell),
        }
    }
}

/// The legalization environment: a design plus the machinery to legalize
/// one chosen cell at a time and expose the Table-I features.
#[derive(Debug)]
pub struct LegalizeEnv {
    design: Design,
    legalizer: BackendImpl,
    features: FeatureSpace,
    gcells: GcellGrid,
    reward: RewardParams,
    hpwl_at_gp: Dbu,
}

impl LegalizeEnv {
    /// Wraps `design` with the paper's automatic Gcell grid and the
    /// diamond-search backend.
    pub fn new(design: Design) -> Self {
        let gcells = GcellGrid::auto(&design);
        Self::with_options(design, gcells, Backend::Diamond)
    }

    /// Wraps `design` with an explicit Gcell grid (diamond backend).
    pub fn with_gcells(design: Design, gcells: GcellGrid) -> Self {
        Self::with_options(design, gcells, Backend::Diamond)
    }

    /// Wraps `design` with an explicit Gcell grid and legalizer backend.
    pub fn with_options(design: Design, gcells: GcellGrid, backend: Backend) -> Self {
        let reward = RewardParams::for_design(&design);
        let hpwl_at_gp = metrics::total_hpwl(&design);
        let legalizer = BackendImpl::new(backend, &design);
        let features = FeatureSpace::new(&design, &gcells);
        Self {
            design,
            legalizer,
            features,
            gcells,
            reward,
            hpwl_at_gp,
        }
    }

    /// The backend in use.
    pub fn backend(&self) -> Backend {
        self.legalizer.kind()
    }

    /// The wrapped design (current positions).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Consumes the environment, returning the design in its current state.
    pub fn into_design(self) -> Design {
        self.design
    }

    /// The Gcell grid driving subepisodes.
    pub fn gcells(&self) -> &GcellGrid {
        &self.gcells
    }

    /// HPWL measured at the global-placement input.
    pub fn hpwl_at_gp(&self) -> Dbu {
        self.hpwl_at_gp
    }

    /// Restores the global placement and rebuilds internal state (start of
    /// a new episode).
    pub fn reset(&mut self) {
        self.design.reset_to_global_placement();
        self.legalizer = BackendImpl::new(self.legalizer.kind(), &self.design);
        self.features = FeatureSpace::new(&self.design, &self.gcells);
    }

    /// Subepisode (Gcell) indices in training order: descending cell count.
    pub fn subepisode_order(&self) -> Vec<usize> {
        self.gcells.subepisode_order()
    }

    /// The not-yet-legalized movable cells of Gcell `g`, in a fixed
    /// size-descending order (initial subepisode work list).
    pub fn remaining_in(&self, g: usize) -> Vec<CellId> {
        let pending: Vec<CellId> = self
            .gcells
            .cells_of(g)
            .iter()
            .copied()
            .filter(|&id| !self.design.cell(id).legalized)
            .collect();
        Ordering::SizeDescending.order(&self.design, Some(&pending))
    }

    /// The normalized `cells.len() × 13` state matrix (feature-wise L2
    /// normalization, Sec. III-D).
    ///
    /// # Panics
    ///
    /// Panics when `cells` is empty.
    pub fn state(&self, cells: &[CellId]) -> Matrix {
        assert!(!cells.is_empty(), "state of zero cells");
        let mut raw = self.features.state(&self.design, cells);
        ops::l2_normalize_columns(&mut raw, NUM_FEATURES);
        Matrix::from_vec(cells.len(), NUM_FEATURES, raw)
    }

    /// [`state`](Self::state) written into `out` through the `scratch`
    /// feature buffer, reusing both allocations.
    ///
    /// Training loops call this for states that are consumed immediately
    /// (bootstrap-tail value estimates) rather than stored in a batch, so
    /// the per-step allocations drop out of the hot path.
    ///
    /// # Panics
    ///
    /// Panics when `cells` is empty.
    pub fn state_into(&self, cells: &[CellId], scratch: &mut Vec<f32>, out: &mut Matrix) {
        assert!(!cells.is_empty(), "state of zero cells");
        self.features.state_into(&self.design, cells, scratch);
        ops::l2_normalize_columns(scratch, NUM_FEATURES);
        out.copy_from(cells.len(), NUM_FEATURES, scratch);
    }

    /// Legalizes `cell` (the agent's action) and returns the Eq.-2 reward.
    ///
    /// On failure the caller must terminate the subepisode, as the paper
    /// does ("the corresponding episode is terminated, followed by the next
    /// episode").
    pub fn step(&mut self, cell: CellId) -> StepOutcome {
        let old_pos = self.design.cell(cell).pos;
        let hpwl_before = metrics::hpwl_around(&self.design, cell);
        match self.legalizer.legalize_cell(&mut self.design, cell) {
            Ok(displacement) => {
                let hpwl_after = metrics::hpwl_around(&self.design, cell);
                self.features.on_cell_legalized(&self.design, cell, old_pos);
                let reward = self
                    .reward
                    .step_reward(displacement, hpwl_after - hpwl_before);
                StepOutcome::Placed {
                    reward,
                    displacement,
                }
            }
            Err(_) => StepOutcome::Failed {
                reward: FAIL_REWARD,
            },
        }
    }

    /// The scalar legalization cost of the current placement (used for
    /// learning curves; lower is better, failures dominate).
    pub fn legalization_cost(&self) -> f64 {
        metrics::legalization_cost(&self.design, self.hpwl_at_gp)
    }

    /// Current QoR measurement.
    pub fn qor(&self) -> metrics::Qor {
        metrics::Qor::measure(&self.design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn env() -> LegalizeEnv {
        let mut b = DesignBuilder::new("env", Technology::contest(), 30, 8);
        for i in 0..12i64 {
            b.add_cell(
                format!("u{i}"),
                1 + i % 2,
                1,
                Point::new(i * 290, (i % 3) * 900),
            );
        }
        let a = rlleg_design::CellId(0);
        let c = rlleg_design::CellId(5);
        b.add_net("n", vec![(a, 0, 0), (c, 0, 0)]);
        LegalizeEnv::new(b.build())
    }

    #[test]
    fn subepisode_lists_shrink_as_cells_legalize() {
        let mut e = env();
        let order = e.subepisode_order();
        assert_eq!(order, vec![0], "small core => single gcell");
        let before = e.remaining_in(0);
        assert_eq!(before.len(), 12);
        let out = e.step(before[0]);
        assert!(!out.is_failure());
        assert_eq!(e.remaining_in(0).len(), 11);
    }

    #[test]
    fn state_shape_and_normalization() {
        let e = env();
        let cells = e.remaining_in(0);
        let s = e.state(&cells);
        assert_eq!(s.rows(), 12);
        assert_eq!(s.cols(), NUM_FEATURES);
        // Each nonzero column has unit L2 norm.
        for c in 0..NUM_FEATURES {
            let norm: f32 = (0..s.rows())
                .map(|r| s[(r, c)] * s[(r, c)])
                .sum::<f32>()
                .sqrt();
            assert!(norm < 1.0 + 1e-4, "column {c} norm {norm}");
        }
    }

    #[test]
    fn state_into_matches_state_and_reuses_buffers() {
        let mut e = env();
        let mut scratch = Vec::new();
        let mut out = rlleg_nn::Matrix::zeros(0, 0);
        for _ in 0..3 {
            let cells = e.remaining_in(0);
            let fresh = e.state(&cells);
            e.state_into(&cells, &mut scratch, &mut out);
            assert_eq!(out, fresh, "scratch path must be bit-identical");
            e.step(cells[0]);
        }
    }

    #[test]
    fn rewards_are_positive_on_success() {
        let mut e = env();
        for cell in e.remaining_in(0) {
            let out = e.step(cell);
            assert!(out.reward() > 0.0, "{out:?}");
        }
        assert!(e.qor().is_complete());
        assert!(e.legalization_cost() < 1_000.0, "no failure penalty");
    }

    #[test]
    fn reset_restores_everything() {
        let mut e = env();
        let cost0 = {
            for cell in e.remaining_in(0) {
                e.step(cell);
            }
            e.legalization_cost()
        };
        e.reset();
        assert_eq!(e.remaining_in(0).len(), 12);
        assert_eq!(e.qor().unplaced, 12);
        // Re-running the same actions yields the same cost (determinism).
        for cell in e.remaining_in(0) {
            e.step(cell);
        }
        assert!((e.legalization_cost() - cost0).abs() < 1e-9);
    }

    #[test]
    fn tetris_backend_steps_and_resets() {
        let mut b = DesignBuilder::new("tb", Technology::contest(), 30, 8);
        for i in 0..10i64 {
            b.add_cell(format!("u{i}"), 1 + i % 2, 1, Point::new(i * 300, 700));
        }
        let d = b.build();
        let gcells = rlleg_legalize::GcellGrid::auto(&d);
        let mut e = LegalizeEnv::with_options(d, gcells, Backend::Tetris);
        assert_eq!(e.backend(), Backend::Tetris);
        for cell in e.remaining_in(0) {
            assert!(!e.step(cell).is_failure());
        }
        assert!(e.qor().is_complete());
        assert!(rlleg_design::legality::is_legal(e.design()));
        e.reset();
        assert_eq!(e.backend(), Backend::Tetris, "backend survives reset");
        assert_eq!(e.qor().unplaced, 10);
    }

    #[test]
    fn failure_returns_penalty() {
        let mut b = DesignBuilder::new("tiny", Technology::contest(), 4, 2);
        b.add_cell("a", 1, 1, Point::new(0, 0));
        b.add_cell("b", 4, 2, Point::new(0, 0));
        b.add_fixed_cell("m", 4, 1, Point::new(0, 2_000)); // block top row
        let mut e = LegalizeEnv::new(b.build());
        // Cell b (4x2) can never fit: row 1 blocked.
        let out = e.step(rlleg_design::CellId(1));
        assert!(out.is_failure());
        assert_eq!(out.reward(), FAIL_REWARD);
        assert!(
            e.legalization_cost() > 1_000.0,
            "failure dominates the cost"
        );
    }
}
