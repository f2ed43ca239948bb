//! A deterministic, checkpointable A3C training driver.
//!
//! [`train`](crate::train::train) runs its agents concurrently, so the
//! interleaving of shared-network updates — and therefore the resulting
//! parameters — depends on the scheduler whenever `agents > 1`. That is
//! fine for throughput but fatal for crash recovery: a resumed run could
//! never be checked against an uninterrupted one. [`Trainer`] runs the
//! *same* per-agent episode (`Agent::run_episode` over the shared
//! `run_gcells` stepping loop) in a deterministic round-robin — for each
//! episode, every agent in index order, one Gcell at a time — which makes
//! the whole training trajectory a pure function of `(designs, cfg)` and
//! lets [`Trainer::state`] capture it completely: parameters, optimizer
//! moments, per-agent RNG states, counters, and the learning curve, all
//! bit-exact. Resuming from a [`TrainerState`] (persisted through
//! [`CheckpointStore`](crate::checkpoint::CheckpointStore)) is
//! bit-identical to never having stopped — proptested in
//! `tests/resume_prop.rs`.
//!
//! Construction and [`Trainer::finish`] are shared with `train`, which
//! builds its template network, shared store and agent RNG streams here.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use parking_lot::Mutex;
use rlleg_design::Design;
use rlleg_nn::optim::Adam;

use crate::checkpoint::TrainerState;
use crate::config::RlConfig;
use crate::env::LegalizeEnv;
use crate::model::CellWiseNet;
use crate::train::{build_envs, pretrain, Agent, Shared, TrainResult};

/// Why a [`TrainerState`] could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The parameter vector length does not match the configured network.
    ParamCount {
        /// Parameters the configured network has.
        expected: usize,
        /// Parameters the state carries.
        found: usize,
    },
    /// The RNG state block is not 4 words per configured agent.
    RngWords {
        /// Words expected (`4 × agents`).
        expected: usize,
        /// Words the state carries.
        found: usize,
    },
    /// The state claims more episodes than the configuration allows.
    EpisodeOverflow {
        /// Configured episode budget.
        budget: usize,
        /// Episodes the state claims to have completed.
        found: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ParamCount { expected, found } => {
                write!(f, "checkpoint has {found} params, network needs {expected}")
            }
            RestoreError::RngWords { expected, found } => {
                write!(f, "checkpoint has {found} RNG words, expected {expected}")
            }
            RestoreError::EpisodeOverflow { budget, found } => {
                write!(f, "checkpoint at episode {found} exceeds budget {budget}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Deterministic round-robin A3C trainer with bit-exact checkpointing.
///
/// ```
/// use rl_legalizer::{RlConfig, Trainer};
/// use rlleg_design::{DesignBuilder, Technology};
/// use rlleg_geom::Point;
///
/// let mut b = DesignBuilder::new("demo", Technology::contest(), 24, 6);
/// for i in 0..8i64 {
///     b.add_cell(format!("u{i}"), 1 + i % 2, 1, Point::new(i * 300, 500));
/// }
/// let design = b.build();
/// let cfg = RlConfig { episodes: 2, agents: 1, hidden_dim: 8, ..RlConfig::default() };
/// let mut t = Trainer::new(std::slice::from_ref(&design), &cfg);
/// t.run_episode();
/// let state = t.state(); // checkpointable at any episode boundary
/// t.run_episode();
/// let resumed = Trainer::restore(std::slice::from_ref(&design), &state).unwrap();
/// assert_eq!(resumed.episode(), 1);
/// ```
pub struct Trainer {
    cfg: RlConfig,
    /// Network used as a structural template (parameters live in `shared`).
    template: CellWiseNet,
    pub(crate) shared: Shared,
    /// The agents, in index order, with their policy-sampling RNG streams.
    pub(crate) agents: Vec<Agent>,
    /// One environment per design, shared by the (sequential) agents and
    /// reset before every episode; rebuilt — not checkpointed — because
    /// `LegalizeEnv::reset` restores the full per-episode state.
    envs: Vec<LegalizeEnv>,
    episode: usize,
    steps: u64,
}

impl Trainer {
    /// Creates a trainer (including any configured behaviour-cloning warm
    /// start, exactly as [`train`](crate::train::train) would).
    ///
    /// # Panics
    ///
    /// Panics when `designs` is empty, `cfg.agents == 0` or
    /// `cfg.batch_size == 0`.
    pub fn new(designs: &[Design], cfg: &RlConfig) -> Self {
        let mut trainer = Self::without_envs(designs, cfg);
        trainer.envs = build_envs(designs, cfg);
        trainer
    }

    /// [`Trainer::new`] minus the round-robin environments: `train` gives
    /// each of its concurrent agents its own.
    pub(crate) fn without_envs(designs: &[Design], cfg: &RlConfig) -> Self {
        check_inputs(designs, cfg);
        let mut init_rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut template = CellWiseNet::new(cfg.hidden_dim, &mut init_rng);
        if cfg.pretrain_episodes > 0 {
            pretrain(&mut template, designs, cfg);
        }
        let shared = Shared::fresh(template.params_flat(), cfg.learning_rate);
        let rngs = (0..cfg.agents)
            .map(|agent| ChaCha8Rng::seed_from_u64(cfg.seed ^ ((agent as u64 + 1) * 0x9E37)));
        Self::from_parts(cfg.clone(), template, shared, rngs)
    }

    /// A trainer at episode 0 with one agent per RNG stream and no
    /// environments.
    fn from_parts(
        cfg: RlConfig,
        template: CellWiseNet,
        shared: Shared,
        rngs: impl Iterator<Item = ChaCha8Rng>,
    ) -> Self {
        let agents = rngs
            .enumerate()
            .map(|(index, rng)| Agent::new(index, rng, template.clone()))
            .collect();
        Self {
            cfg,
            template,
            shared,
            agents,
            envs: Vec::new(),
            episode: 0,
            steps: 0,
        }
    }

    /// Episodes completed so far.
    pub fn episode(&self) -> usize {
        self.episode
    }

    /// Total environment steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `true` once the configured episode budget is exhausted.
    pub fn done(&self) -> bool {
        self.episode >= self.cfg.episodes
    }

    /// Runs one episode for every agent (in agent-index order). Returns
    /// `false` without doing anything once the episode budget is spent.
    pub fn run_episode(&mut self) -> bool {
        if self.done() {
            return false;
        }
        for agent in &mut self.agents {
            let steps =
                agent.run_episode(&mut self.envs, &self.shared, &self.cfg, self.episode, false);
            self.steps += steps as u64;
        }
        self.episode += 1;
        true
    }

    /// Runs up to `episodes` more episodes (stops early at the budget).
    /// Returns the number actually run.
    pub fn train_for(&mut self, episodes: usize) -> usize {
        let mut ran = 0;
        for _ in 0..episodes {
            if !self.run_episode() {
                break;
            }
            ran += 1;
        }
        ran
    }

    /// Captures the complete training state, bit-exactly. Valid at any
    /// episode boundary.
    pub fn state(&self) -> TrainerState {
        let params = self.shared.store.snapshot();
        let best = self.shared.best.lock();
        TrainerState {
            cfg: self.cfg.clone(),
            episode: self.episode,
            steps: self.steps,
            params_bits: params.iter().map(|x| x.to_bits()).collect(),
            adam: self.shared.opt.lock().to_raw(),
            rng_words: self.agents.iter().flat_map(|a| a.rng.state()).collect(),
            best_cost_bits: best.0.to_bits(),
            best_params_bits: best.1.iter().map(|x| x.to_bits()).collect(),
            history: self.shared.history.lock().clone(),
        }
    }

    /// Rebuilds a trainer from a captured state; continuing it is
    /// bit-identical to the run that produced the state.
    ///
    /// `designs` must be the same designs the original run used (they are
    /// not persisted in the state — environments are reconstructed).
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] when the state is inconsistent with the
    /// configuration it carries.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`Trainer::new`] rejects.
    pub fn restore(designs: &[Design], state: &TrainerState) -> Result<Self, RestoreError> {
        let cfg = state.cfg.clone();
        check_inputs(designs, &cfg);
        // Structural template only: its parameters are never read (agents
        // sync from the store, `finish` overwrites both models), so the
        // construction RNG draws don't matter (and pretrain must NOT run
        // again).
        let mut init_rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let template = CellWiseNet::new(cfg.hidden_dim, &mut init_rng);
        let n_params = template.num_params();
        if state.params_bits.len() != n_params {
            return Err(RestoreError::ParamCount {
                expected: n_params,
                found: state.params_bits.len(),
            });
        }
        let expected_words = 4 * cfg.agents;
        if state.rng_words.len() != expected_words {
            return Err(RestoreError::RngWords {
                expected: expected_words,
                found: state.rng_words.len(),
            });
        }
        if state.episode > cfg.episodes {
            return Err(RestoreError::EpisodeOverflow {
                budget: cfg.episodes,
                found: state.episode,
            });
        }
        let params: Vec<f32> = state
            .params_bits
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect();
        let best_params: Vec<f32> = state
            .best_params_bits
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect();
        let shared = Shared {
            store: crate::store::ParamStore::new(params),
            opt: Mutex::new(Adam::from_raw(&state.adam)),
            history: Mutex::new(state.history.clone()),
            best: Mutex::new((f64::from_bits(state.best_cost_bits), best_params)),
        };
        let rngs = state
            .rng_words
            .chunks_exact(4)
            .map(|w| ChaCha8Rng::from_state([w[0], w[1], w[2], w[3]]));
        if !telemetry::disabled() {
            telemetry::counter("ckpt.restored").inc();
        }
        Ok(Self {
            envs: build_envs(designs, &cfg),
            episode: state.episode,
            steps: state.steps,
            ..Self::from_parts(cfg, template, shared, rngs)
        })
    }

    /// Finalizes training into the same [`TrainResult`] shape
    /// [`train`](crate::train::train) produces.
    pub fn finish(self) -> TrainResult {
        let params = self.shared.store.into_inner();
        let (_, best_params) = self.shared.best.into_inner();
        let mut model = self.template.clone();
        let mut best_model = self.template;
        model.set_params_flat(&params);
        best_model.set_params_flat(&best_params);
        let mut history = self.shared.history.into_inner();
        history.sort_by_key(|s| (s.episode, s.agent));
        TrainResult {
            model,
            best_model,
            history,
        }
    }
}

/// The configuration checks every trainer constructor shares.
fn check_inputs(designs: &[Design], cfg: &RlConfig) {
    assert!(!designs.is_empty(), "training needs at least one design");
    assert!(cfg.agents > 0, "need at least one agent");
    // A zero batch would never advance the update chunk loops.
    assert!(cfg.batch_size > 0, "batch_size must be positive");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{decode, encode};
    use rlleg_design::{DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn toy_design(seed: i64) -> Design {
        let mut b = DesignBuilder::new(format!("toy{seed}"), Technology::contest(), 24, 6);
        for i in 0..12i64 {
            let x = (i * 331 + seed * 97) % 4_000;
            let y = (i * 1_777) % 10_000;
            b.add_cell(
                format!("u{i}"),
                1 + i % 2,
                1 + (i % 3 == 0) as u8,
                Point::new(x, y),
            );
        }
        b.build()
    }

    fn tiny_cfg() -> RlConfig {
        RlConfig {
            hidden_dim: 10,
            agents: 2,
            episodes: 4,
            batch_size: 8,
            ..RlConfig::default()
        }
    }

    fn param_bits(result: &TrainResult) -> Vec<u32> {
        let mut m = result.model.clone();
        m.params_flat().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn trainer_is_deterministic() {
        let designs = [toy_design(0), toy_design(1)];
        let cfg = tiny_cfg();
        let mut a = Trainer::new(&designs, &cfg);
        let mut b = Trainer::new(&designs, &cfg);
        while a.run_episode() {}
        while b.run_episode() {}
        let ra = a.finish();
        let rb = b.finish();
        assert_eq!(param_bits(&ra), param_bits(&rb));
        assert_eq!(ra.history, rb.history);
        assert_eq!(ra.history.len(), 2 * 4);
    }

    #[test]
    fn resume_through_encoded_checkpoint_is_bit_identical() {
        let designs = [toy_design(2)];
        let cfg = RlConfig {
            agents: 2,
            episodes: 3,
            ..tiny_cfg()
        };
        // Uninterrupted run.
        let mut full = Trainer::new(&designs, &cfg);
        while full.run_episode() {}
        let r_full = full.finish();
        // Interrupted at episode 1, resumed through the framed format.
        let mut part = Trainer::new(&designs, &cfg);
        part.run_episode();
        let state = decode(&encode(&part.state())).expect("round trip");
        drop(part); // the "crash"
        let mut resumed = Trainer::restore(&designs, &state).expect("restore");
        while resumed.run_episode() {}
        let r_resumed = resumed.finish();
        assert_eq!(param_bits(&r_full), param_bits(&r_resumed));
        let costs = |r: &TrainResult| {
            r.history
                .iter()
                .map(|s| s.cost.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(costs(&r_full), costs(&r_resumed));
    }

    #[test]
    fn best_model_is_the_episode_start_snapshot_of_the_best_episode() {
        // The best-model snapshot must be the parameters the winning
        // episode *ran under* (its episode-start sync), not whatever the
        // agent's local net drifted to by episode end. With one agent the
        // episode-start parameters are exactly the globals at each
        // `run_episode` boundary, so we can capture them from `state()`.
        let designs = [toy_design(4)];
        let cfg = RlConfig {
            agents: 1,
            episodes: 4,
            ..tiny_cfg()
        };
        let mut t = Trainer::new(&designs, &cfg);
        let mut boundary_params: Vec<Vec<u32>> = Vec::new();
        while !t.done() {
            boundary_params.push(t.state().params_bits.clone());
            t.run_episode();
        }
        let state = t.state();
        let r = t.finish();
        let best_ep = r
            .history
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("history nonempty")
            .episode;
        assert_eq!(
            state.best_params_bits, boundary_params[best_ep],
            "best snapshot must be the start-of-episode-{best_ep} parameters"
        );
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let designs = [toy_design(3)];
        let cfg = RlConfig {
            agents: 1,
            episodes: 2,
            ..tiny_cfg()
        };
        let t = Trainer::new(&designs, &cfg);
        let good = t.state();

        let mut bad = good.clone();
        bad.params_bits.pop();
        assert!(matches!(
            Trainer::restore(&designs, &bad),
            Err(RestoreError::ParamCount { .. })
        ));

        let mut bad = good.clone();
        bad.rng_words.push(7);
        assert!(matches!(
            Trainer::restore(&designs, &bad),
            Err(RestoreError::RngWords { .. })
        ));

        let mut bad = good;
        bad.episode = 99;
        assert!(matches!(
            Trainer::restore(&designs, &bad),
            Err(RestoreError::EpisodeOverflow { .. })
        ));
    }
}
