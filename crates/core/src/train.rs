//! The A3C training loop (Algorithm 1, Sec. III-C).
//!
//! Multiple actor-critic agents run on their own environment copies and
//! asynchronously update a shared global network: every `B` steps each
//! agent computes the combined loss (Eq. 3: policy + β·value + η·entropy)
//! over its trajectory slice, backpropagates through its *local* network,
//! clips the gradient to a global norm of 0.1, applies one shared-Adam
//! update to the global parameters, and refreshes its local copy.
//!
//! One stepping loop serves both training drivers: [`run_gcells`]
//! advances a group of Gcell subepisodes in lockstep macro-steps,
//! evaluating all of their states through one
//! [`CellWiseNet::forward_policy_batch`] blocked-GEMM forward
//! (bit-identical to per-state forwards), and [`Agent::run_episode`] wraps
//! it with the per-episode bookkeeping. A driver is a Gcell grouping plus a
//! choice about concurrency:
//!
//! - [`train`] runs its agents concurrently on scoped threads, each on
//!   its own environments, and passes all of an episode's Gcells as one
//!   group. Global parameters live in a [`ParamStore`] — a versioned,
//!   double-buffered seqlock: gradient applications stay serialized (Adam
//!   moments are sequential) but agents syncing `θ' ← θ` copy the active
//!   buffer lock-free, so a slow reader never stalls a writer and vice
//!   versa.
//! - [`Trainer`] runs its agents one after another and passes Gcells one
//!   at a time, which makes a run a pure function of its inputs and
//!   checkpointable.
//!
//! With one agent on a one-Gcell design the two schedules coincide and the
//! drivers agree bit for bit (`tests/cross_driver.rs`). Otherwise only the
//! *interleaving* of environment steps differs, so their equivalence is
//! distributional (cost and failure bands over seeds,
//! `tests/distributional.rs`).

use parking_lot::Mutex;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use rlleg_design::Design;
use rlleg_nn::{ops, optim::Adam, Matrix};

use crate::config::{ReturnMode, RlConfig, StateMode};
use crate::env::LegalizeEnv;
use crate::model::CellWiseNet;
use crate::store::ParamStore;
use crate::trainer::Trainer;

/// One point of the learning curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSample {
    /// Agent index.
    pub agent: usize,
    /// Episode index within that agent.
    pub episode: usize,
    /// Design name the episode ran on.
    pub design: String,
    /// Legalization cost at episode end (lower is better).
    pub cost: f64,
    /// Number of cells that failed to legalize.
    pub failures: usize,
    /// Full QoR of the episode's final placement.
    pub qor: rlleg_design::metrics::Qor,
}

/// Output of [`train`].
#[derive(Debug)]
pub struct TrainResult {
    /// The final global network.
    pub model: CellWiseNet,
    /// The checkpoint with the lowest episode cost seen during training.
    /// The paper reports "the best results after training converged" for
    /// the training benchmarks and uses the trained model for tests; this
    /// is the corresponding validation-selected model.
    pub best_model: CellWiseNet,
    /// Learning-curve samples from every agent.
    pub history: Vec<TrainSample>,
}

impl TrainResult {
    /// Mean cost of the last `k` episodes across agents (convergence
    /// summary for Fig. 5b / Fig. 6).
    pub fn tail_cost(&self, k: usize) -> f64 {
        let n = self.history.len();
        if n == 0 {
            return f64::NAN;
        }
        let tail = &self.history[n.saturating_sub(k)..];
        tail.iter().map(|s| s.cost).sum::<f64>() / tail.len() as f64
    }

    /// The best episode recorded for `design` (lowest legalization cost) —
    /// what Table II reports for training benchmarks.
    pub fn best_for_design(&self, design: &str) -> Option<&TrainSample> {
        self.history
            .iter()
            .filter(|s| s.design == design)
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
    }
}

pub(crate) struct Shared {
    /// Versioned global parameters: serialized writers, lock-free readers.
    pub(crate) store: ParamStore,
    /// Shared Adam moments, locked only while applying one gradient.
    pub(crate) opt: Mutex<Adam>,
    pub(crate) history: Mutex<Vec<TrainSample>>,
    /// Best `(cost, episode-start parameter snapshot)` over all agents and
    /// episodes. The snapshot is the parameter version the recorded
    /// episode actually *ran under* (its `θ' ← θ` sync), not the drifted
    /// post-episode globals.
    pub(crate) best: Mutex<(f64, Vec<f32>)>,
}

impl Shared {
    /// A fresh training state: `params` published as version 0 and seeded
    /// as the incumbent best snapshot.
    pub(crate) fn fresh(params: Vec<f32>, lr: f32) -> Self {
        let n = params.len();
        Self {
            store: ParamStore::new(params.clone()),
            opt: Mutex::new(Adam::new(n, lr)),
            history: Mutex::new(Vec::new()),
            best: Mutex::new((f64::INFINITY, params)),
        }
    }
}

/// Selectable-cell set of a masked-mode subepisode, one bit per cell.
///
/// Every `Step` snapshots the mask it acted under; with `Vec<bool>` that
/// retained `n` bytes × `n` steps = O(n²) bytes per subepisode on an
/// `n`-cell Gcell. One bit per cell cuts the constant 8× and keeps clones
/// cheap (`masked_steps_retain_bits_not_bytes` pins the bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Mask {
    len: usize,
    words: Box<[u64]>,
}

impl Mask {
    /// A mask of `len` selectable cells.
    pub(crate) fn all_set(len: usize) -> Self {
        Self {
            len,
            words: vec![u64::MAX; len.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Whether cell `i` is still selectable.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Marks cell `i` unselectable.
    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Heap + inline bytes one snapshot retains.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * std::mem::size_of::<u64>()
    }
}

/// One step stored in the mini-batch.
pub(crate) struct Step {
    state: Matrix,
    /// Selectable-cell mask (None in reduced mode: everything selectable).
    mask: Option<Mask>,
    action: usize,
    reward: f32,
    /// The pick failed to legalize (see `RlConfig::blame_failed_pick`).
    failed: bool,
}

/// Samples an index from a probability vector.
pub(crate) fn sample_categorical(probs: &[f32], rng: &mut impl Rng) -> usize {
    let x: f32 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if x < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Suppresses unselectable cells' logits to an effective −∞.
fn apply_mask(logits: &mut [f32], mask: &Mask) {
    for (i, l) in logits.iter_mut().enumerate() {
        if !mask.get(i) {
            *l = -1e9;
        }
    }
}

/// Discounted returns over `rewards`, seeded with `tail` past the horizon
/// (0 for truncated/Monte-Carlo ends, `V(s_end)` for bootstrapping).
fn discounted_returns(
    rewards: impl DoubleEndedIterator<Item = f32>,
    gamma: f32,
    tail: f32,
) -> Vec<f32> {
    let mut q: Vec<f32> = rewards
        .rev()
        .scan(tail, |acc, r| {
            *acc = r + gamma * *acc;
            Some(*acc)
        })
        .collect();
    q.reverse();
    q
}

/// Computes losses over a batch with precomputed targets `q` and applies
/// one asynchronous global update.
pub(crate) fn update(
    local: &mut CellWiseNet,
    shared: &Shared,
    batch: &[Step],
    q: &[f32],
    cfg: &RlConfig,
    lr: f32,
) {
    if batch.is_empty() {
        return;
    }
    debug_assert_eq!(batch.len(), q.len());
    // Advantages (with the current local value function). All batch states
    // are stacked into one matrix–matrix forward instead of one small
    // forward per step.
    let states: Vec<&Matrix> = batch.iter().map(|s| &s.state).collect();
    let mut advs: Vec<f32> = local
        .values_batch(&states)
        .iter()
        .zip(q)
        .map(|(&v, &qt)| qt - v)
        .collect();
    if cfg.normalize_advantage && advs.len() > 1 {
        let mean = advs.iter().sum::<f32>() / advs.len() as f32;
        let var = advs.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / advs.len() as f32;
        let sd = var.sqrt().max(1e-6);
        for a in &mut advs {
            *a = (*a - mean) / sd;
        }
    }

    local.zero_grads();
    let scale = 1.0 / batch.len() as f32;
    for (t, step) in batch.iter().enumerate() {
        let f = local.forward(&step.state);
        let mut probs = f.logits;
        if let Some(m) = &step.mask {
            apply_mask(&mut probs, m);
        }
        ops::softmax_in_place(&mut probs);
        let adv = advs[t];
        let entropy = ops::entropy(&probs);
        let mut d_logits = vec![0f32; probs.len()];
        for (i, &p) in probs.iter().enumerate() {
            // Policy loss gradient: (p_i − 1{i=a}) · Adv.
            let policy = (p - f32::from(i == step.action)) * adv;
            // Entropy loss L = Σ p ln p; dL/dz_i = p_i (ln p_i + H).
            let ent = if p > 0.0 { p * (p.ln() + entropy) } else { 0.0 };
            d_logits[i] = (policy + cfg.entropy_coeff * ent) * scale;
        }
        if step.failed && !cfg.blame_failed_pick {
            // The cell would have failed whenever picked from here on;
            // only the earlier congestion-causing steps carry the blame
            // (through their returns).
            d_logits.fill(0.0);
        }
        // Value loss: β · SmoothL1(V, Q) (Eq. 7), gradient w.r.t. V.
        let d_value = cfg.value_coeff * ops::smooth_l1_grad(f.value, q[t]) * scale;
        local.backward(&d_logits, d_value);
    }
    let mut grads = local.grads_flat();
    if grads.iter().any(|g| !g.is_finite()) {
        // A non-finite loss or gradient (NaN advantage, exploded logits)
        // would poison the shared parameters *permanently* — Adam's moment
        // vectors keep the NaN forever. Skip the update and refresh the
        // local net from the untouched global parameters instead.
        if !telemetry::disabled() {
            telemetry::counter("train.nonfinite_updates_skipped").inc();
        }
        local.set_params_flat(&shared.store.snapshot());
        return;
    }
    rlleg_nn::optim::clip_global_norm(&mut grads, cfg.grad_clip);

    {
        let mut opt = shared.opt.lock();
        opt.lr = lr;
        let opt = &mut *opt;
        shared.store.update(|params| opt.step(params, &grads));
    }
    // Refresh from the store rather than the just-written master: if a
    // sibling agent published meanwhile, the fresher version wins.
    local.set_params_flat(&shared.store.snapshot());
    if !telemetry::disabled() {
        telemetry::counter("train.global_updates").inc();
    }
}

/// One live Gcell subepisode inside [`run_gcells`].
struct SubEpisode {
    /// Reduced mode: the shrinking remaining list. Masked mode: the fixed
    /// full cell list of the Gcell.
    cells: Vec<rlleg_design::CellId>,
    /// Masked mode only: selectable cells.
    mask: Option<Mask>,
    /// Steps still to take: cells not yet legalized, or 0 once the
    /// subepisode terminated on a failure.
    left: usize,
    batch: Vec<Step>,
}

/// Runs one agent's subepisodes on `gcells`, pushing steps into batches
/// and updating as Algorithm 1 prescribes. Returns `(failures, steps)`:
/// the number of legalization failures encountered (with the paper's
/// terminate-on-failure semantics at most one per Gcell) and the number
/// of environment steps taken.
///
/// This is the only loop that steps policy-driven training subepisodes.
/// The Gcells of the group advance in lockstep macro-steps: each gathers
/// the current state of every live subepisode, evaluates all of them
/// through one [`CellWiseNet::forward_policy_batch`] blocked-GEMM forward
/// (bit-identical to per-state forwards), then samples, steps and flushes
/// each subepisode against its logit slice. The grouping is the whole
/// difference between the drivers: [`train`] passes all of an episode's
/// Gcells at once, [`Trainer`](crate::trainer::Trainer) one at a time.
/// Under lockstep, dynamic features observed by one Gcell may reflect
/// fewer sibling placements than under the one-at-a-time schedule, which
/// is why async-vs-deterministic equivalence is tested distributionally.
fn run_gcells(
    env: &mut LegalizeEnv,
    gcells: &[usize],
    local: &mut CellWiseNet,
    shared: &Shared,
    cfg: &RlConfig,
    lr: f32,
    rng: &mut impl Rng,
) -> (usize, usize) {
    let mut subs: Vec<SubEpisode> = gcells
        .iter()
        .filter_map(|&g| {
            let cells = env.remaining_in(g);
            if cells.is_empty() {
                return None;
            }
            let n = cells.len();
            Some(SubEpisode {
                cells,
                mask: (cfg.state_mode == StateMode::Masked).then(|| Mask::all_set(n)),
                left: n,
                batch: Vec::new(),
            })
        })
        .collect();
    let mut failures = 0usize;
    let mut steps = 0usize;
    let mut tail_raw: Vec<f32> = Vec::new();
    let mut tail_state = Matrix::zeros(0, 0);
    while !subs.is_empty() {
        // Gather every live subepisode's state, then one batched forward.
        let states: Vec<Matrix> = subs.iter().map(|sub| env.state(&sub.cells)).collect();
        let logit_slices = {
            let refs: Vec<&Matrix> = states.iter().collect();
            local.forward_policy_batch(&refs)
        };
        for ((sub, state), mut logits) in subs.iter_mut().zip(states).zip(logit_slices) {
            if let Some(m) = &sub.mask {
                apply_mask(&mut logits, m);
            }
            ops::softmax_in_place(&mut logits);
            let a = sample_categorical(&logits, rng);
            let outcome = env.step(sub.cells[a]);
            steps += 1;
            sub.batch.push(Step {
                state,
                mask: sub.mask.clone(),
                action: a,
                reward: outcome.reward(),
                failed: outcome.is_failure(),
            });
            failures += usize::from(outcome.is_failure());
            if outcome.is_failure() && cfg.terminate_on_failure {
                sub.left = 0;
            } else {
                match &mut sub.mask {
                    Some(m) => m.clear(a),
                    None => {
                        sub.cells.remove(a);
                    }
                }
                sub.left -= 1;
            }
            let done = sub.left == 0;
            let need_tail = cfg.return_mode == ReturnMode::BatchBootstrap
                && !done
                && sub.batch.len() >= cfg.batch_size;
            let tail = if need_tail {
                env.state_into(&sub.cells, &mut tail_raw, &mut tail_state);
                local.forward_inference(&tail_state).value
            } else {
                0.0
            };
            flush(local, shared, &mut sub.batch, done, tail, cfg, lr);
        }
        subs.retain(|sub| sub.left > 0);
    }
    (failures, steps)
}

/// Applies pending updates according to the configured return mode.
fn flush(
    local: &mut CellWiseNet,
    shared: &Shared,
    batch: &mut Vec<Step>,
    done: bool,
    tail: f32,
    cfg: &RlConfig,
    lr: f32,
) {
    match cfg.return_mode {
        ReturnMode::BatchTruncated | ReturnMode::BatchBootstrap => {
            if batch.len() < cfg.batch_size && !done {
                return;
            }
            let q = discounted_returns(batch.iter().map(|s| s.reward), cfg.gamma, tail);
            update(local, shared, batch, &q, cfg, lr);
            batch.clear();
        }
        ReturnMode::MonteCarlo => {
            if !done {
                return;
            }
            let q = discounted_returns(batch.iter().map(|s| s.reward), cfg.gamma, 0.0);
            let mut start = 0;
            while start < batch.len() {
                let end = (start + cfg.batch_size).min(batch.len());
                update(local, shared, &batch[start..end], &q[start..end], cfg, lr);
                start = end;
            }
            batch.clear();
        }
    }
}

/// Behaviour-cloning warm start: cross-entropy imitation of the
/// size-descending teacher. `remaining_in` returns cells in size order, so
/// the teacher action is always index 0; identically-featured cells share
/// probability mass (the net cannot and need not separate them).
pub(crate) fn pretrain(global: &mut CellWiseNet, designs: &[Design], cfg: &RlConfig) {
    let mut adam = Adam::new(global.num_params(), cfg.learning_rate * 3.0);
    let mut residual_sum = 0.0f64;
    let mut residual_count = 0usize;
    for _ in 0..cfg.pretrain_episodes {
        for design in designs {
            let gcells = rlleg_legalize::GcellGrid::auto(design);
            let mut env = LegalizeEnv::with_options(design.clone(), gcells, cfg.backend);
            for g in env.subepisode_order() {
                // Roll the teacher out, collecting states and rewards, so
                // the value head can be fitted to the teacher's returns —
                // an uninitialized baseline would make every early RL
                // advantage hugely positive and reinforce arbitrary
                // sampled actions.
                let mut remaining = env.remaining_in(g);
                let mut states: Vec<Matrix> = Vec::with_capacity(remaining.len());
                let mut rewards: Vec<f32> = Vec::with_capacity(remaining.len());
                while !remaining.is_empty() {
                    states.push(env.state(&remaining));
                    let cell = remaining.remove(0);
                    let outcome = env.step(cell);
                    rewards.push(outcome.reward());
                    if outcome.is_failure() {
                        break;
                    }
                }
                let q = discounted_returns(rewards.into_iter(), cfg.gamma, 0.0);
                let mut start = 0;
                while start < states.len() {
                    let end = (start + cfg.batch_size).min(states.len());
                    global.zero_grads();
                    for (state, &qt) in states[start..end].iter().zip(&q[start..end]) {
                        let f = global.forward(state);
                        let probs = ops::softmax(&f.logits);
                        // CE gradient toward the teacher pick (index 0).
                        let mut d: Vec<f32> = probs;
                        d[0] -= 1.0;
                        // Imitation updates the policy path only; fitting
                        // the value here would fight the CE gradient for
                        // the shared trunk. The critic is centred on the
                        // return scale afterwards via the bias shift.
                        global.backward(&d, 0.0);
                        residual_sum += f64::from(qt - f.value);
                        residual_count += 1;
                    }
                    let mut grads = global.grads_flat();
                    let n = (end - start) as f32;
                    for gr in &mut grads {
                        *gr /= n;
                    }
                    rlleg_nn::optim::clip_global_norm(&mut grads, 1.0);
                    let mut params = global.params_flat();
                    adam.step(&mut params, &grads);
                    global.set_params_flat(&params);
                    start = end;
                }
            }
        }
    }
    // Centre the critic on the teacher's return scale (see
    // `CellWiseNet::shift_value_bias`).
    if residual_count > 0 {
        global.shift_value_bias((residual_sum / residual_count as f64) as f32);
    }
}

/// One environment per design, reset between episodes (rebuilding
/// features is the expensive part; the paper reports the same
/// bottleneck).
pub(crate) fn build_envs(designs: &[Design], cfg: &RlConfig) -> Vec<LegalizeEnv> {
    designs
        .iter()
        .map(|d| {
            let gcells = rlleg_legalize::GcellGrid::auto(d);
            LegalizeEnv::with_options(d.clone(), gcells, cfg.backend)
        })
        .collect()
}

/// One A3C agent: its policy-sampling RNG stream and the local network it
/// acts with. Both drivers run episodes through [`Agent::run_episode`].
pub(crate) struct Agent {
    /// The learning-curve `agent` field and the round-robin design offset.
    pub(crate) index: usize,
    /// Checkpointed by `Trainer::state`; everything else is rebuilt.
    pub(crate) rng: ChaCha8Rng,
    /// Synced from the store at every episode start.
    local: CellWiseNet,
    /// Reused episode-start snapshot buffer (cloned only into
    /// `shared.best` on improvement).
    ep_params: Vec<f32>,
    /// Pre-interned rate gauge: `format!`-ing a metric name per episode
    /// re-hashed the registry every time; the handle is created once and
    /// held.
    sps_gauge: Option<telemetry::Gauge>,
}

impl Agent {
    pub(crate) fn new(index: usize, rng: ChaCha8Rng, local: CellWiseNet) -> Self {
        Self {
            index,
            rng,
            local,
            ep_params: Vec::new(),
            sps_gauge: None,
        }
    }

    /// Runs episode `episode` on the round-robin design of `envs` and
    /// records it in `shared`. With `lockstep` every Gcell of the episode
    /// advances in one [`run_gcells`] group (the asynchronous [`train`]);
    /// without, Gcells run one at a time in subepisode order (the
    /// deterministic [`Trainer`](crate::trainer::Trainer)). Returns the
    /// number of environment steps taken.
    pub(crate) fn run_episode(
        &mut self,
        envs: &mut [LegalizeEnv],
        shared: &Shared,
        cfg: &RlConfig,
        episode: usize,
        lockstep: bool,
    ) -> usize {
        let env = &mut envs[(self.index + episode) % envs.len()];
        env.reset();
        // Algorithm 1: θ' ← θ at episode start. The snapshot is also what
        // `shared.best` records if this episode sets a new best cost — it
        // is the parameter version the episode's behaviour came from.
        shared.store.read_into(&mut self.ep_params);
        self.local.set_params_flat(&self.ep_params);
        let lr = cfg.learning_rate * cfg.lr_decay.powi(episode as i32);
        let t_ep = std::time::Instant::now();
        let order = env.subepisode_order();
        let group = if lockstep { order.len().max(1) } else { 1 };
        let (mut failures, mut steps) = (0, 0);
        for gcells in order.chunks(group) {
            let (f, s) = run_gcells(env, gcells, &mut self.local, shared, cfg, lr, &mut self.rng);
            failures += f;
            steps += s;
        }
        let cost = env.legalization_cost();
        if !telemetry::disabled() {
            telemetry::counter("train.steps").add(steps as u64);
            telemetry::counter("train.episodes").inc();
            telemetry::histogram("train.episode_cost", telemetry::buckets::MAGNITUDE).record(cost);
            let index = self.index;
            self.sps_gauge
                .get_or_insert_with(|| {
                    telemetry::gauge(&format!("train.agent.{index}.millisteps_per_sec"))
                })
                .set_rate_milli(steps as f64, t_ep.elapsed().as_secs_f64());
        }
        shared.history.lock().push(TrainSample {
            agent: self.index,
            episode,
            design: env.design().name.clone(),
            cost,
            failures,
            qor: env.qor(),
        });
        // Validation-style checkpointing: record the episode's *starting*
        // parameters on a new best cost, not the drifted post-episode
        // locals that never produced the recorded cost.
        let mut best = shared.best.lock();
        if cost < best.0 {
            best.0 = cost;
            best.1.clear();
            best.1.extend_from_slice(&self.ep_params);
        }
        steps
    }
}

/// Trains the cell-wise network on `designs` with `cfg.agents` asynchronous
/// agents (Algorithm 1). Agents cycle through the designs round-robin, one
/// design per episode, run concurrently on their own environments, and
/// advance all Gcells of an episode in lockstep. They run on
/// `min(agents, default_threads())` scoped threads
/// ([`rlleg_legalize::pool::default_threads`]); each thread takes the next
/// agent in index order and runs all of its episodes before taking another.
///
/// # Panics
///
/// Panics when `designs` is empty, `cfg.agents == 0` or
/// `cfg.batch_size == 0`.
pub fn train(designs: &[Design], cfg: &RlConfig) -> TrainResult {
    let mut trainer = Trainer::without_envs(designs, cfg);
    let shared = &trainer.shared;
    let agents = Mutex::new(trainer.agents.iter_mut());
    let threads = cfg.agents.min(rlleg_legalize::pool::default_threads());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Bind first: the guard must not live through the episodes.
                let next = agents.lock().next();
                let Some(agent) = next else { break };
                let mut envs = build_envs(designs, cfg);
                for episode in 0..cfg.episodes {
                    agent.run_episode(&mut envs, shared, cfg, episode, true);
                }
            });
        }
    });
    trainer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rlleg_design::{DesignBuilder, Technology};
    use rlleg_geom::Point;

    fn toy_design(seed: i64) -> Design {
        let mut b = DesignBuilder::new(format!("toy{seed}"), Technology::contest(), 24, 6);
        for i in 0..14i64 {
            let x = (i * 331 + seed * 97) % 4_000;
            let y = (i * 1_777) % 10_000;
            b.add_cell(
                format!("u{i}"),
                1 + i % 2,
                1 + (i % 3 == 0) as u8,
                Point::new(x, y),
            );
        }
        for i in 0..10u32 {
            b.add_net(
                format!("n{i}"),
                vec![
                    (rlleg_design::CellId(i), 0, 0),
                    (rlleg_design::CellId(i + 2), 0, 0),
                ],
            );
        }
        b.build()
    }

    fn tiny_cfg() -> RlConfig {
        RlConfig {
            hidden_dim: 12,
            agents: 2,
            episodes: 4,
            batch_size: 8,
            ..RlConfig::default()
        }
    }

    #[test]
    fn train_produces_history_and_model() {
        let designs = [toy_design(0), toy_design(1)];
        let result = train(&designs, &tiny_cfg());
        assert_eq!(result.history.len(), 2 * 4, "agents × episodes samples");
        assert!(result.history.iter().all(|s| s.cost.is_finite()));
        assert!(result.history.iter().all(|s| s.failures == 0));
        assert!(result.tail_cost(4).is_finite());
        // The model must be usable for inference.
        let env = LegalizeEnv::new(toy_design(2));
        let cells = env.remaining_in(0);
        let state = env.state(&cells);
        let mut model = result.model;
        let f = model.forward(&state);
        assert_eq!(f.logits.len(), cells.len());
    }

    #[test]
    fn masked_mode_trains_too() {
        let designs = [toy_design(3)];
        let cfg = RlConfig {
            state_mode: StateMode::Masked,
            agents: 1,
            ..tiny_cfg()
        };
        let result = train(&designs, &cfg);
        assert_eq!(result.history.len(), 4);
        assert!(result.history.iter().all(|s| s.cost.is_finite()));
    }

    #[test]
    fn single_agent_is_deterministic() {
        let designs = [toy_design(4)];
        let cfg = RlConfig {
            agents: 1,
            ..tiny_cfg()
        };
        let a = train(&designs, &cfg);
        let b = train(&designs, &cfg);
        let ca: Vec<f64> = a.history.iter().map(|s| s.cost).collect();
        let cb: Vec<f64> = b.history.iter().map(|s| s.cost).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn bootstrap_mode_runs() {
        let designs = [toy_design(5)];
        let cfg = RlConfig {
            return_mode: crate::config::ReturnMode::BatchBootstrap,
            agents: 1,
            episodes: 2,
            ..tiny_cfg()
        };
        let result = train(&designs, &cfg);
        assert_eq!(result.history.len(), 2);
    }

    #[test]
    fn policy_gradient_learns_a_bandit() {
        // Three "cells" with distinct features; picking index 2 pays 2.0,
        // anything else pays 0.1. After a few hundred one-step updates the
        // policy must concentrate on index 2 — this guards the sign and
        // scaling of the policy/entropy/value gradients.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = CellWiseNet::new(8, &mut rng);
        let cfg = RlConfig {
            learning_rate: 0.01,
            entropy_coeff: 0.001,
            ..RlConfig::default()
        };
        let shared = Shared::fresh(net.params_flat(), cfg.learning_rate);
        let state = {
            // Distinct rows (a cell-wise net cannot separate identical
            // feature vectors).
            let f = rlleg_legalize::NUM_FEATURES;
            let data: Vec<f32> = (0..3 * f)
                .map(|i| (((i / f) * 5 + (i % f) * 3) % 11) as f32 / 11.0)
                .collect();
            Matrix::from_vec(3, rlleg_legalize::NUM_FEATURES, data)
        };
        for _ in 0..400 {
            let f = net.forward_inference(&state);
            let probs = ops::softmax(&f.logits);
            let a = sample_categorical(&probs, &mut rng);
            let r = if a == 2 { 2.0 } else { 0.1 };
            let batch = vec![Step {
                state: state.clone(),
                mask: None,
                action: a,
                reward: r,
                failed: false,
            }];
            update(&mut net, &shared, &batch, &[r], &cfg, cfg.learning_rate);
        }
        let probs = ops::softmax(&net.forward_inference(&state).logits);
        assert!(
            probs[2] > 0.8,
            "policy should prefer the rewarding arm: {probs:?}"
        );
    }

    #[test]
    fn nan_poisoned_advantage_skips_update_and_preserves_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = CellWiseNet::new(8, &mut rng);
        let cfg = RlConfig::default();
        let before = net.params_flat();
        let shared = Shared::fresh(before.clone(), cfg.learning_rate);
        let f = rlleg_legalize::NUM_FEATURES;
        let state = Matrix::from_vec(
            2,
            f,
            (0..2 * f).map(|i| (i % 7) as f32 / 7.0).collect::<Vec<_>>(),
        );
        let batch = vec![Step {
            state,
            mask: None,
            action: 0,
            reward: f32::NAN,
            failed: false,
        }];
        // A NaN return target poisons the advantage, hence every gradient.
        update(
            &mut net,
            &shared,
            &batch,
            &[f32::NAN],
            &cfg,
            cfg.learning_rate,
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&net.params_flat()),
            bits(&before),
            "local params must be untouched"
        );
        assert_eq!(
            bits(&shared.store.snapshot()),
            bits(&before),
            "global params must be untouched"
        );
        assert_eq!(shared.store.version(), 0, "no version must be published");
        assert_eq!(
            shared.opt.lock().steps(),
            0,
            "no Adam step must have been applied"
        );
    }

    #[test]
    fn monte_carlo_mode_runs() {
        let designs = [toy_design(6)];
        let cfg = RlConfig {
            return_mode: crate::config::ReturnMode::MonteCarlo,
            normalize_advantage: true,
            terminate_on_failure: false,
            agents: 1,
            episodes: 3,
            ..tiny_cfg()
        };
        let result = train(&designs, &cfg);
        assert_eq!(result.history.len(), 3);
        assert!(result.history.iter().all(|s| s.cost.is_finite()));
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_is_rejected_instead_of_spinning() {
        // Both the Monte-Carlo chunk loop and the warm-start chunk loop
        // advance by `batch_size`; at 0 they never terminated.
        let cfg = RlConfig {
            return_mode: crate::config::ReturnMode::MonteCarlo,
            pretrain_episodes: 1,
            batch_size: 0,
            agents: 1,
            ..tiny_cfg()
        };
        train(&[toy_design(7)], &cfg);
    }

    #[test]
    fn discounted_returns_shapes() {
        let q = discounted_returns([1.0f32, 1.0, 1.0].into_iter(), 0.5, 0.0);
        assert_eq!(q, vec![1.75, 1.5, 1.0]);
        let qb = discounted_returns([1.0f32].into_iter(), 0.5, 10.0);
        assert_eq!(qb, vec![6.0]);
        assert!(discounted_returns(std::iter::empty(), 0.9, 0.0).is_empty());
    }

    #[test]
    fn sample_categorical_respects_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let probs = [0.0f32, 0.0, 1.0, 0.0];
        for _ in 0..20 {
            assert_eq!(sample_categorical(&probs, &mut rng), 2);
        }
        // Degenerate numerical case: falls back to the last index.
        let zeros = [0.0f32; 3];
        let i = sample_categorical(&zeros, &mut rng);
        assert!(i < 3);
    }

    #[test]
    fn masked_logits_suppress() {
        let l = [1.0f32, 2.0, 3.0];
        let mut m = Mask::all_set(3);
        m.clear(1);
        let mut p = l.to_vec();
        apply_mask(&mut p, &m);
        ops::softmax_in_place(&mut p);
        assert!(p[1] < 1e-6);
        assert!((p[0] + p[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mask_bit_ops() {
        let mut m = Mask::all_set(130);
        assert!(m.get(0) && m.get(64) && m.get(129));
        m.clear(64);
        assert!(!m.get(64));
        assert!(m.get(63) && m.get(65), "neighbours untouched");
        m.clear(129);
        assert!(!m.get(129));
        let mut masked: Vec<f32> = vec![0.0; 130];
        apply_mask(&mut masked, &m);
        assert_eq!(
            masked.iter().filter(|&&x| x == -1e9).count(),
            2,
            "exactly the cleared bits are suppressed"
        );
    }

    #[test]
    fn masked_steps_retain_bits_not_bytes() {
        // A 1024-cell Gcell in masked mode keeps one mask snapshot per
        // step: with `Vec<bool>` that retained n² = 1 MiB of mask bytes
        // per subepisode. The bitmask bound is n²/8 plus per-step struct
        // overhead — pinned here at a quarter of the old cost so a
        // regression back to byte-per-cell storage fails loudly.
        let n = 1024usize;
        let per_step = Mask::all_set(n).retained_bytes();
        assert!(
            per_step <= n / 8 + 64,
            "one snapshot must be ~n/8 bytes, got {per_step}"
        );
        let subepisode_total = n * per_step;
        assert!(
            subepisode_total <= n * n / 4,
            "whole-subepisode mask retention {subepisode_total} regressed toward O(n²) bytes"
        );
    }
}
