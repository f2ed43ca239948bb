//! The cell-wise policy/value network of Fig. 4.
//!
//! Thirteen features of each movable cell pass through a shared trunk of
//! two FC(·,H)+ReLU pairs applied *per cell* (same parameters for every
//! cell, so any number of cells is supported). The policy head maps each
//! cell embedding to one logit; SoftMax over cells yields the priority
//! vector. The value head maps each embedding to one scalar and averages
//! over cells to estimate the expected reward.

use rand::Rng;
use serde::{Deserialize, Serialize};

use rlleg_legalize::NUM_FEATURES;
use rlleg_nn::{ops, Matrix, Mlp};

/// Output of a training forward pass.
#[derive(Debug, Clone)]
pub struct Forward {
    /// One logit per cell (pre-softmax priority).
    pub logits: Vec<f32>,
    /// State-value estimate (mean of per-cell values).
    pub value: f32,
}

/// The cell-wise actor-critic network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellWiseNet {
    trunk: Mlp,
    policy_head: Mlp,
    value_head: Mlp,
    /// Cached trunk output of the last training forward (for backward).
    #[serde(skip)]
    cached_rows: usize,
}

impl CellWiseNet {
    /// Creates a network with the given hidden width.
    pub fn new(hidden_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            trunk: Mlp::new(&[NUM_FEATURES, hidden_dim, hidden_dim], rng),
            policy_head: Mlp::new(&[hidden_dim, 1], rng),
            value_head: Mlp::new(&[hidden_dim, 1], rng),
            cached_rows: 0,
        }
    }

    /// Training forward pass over an `N × 13` state; caches activations.
    ///
    /// # Panics
    ///
    /// Panics when the state has zero rows or the wrong column count.
    pub fn forward(&mut self, state: &Matrix) -> Forward {
        assert!(state.rows() > 0, "empty state");
        assert_eq!(state.cols(), NUM_FEATURES, "state must have 13 features");
        let emb = self.trunk.forward(state);
        let logits_m = self.policy_head.forward(&emb);
        let values_m = self.value_head.forward(&emb);
        self.cached_rows = state.rows();
        let logits = logits_m.as_slice().to_vec();
        let value = values_m.as_slice().iter().sum::<f32>() / state.rows() as f32;
        Forward { logits, value }
    }

    /// Inference forward pass (no caching, usable through `&self`).
    pub fn forward_inference(&self, state: &Matrix) -> Forward {
        let emb = self.trunk.forward_inference(state);
        let logits = self.policy_head.forward_inference(&emb).as_slice().to_vec();
        let vals = self.value_head.forward_inference(&emb);
        let value = vals.as_slice().iter().sum::<f32>() / state.rows() as f32;
        Forward { logits, value }
    }

    /// Policy-only inference: trunk + policy head over all `N` candidate
    /// cells in one matrix–matrix forward, skipping the value head.
    ///
    /// Action selection only needs the logits, so the per-step network cost
    /// at inference time drops to two trunk matmuls plus one `N × H → N`
    /// policy matmul.
    pub fn forward_policy(&self, state: &Matrix) -> Vec<f32> {
        let emb = self.trunk.forward_inference(state);
        self.policy_head.forward_inference(&emb).as_slice().to_vec()
    }

    /// Stacks `states` into one `(Σ rowsᵢ) × 13` matrix after validating
    /// each state's shape.
    fn stack_states(states: &[&Matrix]) -> Matrix {
        for s in states {
            assert!(s.rows() > 0, "empty state");
            assert_eq!(s.cols(), NUM_FEATURES, "state must have 13 features");
        }
        Matrix::stack(states)
    }

    /// Batched value estimates: stacks every state into one
    /// `(Σ rowsᵢ) × 13` matrix, runs a single trunk + value-head forward,
    /// and returns the per-state means — one `V(sᵢ)` per input.
    ///
    /// Replaces `states.len()` separate small-matrix forwards with one
    /// matrix–matrix pass; the advantage loop in training is the main
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics when any state is empty or has the wrong column count.
    pub fn values_batch(&self, states: &[&Matrix]) -> Vec<f32> {
        if states.is_empty() {
            return Vec::new();
        }
        let stacked = Self::stack_states(states);
        let emb = self.trunk.forward_inference(&stacked);
        let vals = self.value_head.forward_inference(&emb);
        let flat = vals.as_slice();
        let mut out = Vec::with_capacity(states.len());
        let mut off = 0usize;
        for s in states {
            let n = s.rows();
            out.push(flat[off..off + n].iter().sum::<f32>() / n as f32);
            off += n;
        }
        out
    }

    /// Batched policy logits: one trunk + policy-head forward over all
    /// candidate cells of all `states` at once, split back into one logit
    /// vector per state.
    ///
    /// This is the action-selection analogue of
    /// [`values_batch`](Self::values_batch): the asynchronous trainer
    /// gathers the per-Gcell states of one macro-step and evaluates them
    /// in a single blocked-GEMM pass. The per-cell network is applied
    /// row-wise, and the row-broadcast kernel is bit-identical to the
    /// naive per-state path, so each returned vector equals the
    /// corresponding [`forward_policy`](Self::forward_policy) call bit
    /// for bit (proptested in `tests/batch_prop.rs`).
    ///
    /// # Panics
    ///
    /// Panics when any state is empty or has the wrong column count.
    pub fn forward_policy_batch(&self, states: &[&Matrix]) -> Vec<Vec<f32>> {
        if states.is_empty() {
            return Vec::new();
        }
        let stacked = Self::stack_states(states);
        let emb = self.trunk.forward_inference(&stacked);
        let logits = self.policy_head.forward_inference(&emb);
        let flat = logits.as_slice();
        let mut out = Vec::with_capacity(states.len());
        let mut off = 0usize;
        for s in states {
            let n = s.rows();
            out.push(flat[off..off + n].to_vec());
            off += n;
        }
        out
    }

    /// Backward pass: accumulates gradients for `∂L/∂logitsᵢ = d_logits[i]`
    /// and `∂L/∂V = d_value`.
    ///
    /// # Panics
    ///
    /// Panics if `d_logits` does not match the last forward's cell count.
    pub fn backward(&mut self, d_logits: &[f32], d_value: f32) {
        let n = self.cached_rows;
        assert_eq!(
            d_logits.len(),
            n,
            "gradient size mismatch with last forward"
        );
        let g_policy = Matrix::from_vec(n, 1, d_logits.to_vec());
        // V = (1/N) Σ v_i  =>  ∂L/∂v_i = d_value / N.
        let g_value = Matrix::from_vec(n, 1, vec![d_value / n as f32; n]);
        let d_emb_p = self.policy_head.backward(&g_policy);
        let d_emb_v = self.value_head.backward(&g_value);
        let mut d_emb = d_emb_p;
        for (a, b) in d_emb.as_mut_slice().iter_mut().zip(d_emb_v.as_slice()) {
            *a += b;
        }
        self.trunk.backward_params(&d_emb);
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.trunk.zero_grads();
        self.policy_head.zero_grads();
        self.value_head.zero_grads();
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.trunk.num_params() + self.policy_head.num_params() + self.value_head.num_params()
    }

    /// All parameters as one flat vector (trunk, policy head, value head).
    pub fn params_flat(&mut self) -> Vec<f32> {
        let mut v = self.trunk.params_flat();
        v.extend(self.policy_head.params_flat());
        v.extend(self.value_head.params_flat());
        v
    }

    /// All gradients as one flat vector (same order as
    /// [`params_flat`](Self::params_flat)).
    pub fn grads_flat(&mut self) -> Vec<f32> {
        let mut v = self.trunk.grads_flat();
        v.extend(self.policy_head.grads_flat());
        v.extend(self.value_head.grads_flat());
        v
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "flat parameter size mismatch"
        );
        let a = self.trunk.num_params();
        let b = a + self.policy_head.num_params();
        self.trunk.set_params_flat(&flat[..a]);
        self.policy_head.set_params_flat(&flat[a..b]);
        self.value_head.set_params_flat(&flat[b..]);
    }

    /// Adds `delta` to the value head's output bias, shifting `V(s)`
    /// uniformly across states.
    ///
    /// Used to centre the critic on the observed return scale after
    /// behaviour-cloning warm-up: with smooth-L1 value loss and Adam, the
    /// critic would otherwise need tens of thousands of updates to climb
    /// from 0 to a typical subepisode return, leaving advantages uniformly
    /// positive for most of a short training run.
    pub fn shift_value_bias(&mut self, delta: f32) {
        let mut p = self.value_head.params_flat();
        let last = p.len() - 1;
        p[last] += delta;
        self.value_head.set_params_flat(&p);
    }

    /// The priority distribution over cells for a state (softmax of the
    /// logits).
    pub fn priorities(&self, state: &Matrix) -> Vec<f32> {
        ops::softmax(&self.forward_inference(state).logits)
    }

    /// Serializes the model to JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` serialization error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a model from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` deserialization error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    fn state(n: usize) -> Matrix {
        let data: Vec<f32> = (0..n * NUM_FEATURES)
            .map(|i| ((i % 17) as f32) / 17.0)
            .collect();
        Matrix::from_vec(n, NUM_FEATURES, data)
    }

    #[test]
    fn shapes_follow_cell_count() {
        let mut net = CellWiseNet::new(16, &mut rng());
        for n in [1, 3, 20] {
            let f = net.forward(&state(n));
            assert_eq!(f.logits.len(), n);
            assert!(f.value.is_finite());
        }
    }

    #[test]
    fn cell_wise_sharing_is_permutation_equivariant() {
        let net = CellWiseNet::new(16, &mut rng());
        let s = state(5);
        let f = net.forward_inference(&s);
        // Swap rows 1 and 3.
        let mut rows: Vec<Vec<f32>> = (0..5).map(|r| s.row(r).to_vec()).collect();
        rows.swap(1, 3);
        let flat: Vec<f32> = rows.into_iter().flatten().collect();
        let s2 = Matrix::from_vec(5, NUM_FEATURES, flat);
        let f2 = net.forward_inference(&s2);
        assert!((f.logits[1] - f2.logits[3]).abs() < 1e-6);
        assert!((f.logits[3] - f2.logits[1]).abs() < 1e-6);
        assert!(
            (f.value - f2.value).abs() < 1e-6,
            "value is permutation invariant"
        );
    }

    #[test]
    fn gradcheck_policy_logit() {
        let mut net = CellWiseNet::new(8, &mut rng());
        let s = state(4);
        // Loss = logits[2] (pick via d_logits one-hot), check a trunk param.
        let _ = net.forward(&s);
        net.backward(&[0.0, 0.0, 1.0, 0.0], 0.0);
        let g = net.grads_flat();
        let mut p = net.params_flat();
        let idx = 7;
        let eps = 1e-2f32;
        let loss = |n: &CellWiseNet| n.forward_inference(&s).logits[2];
        let orig = p[idx];
        p[idx] = orig + eps;
        net.set_params_flat(&p);
        let hi = loss(&net);
        p[idx] = orig - eps;
        net.set_params_flat(&p);
        let lo = loss(&net);
        let num = (hi - lo) / (2.0 * eps);
        assert!(
            (num - g[idx]).abs() < 0.05 + 0.05 * num.abs(),
            "{num} vs {}",
            g[idx]
        );
    }

    #[test]
    fn gradcheck_value() {
        let mut net = CellWiseNet::new(8, &mut rng());
        let s = state(3);
        let _ = net.forward(&s);
        net.backward(&[0.0; 3], 1.0);
        let g = net.grads_flat();
        let mut p = net.params_flat();
        let idx = g.len() - 1; // value-head bias
        let eps = 1e-2f32;
        let loss = |n: &CellWiseNet| n.forward_inference(&s).value;
        let orig = p[idx];
        p[idx] = orig + eps;
        net.set_params_flat(&p);
        let hi = loss(&net);
        p[idx] = orig - eps;
        net.set_params_flat(&p);
        let lo = loss(&net);
        let num = (hi - lo) / (2.0 * eps);
        assert!((num - g[idx]).abs() < 0.02, "{num} vs {}", g[idx]);
    }

    #[test]
    fn forward_policy_matches_full_forward() {
        let net = CellWiseNet::new(16, &mut rng());
        let s = state(6);
        let full = net.forward_inference(&s);
        assert_eq!(net.forward_policy(&s), full.logits);
    }

    #[test]
    fn values_batch_matches_per_state_forwards() {
        let net = CellWiseNet::new(16, &mut rng());
        let states = [state(1), state(4), state(9)];
        let refs: Vec<&Matrix> = states.iter().collect();
        let batched = net.values_batch(&refs);
        assert_eq!(batched.len(), 3);
        for (s, &v) in states.iter().zip(&batched) {
            assert_eq!(net.forward_inference(s).value, v);
        }
        assert!(net.values_batch(&[]).is_empty());
    }

    #[test]
    fn forward_policy_batch_matches_per_state_forwards() {
        let net = CellWiseNet::new(16, &mut rng());
        // Small states individually (naive kernel) but a large stack
        // (blocked kernel): the bit-identity of the two kernels is what
        // makes the batched logits exact.
        let states = [state(1), state(4), state(9), state(13)];
        let refs: Vec<&Matrix> = states.iter().collect();
        let batched = net.forward_policy_batch(&refs);
        assert_eq!(batched.len(), 4);
        for (s, logits) in states.iter().zip(&batched) {
            assert_eq!(&net.forward_policy(s), logits);
        }
        assert!(net.forward_policy_batch(&[]).is_empty());
    }

    #[test]
    fn priorities_are_a_distribution() {
        let net = CellWiseNet::new(16, &mut rng());
        let p = net.priorities(&state(7));
        assert_eq!(p.len(), 7);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn json_round_trip() {
        let mut net = CellWiseNet::new(8, &mut rng());
        let json = net.to_json().expect("serialize");
        let net2 = CellWiseNet::from_json(&json).expect("deserialize");
        let s = state(4);
        let a = net.forward(&s);
        let b = net2.forward_inference(&s);
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn params_flat_round_trip() {
        let mut a = CellWiseNet::new(8, &mut rng());
        let mut b = CellWiseNet::new(8, &mut rng());
        b.set_params_flat(&a.params_flat());
        let s = state(2);
        assert_eq!(
            a.forward_inference(&s).logits,
            b.forward_inference(&s).logits
        );
    }
}
