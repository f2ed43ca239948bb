//! Property test for the batched policy forward: stacking any combination
//! of states into one [`CellWiseNet::forward_policy_batch`] call must be
//! **bit-identical** to evaluating each state through `forward_policy` on
//! its own. This is the contract that lets the asynchronous trainer batch
//! logits across Gcells without changing a single sampled action for a
//! given RNG stream — the row-broadcast kernel under the hood accumulates
//! every output row independently, in the same k-order as the naive
//! kernel.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl_legalizer::CellWiseNet;
use rlleg_legalize::NUM_FEATURES;
use rlleg_nn::Matrix;

fn state(rows: usize, value_seed: u64) -> Matrix {
    // Deterministic but irregular values, including negatives and a wide
    // magnitude spread, so GEMM reassociation bugs cannot hide.
    let data: Vec<f32> = (0..rows * NUM_FEATURES)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(value_seed);
            let x = ((h >> 40) as i32 - (1 << 23)) as f32;
            x / (1 << 20) as f32
        })
        .collect();
    Matrix::from_vec(rows, NUM_FEATURES, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_policy_forward_is_bit_identical_to_per_state(
        // Up to 48: past one 16-column tile of the row-broadcast kernel.
        hidden in 4usize..=48,
        net_seed in 0u64..1_000,
        value_seed in 0u64..1_000,
        // Mix of tiny (below `BLOCKED_MIN_ROWS`) and larger
        // (above it) states in one batch.
        row_counts in proptest::collection::vec(1usize..40, 1..8),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(net_seed);
        let net = CellWiseNet::new(hidden, &mut rng);
        let states: Vec<Matrix> = row_counts
            .iter()
            .enumerate()
            .map(|(i, &r)| state(r, value_seed.wrapping_add(i as u64 * 7919)))
            .collect();
        let refs: Vec<&Matrix> = states.iter().collect();
        let batched = net.forward_policy_batch(&refs);
        prop_assert_eq!(batched.len(), states.len());
        for (s, b) in states.iter().zip(&batched) {
            let single = net.forward_policy(s);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&single),
                bits(b),
                "batched logits diverged from the per-state forward"
            );
        }
    }
}
