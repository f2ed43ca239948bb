//! Oracle 4: trainer/inference invariants.
//!
//! Cheap (every iteration): priorities form a probability simplex,
//! `values_batch` equals the per-state forward pass bit-for-bit,
//! `forward_policy` equals `forward_inference` logits, and environment
//! steps yield finite rewards. Deep (sampled iterations): a short A3C
//! training run must produce finite episode costs and finite parameters.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use rl_legalizer::{train, CellWiseNet, LegalizeEnv, RlConfig};
use rlleg_design::{DesignBuilder, Technology};
use rlleg_geom::Point;

use crate::scenario::Scenario;
use crate::Failure;

/// Runs the network/trainer invariants. Deterministic in `nn_seed`.
pub fn check(sc: &Scenario, nn_seed: u64, deep: bool) -> Vec<Failure> {
    let mut rng = ChaCha8Rng::seed_from_u64(nn_seed);
    let mut failures = Vec::new();
    let fail = |msg: String, failures: &mut Vec<Failure>| {
        failures.push(Failure {
            oracle: "nn",
            scenario: sc.label.clone(),
            message: msg,
            artifact: None,
        });
    };

    let mut env = LegalizeEnv::new(sc.design.clone());
    let order = env.subepisode_order();
    let Some(&g0) = order.first() else {
        return failures;
    };
    let cells = env.remaining_in(g0);
    if cells.is_empty() {
        return failures;
    }
    let state = env.state(&cells);
    // Widths past 32 cross two 16-column tiles of the row-broadcast
    // kernel and end on a shifted tail tile.
    let net = CellWiseNet::new(rng.gen_range(8..=48usize), &mut rng);

    // Policy simplex: finite, non-negative, sums to 1.
    let p = net.priorities(&state);
    if p.len() != cells.len() {
        fail(
            format!("priorities length {} != {} cells", p.len(), cells.len()),
            &mut failures,
        );
    }
    if p.iter().any(|v| !v.is_finite() || *v < 0.0) {
        fail(format!("priorities not a simplex: {p:?}"), &mut failures);
    } else {
        let sum: f32 = p.iter().sum();
        if (sum - 1.0).abs() > 1e-4 {
            fail(format!("priorities sum to {sum}"), &mut failures);
        }
    }

    // Batched value evaluation must equal the per-state forward pass
    // exactly (same kernels, same accumulation order).
    let states = [&state, &state];
    let batched = net.values_batch(&states);
    for (i, s) in states.iter().enumerate() {
        let single = net.forward_inference(s).value;
        if batched[i] != single {
            fail(
                format!(
                    "values_batch[{i}] = {} != forward_inference value {single}",
                    batched[i]
                ),
                &mut failures,
            );
        }
    }

    // Policy-only path must match the full inference logits bit-for-bit.
    let logits_full = net.forward_inference(&state).logits;
    let logits_policy = net.forward_policy(&state);
    if logits_full != logits_policy {
        fail(
            "forward_policy diverges from forward_inference logits".into(),
            &mut failures,
        );
    }

    // Environment steps: rewards stay finite whatever cell is picked.
    let mut remaining = cells;
    for _ in 0..remaining.len().min(8) {
        let idx = rng.gen_range(0..remaining.len());
        let cell = remaining.swap_remove(idx);
        let outcome = env.step(cell);
        if !outcome.reward().is_finite() {
            fail(format!("non-finite reward stepping {cell}"), &mut failures);
            break;
        }
        if remaining.is_empty() {
            break;
        }
    }

    if deep {
        failures.extend(deep_train_check(sc, &mut rng));
    }
    failures
}

/// A short end-to-end training run on a tiny design: every recorded cost
/// and every final parameter must be finite.
fn deep_train_check(sc: &Scenario, rng: &mut ChaCha8Rng) -> Vec<Failure> {
    let mut failures = Vec::new();
    let mut b = DesignBuilder::new("fuzz_train", Technology::contest(), 20, 5);
    for i in 0..10i64 {
        b.add_cell(
            format!("t{i}"),
            1 + i % 2,
            1 + (i % 2) as u8,
            Point::new(i * 330 + 40, (i % 3) * 1_800 + 90),
        );
    }
    let design = b.build();
    let cfg = RlConfig {
        hidden_dim: 8,
        agents: 1,
        episodes: 2,
        pretrain_episodes: 0,
        seed: rng.gen(),
        ..RlConfig::small()
    };
    let result = train(std::slice::from_ref(&design), &cfg);
    for s in &result.history {
        if !s.cost.is_finite() {
            failures.push(Failure {
                oracle: "nn",
                scenario: sc.label.clone(),
                message: format!("non-finite training cost in episode {}", s.episode),
                artifact: None,
            });
        }
    }
    let mut model = result.model;
    if model.params_flat().iter().any(|v| !v.is_finite()) {
        failures.push(Failure {
            oracle: "nn",
            scenario: sc.label.clone(),
            message: "non-finite parameter after training".into(),
            artifact: None,
        });
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_hold_on_a_small_design() {
        let mut b = DesignBuilder::new("nn", Technology::contest(), 20, 5);
        for i in 0..8i64 {
            b.add_cell(
                format!("u{i}"),
                1 + i % 2,
                1,
                Point::new(i * 400, (i % 2) * 2_000),
            );
        }
        let sc = Scenario {
            label: "test:nn".into(),
            design: b.build(),
        };
        let failures = check(&sc, 17, true);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
