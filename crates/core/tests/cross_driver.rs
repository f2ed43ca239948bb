//! Bit-exact agreement of the two training drivers where their schedules
//! coincide.
//!
//! The asynchronous [`train`] advances all Gcells of an episode together;
//! the deterministic [`Trainer`] advances them one at a time. With a single
//! agent on designs that tile into a single Gcell the two schedules are the
//! same schedule, so everything else — sampling, masking, returns, updates,
//! learning-rate decay, warm start, best-snapshot selection — must agree
//! bit for bit. Any divergence here is a difference in the shared episode
//! logic, not in the Gcell grouping.

use rl_legalizer::{train, ReturnMode, RlConfig, StateMode, TrainResult, Trainer};
use rlleg_design::{Design, DesignBuilder, Technology};
use rlleg_geom::Point;

/// A 24-site × 6-row design: far below the 200 µm Gcell pitch, so it tiles
/// into exactly one Gcell.
fn toy_design(seed: i64) -> Design {
    let mut b = DesignBuilder::new(format!("x{seed}"), Technology::contest(), 24, 6);
    for i in 0..12i64 {
        let x = (i * 331 + seed * 97) % 4_000;
        let y = (i * 1_777 + seed * 53) % 10_000;
        b.add_cell(
            format!("u{i}"),
            1 + i % 2,
            1 + (i % 3 == 0) as u8,
            Point::new(x, y),
        );
    }
    b.build()
}

/// A one-Gcell design holding a cell that can never be placed, so
/// `terminate_on_failure` changes the episode.
fn unplaceable_design() -> Design {
    let mut b = DesignBuilder::new("unplaceable", Technology::contest(), 8, 2);
    for i in 0..4i64 {
        b.add_cell(format!("u{i}"), 1, 1, Point::new(i * 200, 0));
    }
    b.add_cell("impossible", 8, 2, Point::new(0, 0));
    b.add_fixed_cell("m", 8, 1, Point::new(0, 2_000));
    b.build()
}

/// Final params, best params and the learning curve, all as raw bits.
fn fingerprint(r: TrainResult) -> (Vec<u32>, Vec<u32>, Vec<(u64, usize)>) {
    let bits = |mut m: rl_legalizer::CellWiseNet| {
        m.params_flat()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    let history = r
        .history
        .iter()
        .map(|s| (s.cost.to_bits(), s.failures))
        .collect();
    (bits(r.model), bits(r.best_model), history)
}

#[test]
fn single_agent_train_matches_trainer_bit_for_bit_on_one_gcell_designs() {
    let designs = [toy_design(1), unplaceable_design(), toy_design(2)];
    let mut checked = 0;
    for state_mode in [StateMode::Reduced, StateMode::Masked] {
        for return_mode in [
            ReturnMode::BatchTruncated,
            ReturnMode::BatchBootstrap,
            ReturnMode::MonteCarlo,
        ] {
            for terminate_on_failure in [true, false] {
                for pretrain_episodes in [0, 1] {
                    let cfg = RlConfig {
                        hidden_dim: 8,
                        agents: 1,
                        episodes: 4,
                        batch_size: 5,
                        lr_decay: 0.9,
                        state_mode,
                        return_mode,
                        terminate_on_failure,
                        pretrain_episodes,
                        seed: 11,
                        ..RlConfig::default()
                    };
                    let async_run = fingerprint(train(&designs, &cfg));
                    let mut t = Trainer::new(&designs, &cfg);
                    while t.run_episode() {}
                    let rr_run = fingerprint(t.finish());
                    assert_eq!(async_run.2.len(), 4, "one sample per episode");
                    assert!(
                        async_run == rr_run,
                        "drivers diverged: {state_mode:?} {return_mode:?} \
                         terminate={terminate_on_failure} pretrain={pretrain_episodes}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 24);
}
