//! Pinned result digests for training and inference.
//!
//! Each case hashes one run's complete output — parameters, best snapshot
//! and learning curve for training; every cell position plus the report
//! for inference — and compares it with a constant recorded before the
//! training drivers were folded onto one Gcell stepping loop. A refactor
//! of the stepping code that changes a single sampled action, update or
//! placement changes the digest.
//!
//! The constants depend on the platform's libm (`expf` inside softmax and
//! `ln` in the entropy term), so the test only runs on x86-64 Linux, where
//! they were recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl_legalizer::{
    Backend, CellWiseNet, InferenceBudget, InferenceReport, ReturnMode, RlConfig, RlLegalizer,
    Selection, StateMode, Trainer,
};
use rlleg_design::{Design, DesignBuilder, Technology};
use rlleg_geom::Point;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn words(self, ws: impl IntoIterator<Item = u64>) -> Self {
        ws.into_iter().fold(self, Fnv::word)
    }
}

/// 1100 sites × 110 rows = 220 µm square: a 2×2 Gcell grid, with an
/// overlapping 12-cell cluster in every Gcell.
fn quad_design() -> Design {
    let mut b = DesignBuilder::new("quad", Technology::contest(), 1_100, 110);
    for q in 0..4i64 {
        let (cx, cy) = (20_000 + (q % 2) * 110_000, 20_000 + (q / 2) * 110_000);
        for i in 0..12i64 {
            let x = cx + (i * 331 + q * 97) % 1_500;
            let y = cy + (i * 1_777 + q * 53) % 4_000;
            b.add_cell(
                format!("q{q}u{i}"),
                1 + i % 2,
                1 + (i % 3 == 0) as u8,
                Point::new(x, y),
            );
        }
    }
    b.build()
}

/// A one-Gcell design with one cell that can never be placed.
fn unplaceable_design() -> Design {
    let mut b = DesignBuilder::new("unplaceable", Technology::contest(), 8, 2);
    for i in 0..4i64 {
        b.add_cell(format!("u{i}"), 1, 1, Point::new(i * 200, 0));
    }
    b.add_cell("impossible", 8, 2, Point::new(0, 0));
    b.add_fixed_cell("m", 8, 1, Point::new(0, 2_000));
    b.build()
}

fn trainer_digest(state_mode: StateMode, return_mode: ReturnMode) -> u64 {
    let design = quad_design();
    let cfg = RlConfig {
        hidden_dim: 8,
        agents: 2,
        episodes: 2,
        batch_size: 7,
        lr_decay: 0.9,
        state_mode,
        return_mode,
        seed: 5,
        ..RlConfig::default()
    };
    let mut t = Trainer::new(std::slice::from_ref(&design), &cfg);
    while t.run_episode() {}
    let steps = t.steps();
    let r = t.finish();
    let (mut model, mut best) = (r.model, r.best_model);
    Fnv::new()
        .word(steps)
        .words(model.params_flat().iter().map(|x| u64::from(x.to_bits())))
        .words(best.params_flat().iter().map(|x| u64::from(x.to_bits())))
        .words(
            r.history
                .iter()
                .flat_map(|s| [s.cost.to_bits(), s.failures as u64]),
        )
        .0
}

fn inference_digest(rl: &RlLegalizer, mut design: Design) -> u64 {
    let InferenceReport {
        legalized,
        failed,
        degraded,
        degraded_cells,
        ..
    } = rl.legalize(&mut design);
    Fnv::new()
        .word(legalized as u64)
        .words(failed.iter().map(|c| u64::from(c.0)))
        .word(degraded.map_or(0, |r| r as u64 + 1))
        .word(degraded_cells as u64)
        .words(
            design
                .cells
                .iter()
                .flat_map(|c| [c.pos.x as u64, c.pos.y as u64]),
        )
        .0
}

fn untrained() -> CellWiseNet {
    CellWiseNet::new(8, &mut ChaCha8Rng::seed_from_u64(9))
}

/// Asserts every `(name, actual, expected)` case, reporting all mismatches
/// at once.
fn check(cases: &[(&str, u64, u64)]) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, actual, expected)| actual != expected)
        .map(|(name, actual, expected)| {
            format!("{name}: got {actual:#018x}, pinned {expected:#018x}")
        })
        .collect();
    assert!(bad.is_empty(), "digests changed:\n{}", bad.join("\n"));
}

#[test]
fn trainer_digests_on_a_two_by_two_gcell_design_are_pinned() {
    assert_eq!(
        rlleg_legalize::GcellGrid::auto(&quad_design()).shape(),
        (2, 2)
    );
    use ReturnMode::*;
    use StateMode::*;
    check(&[
        (
            "reduced/truncated",
            trainer_digest(Reduced, BatchTruncated),
            0xc091_1849_fa39_c822,
        ),
        (
            "reduced/bootstrap",
            trainer_digest(Reduced, BatchBootstrap),
            0x2b06_4e47_5dc2_878d,
        ),
        (
            "reduced/monte-carlo",
            trainer_digest(Reduced, MonteCarlo),
            0x944b_5f77_fe70_80fb,
        ),
        (
            "masked/truncated",
            trainer_digest(Masked, BatchTruncated),
            0xdccf_fce9_8b69_e831,
        ),
        (
            "masked/bootstrap",
            trainer_digest(Masked, BatchBootstrap),
            0xd11c_b9c3_08d8_da1e,
        ),
        (
            "masked/monte-carlo",
            trainer_digest(Masked, MonteCarlo),
            0x23f9_5066_644f_978c,
        ),
    ]);
}

#[test]
fn inference_digests_are_pinned() {
    let greedy = RlLegalizer::new(untrained());
    let mut poisoned = untrained();
    poisoned.set_params_flat(&vec![f32::NAN; poisoned.num_params()]);
    check(&[
        (
            "greedy",
            inference_digest(&greedy, quad_design()),
            0xa76d_c650_5e22_956d,
        ),
        (
            "sample",
            inference_digest(
                &greedy.clone().with_selection(Selection::Sample(5)),
                quad_design(),
            ),
            0x46f9_e9fb_ef5d_f31e,
        ),
        (
            "step-budget",
            inference_digest(
                &greedy.clone().with_budget(InferenceBudget::steps(17)),
                quad_design(),
            ),
            0xfbe8_2326_d5dd_2271,
        ),
        (
            "nan-weights",
            inference_digest(&RlLegalizer::new(poisoned), quad_design()),
            0xd06a_88e4_7026_314f,
        ),
        (
            "tetris",
            inference_digest(&greedy.clone().with_backend(Backend::Tetris), quad_design()),
            0xf27a_31f0_e270_b65b,
        ),
        (
            "unplaceable",
            inference_digest(&greedy, unplaceable_design()),
            0xb0f8_f0eb_0b17_5459,
        ),
    ]);
}
