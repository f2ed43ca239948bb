//! Pinned result digests for the global placer.
//!
//! Each case runs one `place` call and hashes every cell's `pos` and
//! `gp_pos` together with the run's [`GpStats`] (`hpwl`, `iterations`,
//! `cg_iterations` and the bit pattern of every `overflow` entry), then
//! compares the result with a constant recorded from the placer that
//! assembled and solved each axis separately, one after the other. A
//! change to the assembly, the solves or the finalist round that moves a
//! single bit changes the digest.
//!
//! The cases cover both finalist paths of warm refinement (a refined
//! iterate that moves, and one that is the input because no outer
//! iteration ran), cold construction, and a small OpenCores design. Each
//! stays at 1k cells or fewer so a debug test run stays short. The placer
//! pairs work on a helper thread only when `RLLEG_THREADS` (else the
//! machine) allows more than one lane, so `scripts/ci.sh` also runs this
//! test under `RLLEG_THREADS=1` and `RLLEG_THREADS=2`: both paths must meet
//! the same constants.
//!
//! The input comes from benchgen, whose generator draws through the
//! platform's libm, so the test only runs on x86-64 Linux, where the
//! constants were recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use rlleg_benchgen::{find_spec, generate};
use rlleg_design::Design;
use rlleg_gplace::{place, GpConfig, GpStats};

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

/// des_perf_b_md1 at 1k cells: a contest design with fence regions.
fn fenced_1k() -> Design {
    let d = generate(&find_spec("des_perf_b_md1").expect("spec").scaled_to(1_000));
    assert!(
        d.cells.iter().any(|c| c.is_movable() && c.region.is_some()),
        "the case must exercise fenced cells"
    );
    d
}

fn place_digest(mut d: Design, cfg: &GpConfig) -> u64 {
    let s: GpStats = place(&mut d, cfg);
    Fnv::new()
        .word(s.hpwl as u64)
        .word(s.iterations as u64)
        .word(s.cg_iterations as u64)
        .word(s.overflow.len() as u64)
        .words(s.overflow.iter().map(|o| o.to_bits()))
        .words(d.cells.iter().flat_map(|c| {
            [
                c.pos.x as u64,
                c.pos.y as u64,
                c.gp_pos.x as u64,
                c.gp_pos.y as u64,
            ]
        }))
        .0
}

fn check(name: &str, d: Design, cfg: &GpConfig, expected: u64) {
    let got = place_digest(d, cfg);
    assert_eq!(
        got, expected,
        "{name}: digest {got:#018x}, pinned {expected:#018x}"
    );
}

/// Warm refinement whose outer iterations replace the input, so the
/// refined finalist differs from the input and is trial-legalized.
#[test]
fn warm_fenced_digest_is_pinned() {
    check(
        "warm",
        fenced_1k(),
        &GpConfig::default(),
        0x7e04_ae27_f97c_e368,
    );
}

/// Warm refinement with no outer iteration: the refined finalist is the
/// input bit for bit.
#[test]
fn warm_without_iterations_digest_is_pinned() {
    let cfg = GpConfig {
        max_iterations: 0,
        ..GpConfig::default()
    };
    check(
        "warm, 0 iterations",
        fenced_1k(),
        &cfg,
        0x141a_c1f2_c77f_e659,
    );
}

/// Cold construction: a zero-anchor wirelength solve, then spreading.
#[test]
fn cold_digest_is_pinned() {
    let cfg = GpConfig {
        warm_start: false,
        ..GpConfig::default()
    };
    check("cold", fenced_1k(), &cfg, 0xb2bf_d64a_c544_f4b4);
}

/// Cold construction with a zero anchor weight: no solve carries
/// anchors, so every outer iteration solves the anchor-free system.
#[test]
fn cold_without_anchors_digest_is_pinned() {
    let cfg = GpConfig {
        warm_start: false,
        anchor_base: 0.0,
        ..GpConfig::default()
    };
    check("cold, no anchors", fenced_1k(), &cfg, 0x99cc_1bf6_8587_5786);
}

#[test]
fn usb_phy_digest_is_pinned() {
    let d = generate(&find_spec("usb_phy").expect("spec").scaled(0.1));
    check("usb_phy", d, &GpConfig::default(), 0x4136_649b_acb1_b15f);
}
