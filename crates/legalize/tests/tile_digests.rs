//! Pinned result digests for the parallel Gcell runner on multi-tile grids.
//!
//! The thread-count proptests compare every thread count with
//! `threads = 1` from the same build, so a change to the phase-2 merge
//! order (or to anything else that moves a placement identically at every
//! thread count) passes them. These cases hash one run's [`RunStats`] and
//! every final cell position and compare the result with a constant
//! recorded before the tile scheduler was rewritten.
//!
//! The input comes from benchgen, whose generator draws through the
//! platform's libm, so the test only runs on x86-64 Linux, where the
//! constants were recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use rlleg_benchgen::{find_spec, generate};
use rlleg_legalize::{GcellGrid, Legalizer, Ordering, RunStats, TileSchedule};

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

fn stats_digest(h: Fnv, s: &RunStats) -> Fnv {
    h.word(s.legalized as u64)
        .word(s.failed.len() as u64)
        .words(s.failed.iter().map(|c| u64::from(c.0)))
        .word(s.quarantined.len() as u64)
        .words(s.quarantined.iter().map(|&g| g as u64))
}

/// Digest of one `run_gcells_parallel` call on des_perf_b_md1 ×0.006
/// partitioned into `nx × ny` Gcells.
fn run_digest(nx: usize, ny: usize, threads: usize) -> u64 {
    let spec = find_spec("des_perf_b_md1").expect("spec").scaled(0.006);
    let mut d = generate(&spec);
    let gcells = GcellGrid::new(&d, nx, ny);
    assert!(
        TileSchedule::new(&gcells).len() > 1,
        "{nx}x{ny} must span several tiles"
    );
    let stats =
        Legalizer::new(&d).run_gcells_parallel(&mut d, &Ordering::SizeDescending, &gcells, threads);
    assert!(stats.is_complete(), "failed: {:?}", stats.failed);
    stats_digest(Fnv::new(), &stats)
        .words(
            d.cells
                .iter()
                .flat_map(|c| [c.pos.x as u64, c.pos.y as u64, u64::from(c.legalized)]),
        )
        .0
}

fn check(nx: usize, ny: usize, expected: u64) {
    for threads in [1usize, 2, 4] {
        let got = run_digest(nx, ny, threads);
        assert_eq!(
            got, expected,
            "{nx}x{ny} grid, {threads} threads: digest {got:#018x}, pinned {expected:#018x}"
        );
    }
}

#[test]
fn four_by_four_grid_digest_is_pinned() {
    check(4, 4, 0x106b_f0b3_f9ac_3563);
}

#[test]
fn three_by_three_grid_digest_is_pinned() {
    check(3, 3, 0x8fe4_6b28_66d9_3c87);
}
