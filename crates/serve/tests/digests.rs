//! Pinned bytes of the two framed codecs: wire frames and journal records.
//!
//! Each case hashes bytes the codecs write with FNV-1a and compares the
//! digest with a constant recorded before the frame header, the payload
//! writer and the journal's record encoder were shared between `proto` and
//! `wal`. A change to any of them that moves a single byte of a frame, of a
//! journal segment or of a compacted segment changes a digest.
//!
//! The journal cases drive one fixed append sequence that writes all seven
//! record types, then compact it with `rotate(true)` and by reopening the
//! directory: both compactions restate the same live set, so they must
//! write the same bytes.

use std::path::PathBuf;

use rlleg_serve::job::JobOutcome;
use rlleg_serve::proto::{encode_frame, reject, Frame, JobKind, JobSpec};
use rlleg_serve::wal::Wal;

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Train,
        tech: 1,
        ordering: 2,
        threads: 3,
        flags: 1,
        hidden: 24,
        episodes: 5,
        seed: 0x0123_4567_89ab_cdef,
        max_steps: 1_000,
        max_wall_ms: 2_500,
        job_key: 77,
        deadline_ms: 60_000,
        max_retries: 2,
        lef: "MACRO MH_1 ; END MH_1".into(),
        def: "DESIGN pinned ; COMPONENTS 1 ; - c0 MH_1 + PLACED ( 10 20 ) N ; END".into(),
    }
}

fn outcome(def: &str) -> JobOutcome {
    JobOutcome {
        ok: true,
        def: def.into(),
        stats: "{\"legalized\":3,\"avg_disp\":1.5}".into(),
    }
}

fn check(name: &str, bytes: &[u8], expected: u64) {
    let got = fnv(bytes);
    assert_eq!(
        got,
        expected,
        "{name}: digest {got:#018x} over {} bytes, pinned {expected:#018x}",
        bytes.len()
    );
}

#[test]
fn every_frame_encodes_to_its_pinned_bytes() {
    let cases = [
        ("submit", Frame::Submit(spec()), 0x14e2_582f_fe12_b62c),
        ("query", Frame::Query(9), 0x9fd6_a3e0_c170_2978),
        ("cancel", Frame::Cancel(10), 0x46cd_af76_4cb5_4443),
        ("ping", Frame::Ping, 0x06aa_1cac_6262_ce5a),
        ("shutdown", Frame::Shutdown, 0x9a14_7209_f6fd_c46d),
        (
            "accepted",
            Frame::Accepted { job: 3 },
            0xe500_237d_8269_fc50,
        ),
        (
            "rejected",
            Frame::Rejected {
                code: reject::SHED,
                reason: "overloaded, shedding: retry_after_ms=40".into(),
            },
            0x17db_29bf_de0e_63fc,
        ),
        (
            "progress",
            Frame::Progress {
                job: 3,
                chunk: "{\"kind\":\"job.start\"}\n".into(),
            },
            0x1336_65aa_cca3_426c,
        ),
        (
            "result",
            Frame::Result {
                job: 3,
                ok: true,
                def: "DESIGN out ; END".into(),
                stats: "{\"legalized\":5}".into(),
            },
            0xba57_5b74_5127_8e44,
        ),
        (
            "error",
            Frame::Error {
                message: "unexpected server-role frame".into(),
            },
            0x2874_fbf8_6016_5bdc,
        ),
        ("pong", Frame::Pong, 0x9500_20bb_86a7_ebb4),
        (
            "status",
            Frame::Status { job: 3, state: 2 },
            0xea81_a08b_3b76_adca,
        ),
    ];
    for (name, frame, expected) in cases {
        check(name, &encode_frame(&frame), expected);
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlleg-serve-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn journal_segments_write_their_pinned_bytes() {
    let dir = temp_dir();
    let (wal, recovered, _) = Wal::open(&dir, 1 << 20).expect("open");
    assert!(recovered.is_empty());
    let base = 1_700_000_000_000u64;
    for id in 1..=5 {
        let s = JobSpec { seed: id, ..spec() };
        wal.append_accepted(id, base + id, &s).expect("accept");
    }
    wal.append_running(1, 1);
    wal.append_requeued(1, 2);
    wal.append_running(1, 3);
    wal.append_done(1, &outcome("DESIGN out1 ; END"));
    wal.append_running(2, 1);
    wal.append_failed(2, "deadline exceeded");
    wal.append_cancelled(3);
    wal.append_running(4, 1);
    wal.append_done(4, &outcome("DESIGN out4 ; END"));
    wal.append_delivered(4);
    wal.append_running(5, 1);
    let live = std::fs::read(wal.current_segment_path()).expect("live segment");
    check("live segment", &live, 0xd8bb_a05b_b775_815d);

    // Live after compaction: job 1 (DONE), job 2 (FAILED), job 5 (running,
    // spec kept); 3 was cancelled and 4 delivered.
    wal.rotate(true).expect("rotate");
    let compacted = std::fs::read(wal.current_segment_path()).expect("compacted segment");
    check("compacted segment", &compacted, 0xd464_cef8_c8d4_5b83);
    drop(wal);

    let (wal, recovered, report) = Wal::open(&dir, 1 << 20).expect("reopen");
    assert_eq!(recovered.len(), 3);
    assert_eq!((report.torn_tail, report.corrupt), (0, 0));
    let reopened = std::fs::read(wal.current_segment_path()).expect("reopened segment");
    assert_eq!(
        reopened, compacted,
        "reopening compacts to the bytes rotate wrote"
    );
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
