//! Replays every committed corpus case through the pipeline.
//!
//! - `*.def` — must parse to `Ok` or `Err` without panicking (these pin the
//!   parser bugs fixed by the fuzz PR: inverted region rects, degenerate /
//!   overtall / overflowing masters, truncated sections, zero-row dies);
//! - `*.lef` — same contract for `Library::parse` (truncated UNITS/SITE
//!   sections used to hang, overtall macros used to truncate silently);
//! - `*.json` — minimized failing designs; the legalize, grid, and gplace
//!   oracles must hold on them at HEAD (`regress_gplace_fence_offdie`
//!   pins the placer writing fenced cells into an off-core fence rect,
//!   `regress_gplace_overwide_spread` pins the inverted-clamp panic on
//!   cells wider than the spreading grid); `regress_metrics_saturation`
//!   is exempt from the oracles and instead pins `Qor::measure` /
//!   `total_hpwl` saturating (not wrapping) on adversarial coordinates;
//! - `*.rlc` — damaged training checkpoints (torn write, body bit flip
//!   behind a valid header, version skew); `rl_legalizer::decode` must
//!   classify each one as the matching error, and a [`CheckpointStore`]
//!   containing one must fall back to the previous valid generation;
//! - `*.hex` — hostile serving-protocol byte streams (truncated headers,
//!   bad magic, CRC flips, declared-length overflows, trailing garbage);
//!   `decode_frame` must classify each as its pinned [`ProtoError`], and
//!   a byte-at-a-time [`FrameReader`] feed must never yield a frame;
//! - `*.params` — `ParamStore` contention cases (writer/reader counts,
//!   vector length, publish budget); the store invariants — untorn
//!   snapshots, epoch/stamp coherence, monotone epochs — must hold on
//!   each replay;
//! - `*.wal` — hex dumps of write-ahead-journal segments left behind by a
//!   kill (`wal_truncated_tail.wal` pins a final record torn mid-payload);
//!   recovery must succeed without error, discard only the torn tail, and
//!   be idempotent across a second open.

use std::path::PathBuf;

use rl_legalizer::{decode, CheckpointError, CheckpointStore};
use rlleg_design::def::parse_def;
use rlleg_design::lef::Library;
use rlleg_design::{Design, Technology};
use rlleg_fuzz::{
    oracle_gplace, oracle_grid, oracle_legalize, oracle_params, oracle_proto, scenario::Scenario,
};
use rlleg_serve::proto::{decode_frame, FrameReader, ProtoError, MAX_FRAME};

fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

fn corpus_files(ext: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|s| s.to_str()) == Some(ext))
        .collect();
    out.sort();
    out
}

#[test]
fn def_corpus_never_panics() {
    let files = corpus_files("def");
    assert!(!files.is_empty(), "no .def corpus cases committed");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        // Every historical DEF repro must stay a clean `Err` (or a valid
        // design) under both technologies — panicking here reintroduces
        // the original bug.
        for tech in [Technology::contest(), Technology::nangate45()] {
            let _ = parse_def(&text, tech);
        }
    }
}

#[test]
fn def_corpus_cases_are_rejected_not_accepted() {
    // The committed DEF cases all encode *invalid* inputs; the parser must
    // reject them (an `Ok` would mean the validation regressed to silently
    // accepting garbage).
    for path in corpus_files("def") {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        assert!(
            parse_def(&text, Technology::contest()).is_err(),
            "{} unexpectedly parsed",
            path.display()
        );
    }
}

#[test]
fn lef_corpus_never_panics_or_hangs() {
    let files = corpus_files("lef");
    assert!(!files.is_empty(), "no .lef corpus cases committed");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        assert!(
            Library::parse(&text).is_err(),
            "{} unexpectedly parsed",
            path.display()
        );
    }
}

#[test]
fn rlc_corpus_checkpoints_are_classified_not_accepted() {
    let files = corpus_files("rlc");
    assert!(!files.is_empty(), "no .rlc corpus cases committed");
    for path in files {
        let bytes = std::fs::read(&path).expect("readable corpus file");
        let err = decode(&bytes).expect_err("damaged checkpoint must not decode");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // Each committed case pins its specific failure classification: a
        // torn tail must read as truncation (not a CRC accident), a body
        // flip as a CRC mismatch, a future format as version skew.
        let ok = match name.as_str() {
            "ckpt_truncated.rlc" => matches!(err, CheckpointError::Truncated { .. }),
            "ckpt_bitflip_body.rlc" => matches!(err, CheckpointError::CrcMismatch { .. }),
            "ckpt_version_skew.rlc" => matches!(err, CheckpointError::VersionSkew { .. }),
            _ => true, // future cases: rejection alone is the contract
        };
        assert!(ok, "{name}: unexpected classification {err}");
    }
}

#[test]
fn rlc_corpus_never_defeats_generation_fallback() {
    // Plant each damaged corpus checkpoint as the *newest* generation on
    // top of one valid save: recovery must come back with the valid state.
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(3);
    let mut b = rlleg_design::DesignBuilder::new("corpus_ckpt", Technology::contest(), 20, 5);
    for i in 0..6i64 {
        b.add_cell(
            format!("c{i}"),
            1 + i % 2,
            1,
            rlleg_geom::Point::new(i * 400 + 60, 90),
        );
    }
    let designs = [b.build()];
    let cfg = rl_legalizer::RlConfig {
        hidden_dim: 8,
        agents: 1,
        episodes: 2,
        seed: rand::Rng::gen(&mut rng),
        ..rl_legalizer::RlConfig::default()
    };
    let mut t = rl_legalizer::Trainer::new(&designs, &cfg);
    t.run_episode();
    let saved = t.state();

    for path in corpus_files("rlc") {
        let dir = std::env::temp_dir().join(format!(
            "rlleg-corpus-rlc-{}-{}",
            std::process::id(),
            path.file_stem().unwrap().to_string_lossy()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 4).expect("store");
        store.save(&saved).expect("valid gen 1");
        std::fs::copy(&path, dir.join("ckpt-000002.rlc")).expect("plant corrupt gen 2");
        let (seq, recovered) = store
            .load_latest()
            .unwrap_or_else(|| panic!("{}: fallback lost all generations", path.display()));
        assert_eq!(seq, 1, "{}", path.display());
        assert_eq!(recovered, saved, "{}", path.display());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn hex_corpus_frames_are_classified_not_accepted() {
    let files = corpus_files("hex");
    assert!(!files.is_empty(), "no .hex corpus cases committed");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let bytes = oracle_proto::from_hex(&text)
            .unwrap_or_else(|| panic!("{} is not valid hex", path.display()));
        let err = decode_frame(&bytes, MAX_FRAME).expect_err("hostile bytes must not decode");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // Each committed case pins its classification: a cut header must
        // read as recoverable truncation, a payload flip as a CRC
        // mismatch, a 4 GiB declared length as Oversized (refused before
        // buffering), and structurally-broken payloads as Malformed.
        let ok = match name.as_str() {
            "proto_truncated_header.hex" => matches!(err, ProtoError::Truncated { .. }),
            "proto_bad_magic.hex" => matches!(err, ProtoError::BadMagic),
            "proto_unknown_type.hex" => matches!(err, ProtoError::UnknownType(0x7f)),
            "proto_crc_bitflip.hex" => matches!(err, ProtoError::CrcMismatch { .. }),
            "proto_len_overflow.hex" => matches!(err, ProtoError::Oversized { .. }),
            "proto_trailing_garbage.hex"
            | "proto_spec_version_skew.hex"
            | "proto_unknown_job_kind.hex" => {
                matches!(err, ProtoError::Malformed(_))
            }
            _ => true, // future cases: rejection alone is the contract
        };
        assert!(ok, "{name}: unexpected classification {err}");

        // Byte-at-a-time through the streaming reader: may starve or
        // error, must never produce a frame (or panic / spin).
        let mut reader = FrameReader::new();
        let mut poisoned = false;
        for b in &bytes {
            if poisoned {
                break;
            }
            reader.push(std::slice::from_ref(b));
            match reader.next_frame(MAX_FRAME) {
                Ok(Some(f)) => panic!("{name}: streamed a frame out of garbage: {f:?}"),
                Ok(None) => {}
                Err(_) => poisoned = true,
            }
        }
    }
}

#[test]
fn wal_corpus_segments_recover_without_error_and_idempotently() {
    let files = corpus_files("wal");
    assert!(!files.is_empty(), "no .wal corpus cases committed");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let bytes = oracle_proto::from_hex(&text)
            .unwrap_or_else(|| panic!("{} is not valid hex", path.display()));
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let dir = std::env::temp_dir().join(format!(
            "rlleg-corpus-wal-{}-{}",
            std::process::id(),
            path.file_stem().unwrap().to_string_lossy()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("corpus scratch dir");
        std::fs::write(dir.join("seg-000001.wal"), &bytes).expect("plant segment");
        let (wal, recovered, report) = rlleg_serve::wal::Wal::open(&dir, 1 << 20)
            .unwrap_or_else(|e| panic!("{name}: recovery must not error: {e}"));
        if name == "wal_truncated_tail.wal" {
            // The committed case ends in a record cut mid-payload: exactly
            // one torn tail, no corrupt records, and the complete prefix
            // replays.
            assert_eq!(report.torn_tail, 1, "{name}: torn tail not detected");
            assert_eq!(report.corrupt, 0, "{name}: clean prefix read as corrupt");
            assert!(report.records > 0, "{name}: complete records discarded");
        }
        drop(wal);
        let (_, recovered2, report2) = rlleg_serve::wal::Wal::open(&dir, 1 << 20)
            .unwrap_or_else(|e| panic!("{name}: second recovery must not error: {e}"));
        assert_eq!(
            recovered.len(),
            recovered2.len(),
            "{name}: recovery is not idempotent"
        );
        assert_eq!(report2.torn_tail, 0, "{name}: compaction left a torn tail");
        assert_eq!(report2.corrupt, 0, "{name}: compaction left corruption");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn params_corpus_cases_hold_the_store_invariants() {
    let files = corpus_files("params");
    assert!(!files.is_empty(), "no .params corpus cases committed");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let failures = oracle_params::replay(&text);
        assert!(
            failures.is_empty(),
            "{}: {:?}",
            path.display(),
            failures
                .iter()
                .map(|f| f.message.clone())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn json_corpus_designs_hold_all_oracles() {
    for path in corpus_files("json") {
        // The saturation case deliberately carries near-i64::MAX positions
        // that no placement/legalization oracle is specified over; it is
        // replayed by `json_metrics_saturation_case_saturates` instead.
        if path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("regress_metrics"))
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let design = Design::from_json(&text)
            .unwrap_or_else(|e| panic!("{} is not a design: {e}", path.display()));
        let sc = Scenario {
            label: format!("corpus:{}", path.display()),
            design,
        };
        for seed in [1u64, 2] {
            let mut failures = oracle_legalize::check(&sc, seed);
            failures.extend(oracle_grid::check(&sc, seed));
            failures.extend(oracle_gplace::check(&sc, seed));
            assert!(
                failures.is_empty(),
                "{}: {:?}",
                path.display(),
                failures
                    .iter()
                    .map(|f| f.message.clone())
                    .collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn json_metrics_saturation_case_saturates() {
    telemetry::enable();
    let path = corpus_dir().join("regress_metrics_saturation.json");
    let text = std::fs::read_to_string(&path).expect("committed saturation case");
    let design = Design::from_json(&text).expect("saturation case is a design");
    // Spans between the near-extreme cells overflow i64; the metrics must
    // clamp to the Dbu extremes (wrapping here used to flip HPWL negative)
    // and count the event.
    let before = saturation_count();
    let total = rlleg_design::metrics::total_hpwl(&design);
    assert_eq!(total, i64::MAX, "overflowing HPWL must saturate");
    let qor = rlleg_design::metrics::Qor::measure(&design);
    assert!(qor.hpwl >= 0 && qor.total_displacement >= 0 && qor.max_displacement >= 0);
    assert!(
        saturation_count() > before,
        "saturation must be counted in telemetry"
    );
}

fn saturation_count() -> u64 {
    telemetry::snapshot()
        .counters
        .get("design.metrics_saturated")
        .copied()
        .unwrap_or(0)
}
