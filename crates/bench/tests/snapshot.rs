//! The typed bench snapshot and the `bench_guard` rules: a synthetic
//! snapshot passes every rule, each one-case mutation fails exactly the
//! rule it targets, the multi-core rules follow the header's `nproc`, a
//! missing case is an error, and non-finite values never get in.

use std::process::Command;

use criterion::Criterion;
use rlleg_bench::guard::{check, Status};
use rlleg_bench::snapshot::{Header, Kind, Snapshot};

/// Every case a rule reads, with values that pass every rule.
const CASES: &[(&str, &str, f64)] = &[
    ("legalize_full", "flat", 1_000.0),
    ("legalize_full", "gcell_parallel2", 800.0),
    ("network", "values_batched", 300.0),
    ("network", "values_per_state", 700.0),
    ("legalize_scale", "flat/1k", 100.0),
    ("legalize_scale", "flat/10k", 1_000.0),
    ("legalize_scale", "flat/100k", 10_000.0),
    ("legalize_scale", "parallel/1k", 50.0),
    ("legalize_scale", "parallel/10k", 500.0),
    ("legalize_scale", "parallel/100k", 4_000.0),
    ("gplace", "overflow_start/10k", 0.2),
    ("gplace", "overflow_end/10k", 0.1),
    ("legalize_from_gp", "failed_gp/10k", 0.0),
    ("legalize_from_gp", "hpwl_gp/10k", 900.0),
    ("legalize_from_gp", "hpwl_synthetic/10k", 1_000.0),
    ("train_throughput", "async2/10k", 90.0),
    ("train_throughput", "roundrobin2/10k", 100.0),
];

fn header(nproc: usize) -> Header {
    Header {
        nproc,
        threads: nproc,
        git_revision: "0000000".into(),
        profile: "release".into(),
    }
}

/// The passing snapshot measured on `nproc` cores, with `changes` applied
/// and the case `drop` left out.
fn synthetic(nproc: usize, changes: &[(&str, &str, f64)], drop: Option<(&str, &str)>) -> Snapshot {
    let mut snap = Snapshot::new(header(nproc));
    for &(group, id, value) in CASES {
        if drop == Some((group, id)) {
            continue;
        }
        let value = changes
            .iter()
            .find(|c| (c.0, c.1) == (group, id))
            .map_or(value, |c| c.2);
        let qor = ["overflow", "failed", "hpwl"]
            .iter()
            .any(|p| id.starts_with(p));
        let kind = if qor { Kind::Qor } else { Kind::Time };
        snap.record(group, id, kind, value, "unit").expect("finite");
    }
    snap
}

/// The rules `snap` fails.
fn failures(snap: &Snapshot) -> Vec<String> {
    check(snap)
        .expect("every case present")
        .into_iter()
        .filter(|v| v.status == Status::Fail)
        .map(|v| v.rule)
        .collect()
}

#[test]
fn synthetic_snapshot_passes_every_rule() {
    let verdicts = check(&synthetic(2, &[], None)).expect("every case present");
    assert_eq!(verdicts.len(), 15);
    for v in &verdicts {
        assert_eq!(v.status, Status::Pass, "{v:?}");
    }
}

#[test]
fn each_mutation_fails_only_its_rule() {
    let mutations: &[(usize, (&str, &str, f64), &str)] = &[
        (
            2,
            ("legalize_full", "gcell_parallel2", 1_000.0),
            "legalize_full gcell_parallel2 < 1x flat",
        ),
        (
            2,
            ("network", "values_batched", 700.0),
            "network values_batched < 1x values_per_state",
        ),
        (
            2,
            ("legalize_scale", "flat/1k", 1_000.0),
            "legalize_scale flat/1k < 1x flat/10k",
        ),
        (
            2,
            ("legalize_scale", "flat/10k", 20_000.0),
            "legalize_scale flat/10k < 1x flat/100k",
        ),
        (
            2,
            ("legalize_scale", "parallel/10k", 50.0),
            "legalize_scale parallel/1k < 1x parallel/10k",
        ),
        (
            2,
            ("legalize_scale", "parallel/100k", 500.0),
            "legalize_scale parallel/10k < 1x parallel/100k",
        ),
        (
            2,
            ("legalize_scale", "parallel/1k", 106.0),
            "legalize_scale parallel/1k <= 1.05x flat/1k",
        ),
        (
            2,
            ("legalize_scale", "parallel/10k", 1_060.0),
            "legalize_scale parallel/10k <= 1.05x flat/10k",
        ),
        (
            1,
            ("legalize_scale", "parallel/100k", 10_600.0),
            "legalize_scale parallel/100k <= 1.05x flat/100k",
        ),
        (
            2,
            ("legalize_scale", "parallel/100k", 10_000.0 / 1.5),
            "legalize_scale parallel/100k <= 0.5x flat/100k",
        ),
        (
            2,
            ("gplace", "overflow_end/10k", 0.2),
            "gplace overflow_end/10k < 1x overflow_start/10k",
        ),
        (
            2,
            ("legalize_from_gp", "failed_gp/10k", 1.0),
            "legalize_from_gp failed_gp/10k = 0",
        ),
        (
            2,
            ("legalize_from_gp", "hpwl_gp/10k", 1_000.0),
            "legalize_from_gp hpwl_gp/10k < 1x hpwl_synthetic/10k",
        ),
        (
            1,
            ("train_throughput", "async2/10k", 106.0),
            "train_throughput async2/10k <= 1.05x roundrobin2/10k",
        ),
        (
            2,
            ("train_throughput", "async2/10k", 102.0),
            "train_throughput async2/10k <= 1x roundrobin2/10k",
        ),
    ];
    let mut targeted: Vec<&str> = mutations.iter().map(|m| m.2).collect();
    for &(nproc, change, rule) in mutations {
        let snap = synthetic(nproc, &[change], None);
        assert_eq!(
            failures(&snap),
            [rule],
            "mutation {change:?} at nproc {nproc}"
        );
    }
    targeted.sort_unstable();
    let mut rules: Vec<String> = check(&synthetic(2, &[], None))
        .expect("every case present")
        .into_iter()
        .map(|v| v.rule)
        .collect();
    rules.sort_unstable();
    assert_eq!(targeted, rules, "one mutation per rule");
}

#[test]
fn multi_core_rules_follow_the_header_nproc() {
    let cases = [
        (
            ("legalize_scale", "parallel/100k", 10_000.0 / 1.5),
            "legalize_scale parallel/100k <= 0.5x flat/100k",
        ),
        (
            ("train_throughput", "async2/10k", 102.0),
            "train_throughput async2/10k <= 1x roundrobin2/10k",
        ),
    ];
    for (change, rule) in cases {
        let one_core = check(&synthetic(1, &[change], None)).expect("every case present");
        let gated = one_core.iter().find(|v| v.rule == rule).expect("rule");
        assert_eq!(gated.status, Status::Skip);
        assert!(failures(&synthetic(1, &[change], None)).is_empty());
        assert_eq!(failures(&synthetic(2, &[change], None)), [rule]);
    }
}

#[test]
fn a_missing_case_is_an_error_not_a_pass() {
    for &(group, id, _) in CASES {
        let snap = synthetic(2, &[], Some((group, id)));
        assert_eq!(check(&snap), Err(format!("case {group}/{id} is missing")));
    }
}

#[test]
fn non_finite_values_are_refused_when_recorded_and_read() {
    let mut snap = Snapshot::new(header(1));
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let refused = snap.record("gplace", "overflow_end/10k", Kind::Qor, value, "fraction");
        assert!(refused.is_err(), "{value}");
    }
    assert!(snap.value("gplace", "overflow_end/10k").is_err());

    // The JSON shim writes a non-finite float as `null`; reading one back
    // is refused the same way.
    snap.record("gplace", "overflow_end/10k", Kind::Qor, 0.5, "fraction")
        .expect("finite");
    let path = std::env::temp_dir().join(format!("rlleg-snapshot-nan-{}.json", std::process::id()));
    let text = serde_json::to_string(&snap).expect("serialize");
    std::fs::write(&path, text.replace("0.5", "null")).expect("write");
    let read = Snapshot::read(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        read,
        Err("case gplace/overflow_end/10k is not finite (NaN)".into())
    );
}

#[test]
fn a_timed_case_and_a_zero_qor_record_parse_back() {
    let mut c = Criterion::default();
    let mut group = c.benchmark_group("export");
    group.sample_size(2);
    group.bench_function("timed", |b| b.iter(|| std::hint::black_box(1 + 1)));
    group.finish();
    let mut snap = Snapshot::new(Header::current());
    for r in criterion::records() {
        snap.record(&r.group, &r.id, Kind::Time, r.mean_ns, "ns")
            .expect("finite");
    }
    snap.record("export", "zero", Kind::Qor, 0.0, "cells")
        .expect("finite");

    let path = std::env::temp_dir().join(format!("rlleg-snapshot-{}.json", std::process::id()));
    snap.write(&path).expect("write");
    let back = Snapshot::read(&path);
    let _ = std::fs::remove_file(&path);
    let back = back.expect("parse back");
    assert_eq!(back, snap);
    assert_eq!(back.value("export", "zero"), Ok(0.0));
}

/// The committed snapshot at the repository root reads into the typed
/// `Snapshot` and holds every case a rule needs.
#[test]
fn committed_bench_legalize_snapshot_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_legalize.json");
    let snap = Snapshot::read(path).unwrap_or_else(|e| panic!("{e}"));
    assert!(snap.header.nproc >= 1);
    check(&snap).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn bench_guard_exit_code_follows_the_verdict() {
    let dir = std::env::temp_dir().join(format!("rlleg-bench-guard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str, snap: Option<Snapshot>| {
        let path = dir.join(name);
        if let Some(snap) = snap {
            snap.write(&path).expect("write");
        }
        Command::new(env!("CARGO_BIN_EXE_bench_guard"))
            .arg(&path)
            .output()
            .expect("run bench_guard")
            .status
            .code()
    };
    let pass = synthetic(2, &[], None);
    let fail = synthetic(2, &[("legalize_full", "gcell_parallel2", 1_000.0)], None);
    let missing = synthetic(2, &[], Some(("network", "values_batched")));
    let codes = [
        run("pass.json", Some(pass)),
        run("fail.json", Some(fail)),
        run("missing.json", Some(missing)),
        run("absent.json", None),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(codes, [Some(0), Some(1), Some(2), Some(2)]);
}
