//! The criterion shim's JSON export must be valid JSON for every case it
//! records, including the zero-valued QoR scalars that `record_value`
//! stores (a failed-cell count of 0, for one) next to timed cases.

use criterion::{record_value, Criterion};
use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Snapshot {
    cases: Vec<Case>,
}

#[derive(Debug, Deserialize)]
struct Case {
    group: String,
    id: String,
    mean_ns: f64,
}

#[test]
fn export_of_a_timed_case_and_a_zero_scalar_parses() {
    let mut c = Criterion::default();
    let mut group = c.benchmark_group("export");
    group.sample_size(2);
    group.bench_function("timed", |b| b.iter(|| std::hint::black_box(1 + 1)));
    group.finish();
    record_value("export", "zero", 0.0);

    let path = std::env::temp_dir().join(format!("rlleg-export-{}.json", std::process::id()));
    criterion::export_json(path.to_str().expect("utf-8 temp path")).expect("export");
    let text = std::fs::read_to_string(&path).expect("read export");
    let _ = std::fs::remove_file(&path);

    let snap: Snapshot = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("export is not valid JSON ({e:?}):\n{text}"));
    assert_eq!(snap.cases.len(), 2, "{text}");
    let timed = &snap.cases[0];
    assert_eq!(
        (timed.group.as_str(), timed.id.as_str()),
        ("export", "timed")
    );
    assert!(timed.mean_ns >= 0.0);
    let zero = &snap.cases[1];
    assert_eq!((zero.group.as_str(), zero.id.as_str()), ("export", "zero"));
    assert_eq!(zero.mean_ns, 0.0);
}

/// The committed snapshot at the repository root parses as well.
#[test]
fn committed_bench_legalize_snapshot_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_legalize.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_legalize.json");
    let snap: Snapshot = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("BENCH_legalize.json is not valid JSON: {e:?}"));
    assert!(!snap.cases.is_empty());
}
