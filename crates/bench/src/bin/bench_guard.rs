//! `bench_guard [path]`: checks a `BENCH_legalize.json` snapshot (by
//! default the one at the repository root) against `rlleg_bench::guard`
//! and prints every verdict. Exits 0 when every rule holds, 1 when any
//! fails, and 2 when the file cannot be read or lacks a case a rule needs.

use std::process::ExitCode;

use rlleg_bench::guard::{check, Status};
use rlleg_bench::snapshot::Snapshot;

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_legalize.json").to_owned()
    });
    let checked = Snapshot::read(&path).and_then(|snap| check(&snap).map(|v| (snap, v)));
    let (snap, verdicts) = match checked {
        Ok(checked) => checked,
        Err(e) => {
            eprintln!("bench_guard: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("bench_guard: {path}: {:?}", snap.header);
    for v in &verdicts {
        println!("bench_guard: {:?} {}: {}", v.status, v.rule, v.detail);
    }
    let failed = verdicts.iter().filter(|v| v.status == Status::Fail).count();
    if failed > 0 {
        eprintln!("bench_guard: {failed} of {} rules failed", verdicts.len());
        return ExitCode::from(1);
    }
    println!("bench_guard: OK");
    ExitCode::SUCCESS
}
