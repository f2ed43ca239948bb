//! The rules `bench_guard` holds a [`Snapshot`] to. Each compares cases of
//! one snapshot, so every baseline comes from the same run. The two
//! multi-core rules apply only when the snapshot's header says it was
//! measured on at least two cores, whatever host runs the check.

use crate::snapshot::Snapshot;

/// How much slower than its sequential baseline a parallel or asynchronous
/// run may be on any host: one core shows no speedup, but should show no loss.
pub const SLACK: f64 = 1.05;

/// `(group, a, op, factor, b, multi_core)`: case `a` of `group` must be
/// `op` (`<` or `<=`) `factor` times case `b`.
#[rustfmt::skip]
const RULES: [(&str, &str, &str, f64, &str, bool); 14] = [
    // The parallel Gcell runner and batched inference beat what they replace.
    ("legalize_full", "gcell_parallel2", "<", 1.0, "flat", false),
    ("network", "values_batched", "<", 1.0, "values_per_state", false),
    // More cells take more time, for both runners.
    ("legalize_scale", "flat/1k", "<", 1.0, "flat/10k", false),
    ("legalize_scale", "flat/10k", "<", 1.0, "flat/100k", false),
    ("legalize_scale", "parallel/1k", "<", 1.0, "parallel/10k", false),
    ("legalize_scale", "parallel/10k", "<", 1.0, "parallel/100k", false),
    // Parallel is never much slower than flat, and 2x faster on 2+ cores.
    ("legalize_scale", "parallel/1k", "<=", SLACK, "flat/1k", false),
    ("legalize_scale", "parallel/10k", "<=", SLACK, "flat/10k", false),
    ("legalize_scale", "parallel/100k", "<=", SLACK, "flat/100k", false),
    ("legalize_scale", "parallel/100k", "<=", 0.5, "flat/100k", true),
    // Global placement reduces overflow and beats the synthetic placement.
    ("gplace", "overflow_end/10k", "<", 1.0, "overflow_start/10k", false),
    ("legalize_from_gp", "hpwl_gp/10k", "<", 1.0, "hpwl_synthetic/10k", false),
    // Asynchronous training keeps up with the round-robin driver.
    ("train_throughput", "async2/10k", "<=", SLACK, "roundrobin2/10k", false),
    ("train_throughput", "async2/10k", "<=", 1.0, "roundrobin2/10k", true),
];

/// Outcome of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The rule holds.
    Pass,
    /// The rule is broken.
    Fail,
    /// A multi-core rule on a snapshot measured on one core.
    Skip,
}

/// One rule's verdict on a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// What the rule requires, e.g. `legalize_full gcell_parallel2 < 1x flat`.
    pub rule: String,
    /// Whether it held.
    pub status: Status,
    /// The values it compared.
    pub detail: String,
}

/// Judges `snap` by every rule and returns all verdicts, failing ones
/// included. A case some rule needs but `snap` lacks is an error, never a
/// pass.
pub fn check(snap: &Snapshot) -> Result<Vec<Verdict>, String> {
    let status = |multi_core: bool, pass: bool| match (multi_core && snap.header.nproc < 2, pass) {
        (true, _) => Status::Skip,
        (false, true) => Status::Pass,
        (false, false) => Status::Fail,
    };
    let mut verdicts = Vec::new();
    for (group, a, op, factor, b, multi_core) in RULES {
        let (x, y) = (snap.value(group, a)?, snap.value(group, b)?);
        let pass = x < factor * y || (op == "<=" && x == factor * y);
        verdicts.push(Verdict {
            rule: format!("{group} {a} {op} {factor}x {b}"),
            status: status(multi_core, pass),
            detail: format!("{:.3}x ({x} vs {y})", x / y),
        });
    }
    let failed = snap.value("legalize_from_gp", "failed_gp/10k")?;
    verdicts.push(Verdict {
        rule: "legalize_from_gp failed_gp/10k = 0".into(),
        status: status(false, failed == 0.0),
        detail: format!("{failed} cells"),
    });
    Ok(verdicts)
}
