//! What counts as a failed op, per workload.
//!
//! - legalize and flow: a failed cell, a quarantined Gcell, or any
//!   violation of `legality::check(.., true)`;
//! - rl: a failed cell, a degraded run, or any violation;
//! - serve: the job was rejected after the client's bounded backoff,
//!   timed out, returned `ok = false`, or its sampled result DEF did not
//!   parse legal (or, for `Legalize`, did not reproduce its payload's QoR).

use rl_legalizer::InferenceReport;
use rlleg_design::{legality, Design};
use rlleg_legalize::RunStats;

/// Why an op failed; `None` from the classifiers means it verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpFailure {
    /// Cells the legalizer could not place.
    FailedCells(usize),
    /// Gcells whose parallel solve panicked and was contained.
    Quarantined(usize),
    /// Placement-rule violations in the output.
    Violations(usize),
    /// The RL run fell back to the size order partway.
    Degraded(String),
    /// The server refused the job even after backoff.
    Rejected(u16),
    /// No answer within the client's deadline.
    TimedOut,
    /// The server answered `ok = false`.
    NotOk(String),
    /// The result DEF did not parse.
    Unparsable(String),
    /// The result DEF does not hold the submitted cells in order.
    Mismatched,
    /// The QoR of a repeated op differs from its first run.
    NotReproducible,
}

impl std::fmt::Display for OpFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpFailure::FailedCells(n) => write!(f, "{n} cells failed"),
            OpFailure::Quarantined(n) => write!(f, "{n} gcells quarantined"),
            OpFailure::Violations(n) => write!(f, "{n} legality violations"),
            OpFailure::Degraded(why) => write!(f, "degraded: {why}"),
            OpFailure::Rejected(code) => write!(f, "rejected with code {code}"),
            OpFailure::TimedOut => write!(f, "timed out"),
            OpFailure::NotOk(stats) => write!(f, "server reported failure: {stats}"),
            OpFailure::Unparsable(e) => write!(f, "result DEF does not parse: {e}"),
            OpFailure::Mismatched => write!(f, "result DEF does not hold the submitted cells"),
            OpFailure::NotReproducible => write!(f, "QoR differs from the first run"),
        }
    }
}

/// Violations of every placement rule, committed flags included.
pub fn violations(design: &Design) -> usize {
    legality::check(design, true).len()
}

/// Classifies a heuristic legalization run.
pub fn classify_legalize(stats: &RunStats, violations: usize) -> Option<OpFailure> {
    if !stats.failed.is_empty() {
        Some(OpFailure::FailedCells(stats.failed.len()))
    } else if !stats.quarantined.is_empty() {
        Some(OpFailure::Quarantined(stats.quarantined.len()))
    } else if violations > 0 {
        Some(OpFailure::Violations(violations))
    } else {
        None
    }
}

/// Classifies an RL-ordered inference run.
pub fn classify_rl(report: &InferenceReport, violations: usize) -> Option<OpFailure> {
    if !report.failed.is_empty() {
        Some(OpFailure::FailedCells(report.failed.len()))
    } else if let Some(reason) = report.degraded {
        Some(OpFailure::Degraded(format!("{reason:?}")))
    } else if violations > 0 {
        Some(OpFailure::Violations(violations))
    } else {
        None
    }
}

/// How a served job ended, as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEnd {
    /// A RESULT frame arrived.
    Result {
        /// The server's verdict.
        ok: bool,
        /// The server's stats JSON.
        stats: String,
    },
    /// Still refused after the bounded backoff.
    Rejected(u16),
    /// Nothing arrived before the deadline.
    TimedOut,
}

/// Classifies a served job; `def_check` is the outcome of parsing and
/// checking the result DEF when this job was sampled for it (`Ok(n)`
/// carries the violation count).
pub fn classify_job(end: &JobEnd, def_check: Option<Result<usize, String>>) -> Option<OpFailure> {
    match end {
        JobEnd::Rejected(code) => Some(OpFailure::Rejected(*code)),
        JobEnd::TimedOut => Some(OpFailure::TimedOut),
        JobEnd::Result { ok: false, stats } => Some(OpFailure::NotOk(stats.clone())),
        JobEnd::Result { ok: true, .. } => match def_check {
            Some(Err(e)) => Some(OpFailure::Unparsable(e)),
            Some(Ok(n)) if n > 0 => Some(OpFailure::Violations(n)),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_legalizer::DegradeReason;
    use rlleg_design::CellId;
    use std::time::Duration;

    #[test]
    fn legalize_failures() {
        let clean = RunStats {
            legalized: 10,
            ..RunStats::default()
        };
        assert_eq!(classify_legalize(&clean, 0), None);
        let failed = RunStats {
            failed: vec![CellId(3)],
            ..clean.clone()
        };
        assert_eq!(
            classify_legalize(&failed, 0),
            Some(OpFailure::FailedCells(1))
        );
        let quarantined = RunStats {
            quarantined: vec![0, 4],
            ..clean.clone()
        };
        assert_eq!(
            classify_legalize(&quarantined, 0),
            Some(OpFailure::Quarantined(2))
        );
        assert_eq!(classify_legalize(&clean, 5), Some(OpFailure::Violations(5)));
    }

    fn report() -> InferenceReport {
        InferenceReport {
            legalized: 10,
            failed: Vec::new(),
            degraded: None,
            degraded_cells: 0,
            total_time: Duration::from_millis(5),
            feature_time: Duration::from_millis(2),
            network_time: Duration::from_millis(1),
        }
    }

    #[test]
    fn rl_failures() {
        assert_eq!(classify_rl(&report(), 0), None);
        let degraded = InferenceReport {
            degraded: Some(DegradeReason::WallClock),
            degraded_cells: 4,
            ..report()
        };
        assert_eq!(
            classify_rl(&degraded, 0),
            Some(OpFailure::Degraded("WallClock".into()))
        );
        let failed = InferenceReport {
            failed: vec![CellId(1), CellId(2)],
            ..report()
        };
        assert_eq!(classify_rl(&failed, 0), Some(OpFailure::FailedCells(2)));
        assert_eq!(classify_rl(&report(), 1), Some(OpFailure::Violations(1)));
    }

    #[test]
    fn served_job_failures() {
        let ok = JobEnd::Result {
            ok: true,
            stats: "{}".into(),
        };
        assert_eq!(classify_job(&ok, None), None);
        assert_eq!(classify_job(&ok, Some(Ok(0))), None);
        assert_eq!(
            classify_job(&ok, Some(Ok(2))),
            Some(OpFailure::Violations(2))
        );
        assert!(matches!(
            classify_job(&ok, Some(Err("line 3".into()))),
            Some(OpFailure::Unparsable(_))
        ));
        assert_eq!(
            classify_job(&JobEnd::Rejected(1), None),
            Some(OpFailure::Rejected(1))
        );
        assert_eq!(
            classify_job(&JobEnd::TimedOut, None),
            Some(OpFailure::TimedOut)
        );
        let not_ok = JobEnd::Result {
            ok: false,
            stats: "{\"legal\":false}".into(),
        };
        assert!(matches!(
            classify_job(&not_ok, Some(Ok(0))),
            Some(OpFailure::NotOk(_))
        ));
    }
}
