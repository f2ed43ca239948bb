//! Worker-thread counts.
//!
//! The workspace parallelises in two places, the per-Gcell solves of
//! [`Legalizer::run_gcells_parallel`](crate::Legalizer::run_gcells_parallel)
//! and the agents of `rl_legalizer::train`, and both start
//! `std::thread::scope` threads per call. This module only decides how
//! many: every "0 = default" thread knob resolves through
//! [`default_threads`].

/// Does nothing: no call keeps worker threads between calls, so there is
/// nothing to start ahead of time. Kept for the benchmark's warm-up step,
/// which still calls it.
pub fn with_workers(_n: usize) {}

/// Resolves a `RLLEG_THREADS`-style override string: a positive integer
/// wins, everything else (absent, empty, zero, garbage) falls back to the
/// machine's available parallelism. Factored out of [`default_threads`] so
/// the parsing is testable without mutating process environment.
pub fn threads_override(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The worker-thread count every "0 = default" knob in the workspace
/// resolves to: the `RLLEG_THREADS` environment variable when set to a
/// positive integer, otherwise the machine's available parallelism.
/// Results are bit-identical for any thread count — this only tunes
/// latency versus interference on shared hosts.
pub fn default_threads() -> usize {
    threads_override(std::env::var("RLLEG_THREADS").ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_override_parses_positive_integers_only() {
        let fallback = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(threads_override(Some("3")), 3);
        assert_eq!(threads_override(Some(" 8 ")), 8, "whitespace is trimmed");
        assert_eq!(threads_override(None), fallback, "unset falls back");
        assert_eq!(threads_override(Some("")), fallback, "empty falls back");
        assert_eq!(threads_override(Some("0")), fallback, "zero falls back");
        assert_eq!(threads_override(Some("-2")), fallback);
        assert_eq!(threads_override(Some("lots")), fallback);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
