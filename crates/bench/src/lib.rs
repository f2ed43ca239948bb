//! Shared harness code for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index); this library holds what they
//! share: baseline runners, result rows, normalized averages, the tiny
//! CLI-flag parser, JSON report output, and the typed bench [`snapshot`]
//! with the rules the `bench_guard` binary checks it against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod guard;
pub mod snapshot;

use std::time::Instant;

use serde::{Deserialize, Serialize};

use rlleg_design::metrics::{legalization_cost, total_hpwl, Qor};
use rlleg_design::Design;
use rlleg_legalize::{GcellGrid, Legalizer, Ordering};

/// Result of one legalizer run on one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Average displacement (dbu).
    pub avg_disp: f64,
    /// Maximum displacement (dbu).
    pub max_disp: i64,
    /// Median displacement (dbu), estimated from the telemetry displacement
    /// histogram buckets.
    pub disp_p50: f64,
    /// 95th-percentile displacement (dbu), same estimate.
    pub disp_p95: f64,
    /// Total HPWL (dbu).
    pub hpwl: i64,
    /// Cells that could not be legalized.
    pub failed: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Combined legalization cost (lower is better; failures dominate).
    pub cost: f64,
}

impl RunResult {
    /// Builds a result from a design's current state.
    pub fn measure(design: &Design, hpwl_at_gp: i64, seconds: f64) -> Self {
        let q = Qor::measure(design);
        Self {
            avg_disp: q.avg_displacement,
            max_disp: q.max_displacement,
            disp_p50: q.disp_p50,
            disp_p95: q.disp_p95,
            hpwl: q.hpwl,
            failed: q.unplaced,
            seconds,
            cost: legalization_cost(design, hpwl_at_gp),
        }
    }

    /// Builds a result directly from a recorded QoR (e.g. a training
    /// episode's best sample).
    pub fn from_qor(q: &Qor, cost: f64, seconds: f64) -> Self {
        Self {
            avg_disp: q.avg_displacement,
            max_disp: q.max_displacement,
            disp_p50: q.disp_p50,
            disp_p95: q.disp_p95,
            hpwl: q.hpwl,
            failed: q.unplaced,
            seconds,
            cost,
        }
    }
}

/// Runs the size-ordered baseline (\[26\]): size-descending order plus the
/// cell-swap and rearrangement heuristics.
pub fn run_size_ordered(design: &Design, heuristics: bool) -> (Design, RunResult) {
    let hpwl_gp = total_hpwl(design);
    let mut d = design.clone();
    let t = Instant::now();
    let mut lg = Legalizer::new(&d);
    lg.run(&mut d, &Ordering::SizeDescending);
    if heuristics {
        lg.swap_pass(&mut d);
        lg.rearrange_pass(&mut d);
    }
    let r = RunResult::measure(&d, hpwl_gp, t.elapsed().as_secs_f64());
    (d, r)
}

/// Runs the Gcell-partitioned size-ordered baseline (\[26\]+G).
///
/// `grid` overrides the automatic partition (used by the table benches to
/// apply the paper's full-size grid to scaled designs).
pub fn run_size_ordered_gcells(
    design: &Design,
    heuristics: bool,
    grid: Option<(usize, usize)>,
) -> (Design, RunResult) {
    let hpwl_gp = total_hpwl(design);
    let mut d = design.clone();
    let t = Instant::now();
    let gcells = match grid {
        Some((nx, ny)) => GcellGrid::new(&d, nx, ny),
        None => GcellGrid::auto(&d),
    };
    let mut lg = Legalizer::new(&d);
    lg.run_gcells(&mut d, &Ordering::SizeDescending, &gcells);
    if heuristics {
        lg.swap_pass(&mut d);
        lg.rearrange_pass(&mut d);
    }
    let r = RunResult::measure(&d, hpwl_gp, t.elapsed().as_secs_f64());
    (d, r)
}

/// Runs the Gcell-partitioned baseline through the parallel per-Gcell
/// solver (`threads == 0` uses all available cores; the result is
/// bit-identical to the sequential fallback for any thread count).
pub fn run_size_ordered_gcells_parallel(
    design: &Design,
    heuristics: bool,
    grid: Option<(usize, usize)>,
    threads: usize,
) -> (Design, RunResult) {
    let hpwl_gp = total_hpwl(design);
    let mut d = design.clone();
    let t = Instant::now();
    let gcells = match grid {
        Some((nx, ny)) => GcellGrid::new(&d, nx, ny),
        None => GcellGrid::auto(&d),
    };
    let mut lg = Legalizer::new(&d);
    lg.run_gcells_parallel(&mut d, &Ordering::SizeDescending, &gcells, threads);
    if heuristics {
        lg.swap_pass(&mut d);
        lg.rearrange_pass(&mut d);
    }
    let r = RunResult::measure(&d, hpwl_gp, t.elapsed().as_secs_f64());
    (d, r)
}

/// Runs a random-ordered legalization (Fig. 1's experiment).
pub fn run_random_ordered(design: &Design, seed: u64) -> RunResult {
    let hpwl_gp = total_hpwl(design);
    let mut d = design.clone();
    let t = Instant::now();
    let mut lg = Legalizer::new(&d);
    lg.run(&mut d, &Ordering::Random(seed));
    RunResult::measure(&d, hpwl_gp, t.elapsed().as_secs_f64())
}

/// Geometric-mean-free normalized averages as the paper's "Norm avg." row:
/// each metric is normalized per design by the "Ours" value, then averaged
/// over designs (designs where the baseline failed are excluded, as the
/// paper's footnote prescribes).
pub fn normalized_average(
    ours: &[RunResult],
    other: &[RunResult],
    metric: impl Fn(&RunResult) -> f64,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (o, x) in ours.iter().zip(other) {
        if x.failed > 0 || o.failed > 0 {
            continue;
        }
        let denom = metric(o);
        if denom > 0.0 {
            sum += metric(x) / denom;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Simple moving-average smoothing for learning curves ("a data smoothing
/// method is used" — Fig. 5/6).
pub fn smooth(series: &[f64], window: usize) -> Vec<f64> {
    if series.is_empty() {
        return Vec::new();
    }
    let w = window.max(1);
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(w - 1);
            let s: f64 = series[lo..=i].iter().sum();
            s / (i - lo + 1) as f64
        })
        .collect()
}

/// An ASCII sparkline of a series (for terminal-rendered "figures").
pub fn sparkline(series: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in series {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    let span = (hi - lo).max(1e-12);
    series
        .iter()
        .map(|&v| TICKS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

/// Minimal `--flag value` parser for the bench binaries.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// The value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparseable.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|e| panic!("bad --{name} value `{v}`: {e:?}"))
            })
            .unwrap_or(default)
    }

    /// `true` when `--name` is present (no value).
    pub fn flag(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }
}

/// Writes a JSON report next to the target directory and returns its path.
///
/// # Panics
///
/// Panics when the report directory cannot be created or written — a bench
/// binary has nothing useful to do past that point.
pub fn write_report<T: Serialize>(name: &str, value: &T) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("reports");
    std::fs::create_dir_all(&dir).expect("create report dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize report"),
    )
    .expect("write report");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_benchgen::{find_spec, generate};

    #[test]
    fn baselines_run_and_measure() {
        let spec = find_spec("usb_phy").expect("spec");
        let d = generate(&spec);
        let (_, size) = run_size_ordered(&d, false);
        assert_eq!(size.failed, 0);
        assert!(size.avg_disp > 0.0);
        let (_, with_h) = run_size_ordered(&d, true);
        assert!(
            with_h.avg_disp <= size.avg_disp + 1e-9,
            "heuristics never worsen"
        );
        let (_, gc) = run_size_ordered_gcells(&d, false, None);
        assert_eq!(gc.failed, 0);
        let (_, gc3) = run_size_ordered_gcells(&d, false, Some((3, 3)));
        assert_eq!(gc3.failed, 0);
        let (dp, gcp) = run_size_ordered_gcells_parallel(&d, false, Some((3, 3)), 2);
        assert_eq!(gcp.failed, 0);
        assert!(rlleg_design::legality::is_legal(&dp));
        let rnd = run_random_ordered(&d, 3);
        assert_eq!(rnd.failed, 0);
    }

    #[test]
    fn normalized_average_excludes_failures() {
        let ours = vec![
            RunResult {
                avg_disp: 100.0,
                max_disp: 1,
                disp_p50: 0.0,
                disp_p95: 0.0,
                hpwl: 1,
                failed: 0,
                seconds: 0.0,
                cost: 1.0,
            },
            RunResult {
                avg_disp: 100.0,
                max_disp: 1,
                disp_p50: 0.0,
                disp_p95: 0.0,
                hpwl: 1,
                failed: 0,
                seconds: 0.0,
                cost: 1.0,
            },
        ];
        let other = vec![
            RunResult {
                avg_disp: 150.0,
                max_disp: 1,
                disp_p50: 0.0,
                disp_p95: 0.0,
                hpwl: 1,
                failed: 0,
                seconds: 0.0,
                cost: 1.0,
            },
            RunResult {
                avg_disp: 999.0,
                max_disp: 1,
                disp_p50: 0.0,
                disp_p95: 0.0,
                hpwl: 1,
                failed: 3,
                seconds: 0.0,
                cost: 1.0,
            },
        ];
        let na = normalized_average(&ours, &other, |r| r.avg_disp);
        assert!((na - 1.5).abs() < 1e-9, "failed row excluded: {na}");
    }

    #[test]
    fn smoothing_and_sparkline() {
        let s = smooth(&[1.0, 3.0, 5.0, 7.0], 2);
        assert_eq!(s, vec![1.0, 2.0, 4.0, 6.0]);
        let line = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(line.chars().count(), 3);
        assert!(sparkline(&[]).is_empty());
    }

    #[test]
    fn args_parse() {
        let a = Args {
            raw: vec!["--runs".into(), "7".into(), "--quick".into()],
        };
        assert_eq!(a.get("runs", 1usize), 7);
        assert_eq!(a.get("scale", 0.5f64), 0.5);
        assert!(a.flag("quick"));
        assert!(!a.flag("missing"));
    }
}
