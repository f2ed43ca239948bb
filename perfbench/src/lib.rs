//! The repository benchmark: three workloads over the global placer and
//! legalizer, RL training and inference, and the job server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gplace_flow --seed 0 --seconds 36 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every
//! span and all program telemetry off. With `--trace 1` it records spans
//! around its own calls into each layer, reads the program's existing
//! telemetry counters, and prints the per-layer metrics instead. The last
//! line of standard output is the result object; the line before it is
//! the full self-describing report (header, every metric with unit and
//! sample count, failures).

#![warn(missing_docs)]

pub mod common;
pub mod gplace_flow;
pub mod report;
pub mod rl_train_infer;
pub mod serve_mixed;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod verify;

use serde::{Map, Value};

use common::Ctx;
use report::{err, Report, Result};

/// The workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "gplace_flow",
        "netlist to global placement to legalization on keccak and pci_bridge32_a_md1, which take opposite placer finalist branches",
    ),
    (
        "rl_train_infer",
        "async A3C training burst beside RL-ordered inference and its baseline; features and network run nowhere else",
    ),
    (
        "serve_mixed",
        "server child under a closed loop of 2 sessions x 2 outstanding mixed jobs; the only path through admission, WAL, queue and delivery",
    ),
];

/// End-to-end metrics and their units. Every workload's untraced run
/// prints each of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("round_s", "s"),
    ("cells_per_s", "1/s"),
    ("hpwl_dbu", "dbu"),
    ("avg_disp_dbu", "dbu"),
    ("max_disp_dbu", "dbu"),
];

/// Per-layer metrics and their units. Every workload's traced run prints
/// each of them; one the workload does not observe (its layer does not
/// run in the benchmark's process, or, for `serve_mixed`, runs only
/// inside the server child) reads 0 and is listed in the full report's
/// `not_observed`.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("benchgen.generate_s", "s"),
    ("core.baseline_s", "s"),
    ("core.feature_s", "s"),
    ("core.infer_s", "s"),
    ("core.network_s", "s"),
    ("core.policy_steps", "count"),
    ("core.search_s", "s"),
    ("core.setup_train_s", "s"),
    ("core.setup_train_steps", "count"),
    ("core.train_burst_s", "s"),
    ("core.train_steps", "count"),
    ("design.def_parse_s", "s"),
    ("design.def_write_s", "s"),
    ("design.legality_check_s", "s"),
    ("design.qor_s", "s"),
    ("geom.rtree_queries", "count"),
    ("geom.rtree_queries_per_step", "queries"),
    ("gplace.cg_iterations", "count"),
    ("gplace.finalist_input", "count"),
    ("gplace.finalist_refined", "count"),
    ("gplace.finalist_spread", "count"),
    ("gplace.outer_iterations", "count"),
    ("gplace.place_s", "s"),
    ("gplace.trial_legalize_s", "s"),
    ("legalize.cells", "count"),
    ("legalize.fast_commit_share", "share"),
    ("legalize.fast_commits", "count"),
    ("legalize.grid_build_s", "s"),
    ("legalize.merge_conflicts", "count"),
    ("legalize.partition_s", "s"),
    ("legalize.pixels_per_search", "pixels"),
    ("legalize.pixels_scanned", "count"),
    ("legalize.retries", "count"),
    ("legalize.retry_share", "share"),
    ("legalize.searches", "count"),
    ("legalize.solve_s", "s"),
    ("legalize.steals", "count"),
    ("nn.batch_rows_sum", "count"),
    ("nn.infer_runs", "count"),
    ("nn.rows_per_forward", "rows"),
    ("op.coverage", "share"),
    ("op.self_s", "s"),
    ("serve.ack_ms", "ms"),
    ("serve.client_retries", "count"),
    ("serve.conns.accepted", "count"),
    ("serve.exec_ms.gplace", "ms"),
    ("serve.exec_ms.legalize", "ms"),
    ("serve.exec_ms.rl", "ms"),
    ("serve.jobs.accepted", "count"),
    ("serve.jobs.done", "count"),
    ("serve.jobs.rejected", "count"),
    ("serve.jobs.retried", "count"),
    ("serve.jobs.shed", "count"),
    ("serve.outside_exec_ms", "ms"),
    ("serve.query_ms", "ms"),
    ("serve.rejects_queue_full", "count"),
    ("serve.rejects_shed", "count"),
    ("serve.wal.append_failed", "count"),
    ("telemetry.overhead_share", "share"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Design-size scale (1.0 unless smoke-testing).
    pub scale: f64,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--scale F]`.
    pub fn parse(args: &[String]) -> Result<Self> {
        let mut o = Options {
            workload: String::new(),
            seed: 0,
            seconds: 36.0,
            trace: false,
            scale: 1.0,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| err(format!("{flag} needs a value")))?;
            let bad = || err(format!("bad value for {flag}: {value}"));
            match flag.as_str() {
                "--workload" => o.workload = value.clone(),
                "--seed" => o.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--scale" => o.scale = value.parse().map_err(|_| bad())?,
                _ => return Err(err(format!("unknown flag {flag}"))),
            }
        }
        if !WORKLOADS.iter().any(|(w, _)| *w == o.workload) {
            return Err(err(format!("unknown workload {:?}", o.workload)));
        }
        if !(o.seconds.is_finite() && o.seconds > 0.0 && o.scale > 0.0 && o.scale <= 1.0) {
            return Err(err("--seconds must be positive and --scale in (0, 1]"));
        }
        Ok(o)
    }
}

/// What one run prints: the full report and the one-line result.
pub struct Output {
    /// Header, metrics with units and sample counts, failures, detail.
    pub full: Value,
    /// The result object.
    pub result: Value,
}

/// Runs one workload and renders its output.
pub fn run(o: &Options) -> Result<Output> {
    let threads = sys::nproc();
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        scale: o.scale,
        threads,
        epoch: std::time::Instant::now(),
    };
    let mut rep = Report::default();
    match o.workload.as_str() {
        "gplace_flow" => gplace_flow::run(&ctx, &mut rep)?,
        "rl_train_infer" => rl_train_infer::run(&ctx, &mut rep)?,
        "serve_mixed" => serve_mixed::run(&ctx, &mut rep)?,
        w => return Err(err(format!("unknown workload {w}"))),
    }
    if rep.get("peak_rss_mb").is_none() {
        let rss = sys::peak_rss_mb(std::process::id());
        rep.record_some("peak_rss_mb", "MiB", rss, 1)?;
    }
    let declared: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let mut not_observed = Vec::new();
    for &(name, unit) in declared {
        match rep.unit_of(name) {
            Some(u) if u == unit => {}
            Some(u) => return Err(err(format!("{name} recorded in {u}, declared in {unit}"))),
            None if o.trace => {
                rep.record(name, unit, 0.0, 0)?;
                not_observed.push(Value::Str(name.into()));
            }
            // QoR is recorded from verified outputs only, so a run with
            // failed ops may lack it; anything else missing is a bug here.
            None if !rep.correct() => {}
            None => return Err(err(format!("{} did not record {name}", o.workload))),
        }
    }

    let mut h = Map::new();
    h.insert("workload", Value::Str(o.workload.clone()));
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == o.workload)
        .map(|w| w.1);
    h.insert("why", Value::Str(why.unwrap_or_default().into()));
    h.insert("seed", Value::UInt(o.seed));
    h.insert("seconds", Value::Float(o.seconds));
    h.insert("trace", Value::Bool(o.trace));
    h.insert("scale", Value::Float(o.scale));
    h.insert("nproc", Value::UInt(threads as u64));
    h.insert("threads", Value::UInt(threads as u64));
    h.insert("a3c_agents", Value::UInt(rl_train_infer::AGENTS as u64));
    h.insert("sessions", Value::UInt(serve_mixed::SESSIONS as u64));
    h.insert("outstanding", Value::UInt(serve_mixed::OUTSTANDING as u64));
    h.insert("executors", Value::UInt(serve_mixed::EXECUTORS as u64));
    h.insert("git_revision", Value::Str(sys::git_revision()));
    h.insert("profile", Value::Str(sys::profile().into()));
    if o.trace {
        h.insert("not_observed", Value::Array(not_observed));
    }

    let full = rep.full_json(Value::Object(h));
    let names: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
    let result = rep.result_json(&names);
    Ok(Output { full, result })
}
