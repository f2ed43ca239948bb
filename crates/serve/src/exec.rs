//! Job execution: a fixed set of executor threads draining the bounded
//! queue.
//!
//! The executor set is created once at server start — requests never get
//! threads of their own. Inside a job, a legalization whose Gcell grid
//! spans several coarse tiles starts scoped helper threads for that solve
//! (at most 8 for an auto grid), which end with it, and a global placement
//! starts one scoped helper for its paired X/Y solves and finalist
//! spreads when [`default_threads`](rlleg_legalize::pool::default_threads)
//! is above 1; every other single-tile job runs on its executor thread
//! alone. A helper's panic is re-raised on the executor thread, so every
//! job still runs under one `catch_unwind`: a panicking job (including
//! injected chaos kills) fails *that job* with a FAILED state and an error
//! message, never the server.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use rl_legalizer::{CellWiseNet, CheckpointStore, InferenceBudget, RlConfig, RlLegalizer, Trainer};
use rlleg_design::def::{parse_def, parse_def_with_library, write_def};
use rlleg_design::lef::Library;
use rlleg_design::{legality, Design, Technology};
use rlleg_legalize::{GcellGrid, Legalizer, Ordering};
use telemetry::journal::Event;

use crate::admission::Admission;
use crate::job::{unix_ms_now, JobId, JobOutcome, JobTable};
use crate::proto::{flags, JobKind, JobSpec};
use crate::queue::BoundedQueue;
use crate::wal::Wal;

/// Executor-side configuration (a slice of the server config).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Inner solver threads for jobs that leave [`JobSpec::threads`] at 0.
    pub inner_threads: usize,
    /// Directory for per-job-key checkpoint stores.
    pub data_dir: PathBuf,
    /// Honor chaos-injection flags in job specs (tests/harness only).
    pub chaos_enabled: bool,
    /// Save a training checkpoint every N episodes.
    pub ckpt_every: usize,
}

/// Stats object serialized into the RESULT frame.
#[derive(Debug, Default, Serialize)]
pub struct JobStats {
    /// Job kind as submitted (0/1/2).
    pub kind: u8,
    /// Cells legalized (legalize/RL kinds).
    pub legalized: usize,
    /// Cells that could not be placed.
    pub failed: usize,
    /// Gcells quarantined by the fault-isolation layer.
    pub quarantined: usize,
    /// `true` when the result passed the full legality check.
    pub legal: bool,
    /// Budget degradation reason ("" for healthy runs).
    pub degraded: String,
    /// Cells placed by the degraded fallback path.
    pub degraded_cells: usize,
    /// Episodes completed (training kind).
    pub episodes: usize,
    /// Post-global-placement HPWL in dbu (gplace kind).
    pub gp_hpwl: i64,
    /// Final bin-overflow fraction of the global placement (gplace kind).
    pub gp_overflow: f64,
    /// Outer solve→spread iterations the placer ran (gplace kind).
    pub gp_iterations: usize,
    /// Episode the run resumed from (0 = fresh start).
    pub resumed_from_episode: usize,
    /// Wall-clock of the execution phase in milliseconds.
    pub wall_ms: u64,
}

/// Widest network a job may request: the top of the paper's Bayesian
/// search range (see `RlConfig::tuned`). `hidden` is a `u16`, and at 65535
/// the trunk's 65535² weight matrix alone is a 16 GiB allocation whose
/// failure aborts the whole process.
pub const MAX_HIDDEN: u16 = 512;

/// Refuses a network width the executor must not build, for the job kinds
/// that build a network. The server calls this before journalling a
/// submission; the executor calls it again so a job journalled by an older
/// build fails with a reason instead of aborting every restart.
///
/// # Errors
///
/// Returns the refusal reason when `spec.hidden` exceeds [`MAX_HIDDEN`].
pub fn check_network_width(spec: &JobSpec) -> Result<(), String> {
    let builds_network = matches!(spec.kind, JobKind::RlLegalize | JobKind::Train);
    if builds_network && spec.hidden > MAX_HIDDEN {
        return Err(format!(
            "hidden width {} exceeds the maximum {MAX_HIDDEN}",
            spec.hidden
        ));
    }
    Ok(())
}

/// Parses the job's LEF/DEF into a [`Design`].
fn parse_input(spec: &JobSpec) -> Result<Design, String> {
    let tech = match spec.tech {
        0 => Technology::contest(),
        _ => Technology::nangate45(),
    };
    if spec.lef.is_empty() {
        parse_def(&spec.def, tech).map_err(|e| format!("DEF parse: {e}"))
    } else {
        let lib = Library::parse(&spec.lef).map_err(|e| format!("LEF parse: {e}"))?;
        parse_def_with_library(&spec.def, &lib, &tech).map_err(|e| format!("DEF parse: {e}"))
    }
}

fn ordering_of(spec: &JobSpec) -> Ordering {
    match spec.ordering {
        0 => Ordering::SizeDescending,
        1 => Ordering::XAscending,
        _ => Ordering::Random(spec.seed),
    }
}

/// The job's inference budget, with the wall limit clamped to whatever
/// remains of its deadline — the existing watchdog *is* the in-run
/// deadline enforcement (it degrades to the fallback path instead of
/// overshooting); the executor's post-run check is the hard backstop.
fn budget_of(spec: &JobSpec, remaining_ms: Option<u64>) -> InferenceBudget {
    let wall_ms = match (spec.max_wall_ms, remaining_ms) {
        (0, None) => 0,
        (0, Some(r)) => r,
        (w, None) => w,
        (w, Some(r)) => w.min(r),
    };
    InferenceBudget {
        max_steps: (spec.max_steps > 0).then_some(spec.max_steps),
        max_wall: (wall_ms > 0).then(|| std::time::Duration::from_millis(wall_ms)),
    }
}

/// Milliseconds left before the job's deadline (`None` = no deadline;
/// `Some(0)` = already expired).
fn remaining_ms(accepted_unix_ms: u64, spec: &JobSpec) -> Option<u64> {
    (spec.deadline_ms > 0).then(|| {
        accepted_unix_ms
            .saturating_add(spec.deadline_ms)
            .saturating_sub(unix_ms_now())
    })
}

/// Runs one job to completion. Pure with respect to server state: all
/// effects go through `table.progress` and the returned outcome.
///
/// # Errors
///
/// Returns a human-readable error for unusable inputs; panics (chaos
/// kills, solver bugs) are caught by the executor loop above this.
pub fn run_job(
    cfg: &ExecConfig,
    table: &JobTable,
    id: JobId,
    spec: &JobSpec,
    remaining_ms: Option<u64>,
) -> Result<JobOutcome, String> {
    check_network_width(spec)?;
    let t0 = Instant::now();
    let mut stats = JobStats {
        kind: spec.kind as u8,
        ..JobStats::default()
    };
    let design = parse_input(spec)?;
    table.progress(
        id,
        Event::new("job.parsed")
            .with("job", id)
            .with("cells", design.num_movable()),
    );
    let chaos_kill = cfg.chaos_enabled && spec.flags & flags::CHAOS_PANIC != 0;
    if chaos_kill && spec.kind != JobKind::Train {
        panic!("chaos: kill mid-job {id}");
    }
    let threads = if spec.threads == 0 {
        cfg.inner_threads
    } else {
        spec.threads as usize
    };
    let outcome = match spec.kind {
        JobKind::Legalize => run_legalize(table, id, design, spec, threads, &mut stats),
        JobKind::Gplace => run_gplace(table, id, design, spec, threads, &mut stats),
        JobKind::RlLegalize => run_rl(table, id, design, spec, remaining_ms, &mut stats),
        JobKind::Train => run_train(cfg, table, id, design, spec, chaos_kill, &mut stats)?,
    };
    stats.wall_ms = t0.elapsed().as_millis() as u64;
    let ok = outcome.0;
    let def = outcome.1;
    table.progress(
        id,
        Event::new("job.done")
            .with("job", id)
            .with("ok", ok)
            .with("wall_ms", stats.wall_ms),
    );
    Ok(JobOutcome {
        ok,
        def,
        stats: serde_json::to_string(&stats).unwrap_or_else(|_| "{}".into()),
    })
}

fn run_legalize(
    table: &JobTable,
    id: JobId,
    mut design: Design,
    spec: &JobSpec,
    threads: usize,
    stats: &mut JobStats,
) -> (bool, String) {
    let gcells = GcellGrid::auto(&design);
    let mut lg = Legalizer::new(&design);
    let run = lg.run_gcells_parallel(&mut design, &ordering_of(spec), &gcells, threads);
    stats.legalized = run.legalized;
    stats.failed = run.failed.len();
    stats.quarantined = run.quarantined.len();
    stats.legal = legality::check(&design, true).is_empty();
    table.progress(
        id,
        Event::new("job.legalized")
            .with("job", id)
            .with("placed", run.legalized)
            .with("failed", run.failed.len()),
    );
    (run.is_complete() && stats.legal, write_def(&design))
}

/// Global placement followed by deterministic legalization: the submitted
/// DEF's positions are treated as the warm-start placement, refined by
/// `rlleg_gplace::place`, and the result is legalized exactly like a
/// [`JobKind::Legalize`] job.
fn run_gplace(
    table: &JobTable,
    id: JobId,
    mut design: Design,
    spec: &JobSpec,
    threads: usize,
    stats: &mut JobStats,
) -> (bool, String) {
    let gp = rlleg_gplace::place(
        &mut design,
        &rlleg_gplace::GpConfig {
            seed: spec.seed,
            ..rlleg_gplace::GpConfig::default()
        },
    );
    stats.gp_hpwl = gp.hpwl;
    stats.gp_overflow = gp.overflow.last().copied().unwrap_or(0.0);
    stats.gp_iterations = gp.iterations;
    table.progress(
        id,
        Event::new("job.gplaced")
            .with("job", id)
            .with("hpwl", gp.hpwl)
            .with("iterations", gp.iterations),
    );
    run_legalize(table, id, design, spec, threads, stats)
}

fn run_rl(
    table: &JobTable,
    id: JobId,
    mut design: Design,
    spec: &JobSpec,
    remaining_ms: Option<u64>,
    stats: &mut JobStats,
) -> (bool, String) {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let net = CellWiseNet::new(spec.hidden.max(1) as usize, &mut rng);
    let report = RlLegalizer::new(net)
        .with_budget(budget_of(spec, remaining_ms))
        .legalize(&mut design);
    stats.legalized = report.legalized;
    stats.failed = report.failed.len();
    stats.degraded = report
        .degraded
        .map(|r| format!("{r:?}"))
        .unwrap_or_default();
    stats.degraded_cells = report.degraded_cells;
    stats.legal = legality::check(&design, true).is_empty();
    table.progress(
        id,
        Event::new("job.rl_pass")
            .with("job", id)
            .with("placed", report.legalized)
            .with("degraded", !stats.degraded.is_empty()),
    );
    (report.is_complete() && stats.legal, write_def(&design))
}

fn run_train(
    cfg: &ExecConfig,
    table: &JobTable,
    id: JobId,
    design: Design,
    spec: &JobSpec,
    chaos_kill: bool,
    stats: &mut JobStats,
) -> Result<(bool, String), String> {
    let rl_cfg = RlConfig {
        episodes: spec.episodes.max(1) as usize,
        agents: 2,
        hidden_dim: spec.hidden.max(1) as usize,
        seed: spec.seed,
        pretrain_episodes: 0,
        ..RlConfig::small()
    };
    let designs = [design];
    // Keyed jobs are resumable: the store survives server restarts and a
    // resubmission with the same key continues where the last checkpoint
    // left off — including past a corrupted newest generation, which the
    // store skips with its newest-valid fallback.
    let store = if spec.job_key != 0 {
        Some(
            CheckpointStore::new(cfg.data_dir.join(format!("ckpt-{:016x}", spec.job_key)), 3)
                .map_err(|e| format!("checkpoint store: {e}"))?,
        )
    } else {
        None
    };
    let mut trainer = match store.as_ref().and_then(|s| s.load_latest()) {
        Some((_, mut state)) => {
            // A resubmission may carry a larger episode budget than the
            // checkpointed run; extend it so the resumed job trains on.
            state.cfg.episodes = state.cfg.episodes.max(rl_cfg.episodes);
            match Trainer::restore(&designs, &state) {
                Ok(t) => {
                    stats.resumed_from_episode = t.episode();
                    table.progress(
                        id,
                        Event::new("job.resumed")
                            .with("job", id)
                            .with("episode", t.episode()),
                    );
                    t
                }
                Err(_) => Trainer::new(&designs, &rl_cfg),
            }
        }
        None => Trainer::new(&designs, &rl_cfg),
    };
    let ckpt_every = cfg.ckpt_every.max(1);
    while trainer.run_episode() {
        table.progress(
            id,
            Event::new("job.episode")
                .with("job", id)
                .with("episode", trainer.episode())
                .with("steps", trainer.steps()),
        );
        if let Some(s) = &store {
            if trainer.episode() % ckpt_every == 0 || trainer.done() {
                s.save(&trainer.state())
                    .map_err(|e| format!("checkpoint save: {e}"))?;
            }
        }
        if chaos_kill && trainer.episode() >= 1 {
            // Kill only after at least one checkpoint exists so the chaos
            // suite can prove resume-after-kill.
            if let Some(s) = &store {
                let _ = s.save(&trainer.state());
            }
            panic!("chaos: kill mid-training {id}");
        }
    }
    stats.episodes = trainer.episode();
    stats.legal = true;
    let result = trainer.finish();
    let model = result
        .best_model
        .to_json()
        .map_err(|e| format!("model serialize: {e}"))?;
    // Training jobs return the model JSON in the stats channel's `def`
    // slot (there is no output placement).
    Ok((true, model))
}

/// Handle over the executor thread set.
pub struct Executors {
    handles: Vec<JoinHandle<()>>,
}

impl Executors {
    /// Spawns `n` executor threads draining `queue` into `table`,
    /// journalling transitions through `wal` and releasing admission
    /// cost on terminal states.
    pub fn spawn(
        n: usize,
        cfg: ExecConfig,
        queue: Arc<BoundedQueue<JobId>>,
        table: Arc<JobTable>,
        wal: Arc<Wal>,
        admission: Arc<Admission>,
    ) -> Self {
        let handles = (0..n.max(1))
            .map(|w| {
                let cfg = cfg.clone();
                let queue = Arc::clone(&queue);
                let table = Arc::clone(&table);
                let wal = Arc::clone(&wal);
                let admission = Arc::clone(&admission);
                std::thread::Builder::new()
                    .name(format!("rlleg-serve-exec-{w}"))
                    .spawn(move || executor_loop(w, &cfg, &queue, &table, &wal, &admission))
                    .expect("spawn executor")
            })
            .collect();
        Self { handles }
    }

    /// Waits for every executor to exit (call after `queue.close()`).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// What one execution attempt ended as, before the retry decision.
enum Attempt {
    Done(JobOutcome),
    /// `(error, transient)` — transient failures are retry candidates.
    Failed(String, bool),
}

/// `true` when the failed outcome looks transient: some Gcells were
/// quarantined (a flaky solver panic isolated by PR 5's fault layer), so
/// a re-run on a healthy executor may succeed.
fn quarantined_failure(outcome: &JobOutcome) -> bool {
    if outcome.ok {
        return false;
    }
    serde_json::from_str::<serde::Value>(&outcome.stats)
        .ok()
        .and_then(|v| match v.as_object()?.get("quarantined")? {
            serde::Value::Int(n) => Some(*n > 0),
            serde::Value::UInt(n) => Some(*n > 0),
            _ => None,
        })
        .unwrap_or(false)
}

/// Exponential backoff before retry `attempt + 1`: 50ms doubling, capped
/// at 2s.
fn backoff_ms(attempt: u32) -> u64 {
    (50u64 << attempt.saturating_sub(1).min(5)).min(2000)
}

/// Journals a terminal failure and records it in the table.
fn fail_job(table: &JobTable, wal: &Wal, id: JobId, error: String, counter: &str) {
    if !telemetry::disabled() {
        telemetry::counter(counter).inc();
    }
    table.progress(
        id,
        Event::new("job.error")
            .with("job", id)
            .with("error", error.as_str()),
    );
    wal.append_failed(id, &error);
    table.fail(id, error);
}

fn executor_loop(
    worker: usize,
    cfg: &ExecConfig,
    queue: &BoundedQueue<JobId>,
    table: &JobTable,
    wal: &Wal,
    admission: &Admission,
) {
    while let Some(id) = queue.pop() {
        // Claiming moves the spec out of the table (the DEF/LEF text now
        // lives only with this executor); a cancelled-while-queued job
        // yields no spec and its stale queue entry is simply discarded.
        let Some(claimed) = table.claim(id) else {
            continue;
        };
        let spec = claimed.spec;
        let left = remaining_ms(claimed.accepted_unix_ms, &spec);
        if left == Some(0) {
            // The deadline passed while the job sat in the queue: fail it
            // without burning executor time on a result nobody wants.
            fail_job(
                table,
                wal,
                id,
                "deadline exceeded before start".into(),
                "serve.jobs.deadline",
            );
            admission.release(table.cost_of(id));
            continue;
        }
        wal.append_running(id, claimed.attempt);
        table.progress(
            id,
            Event::new("job.start")
                .with("job", id)
                .with("worker", worker)
                .with("attempt", u64::from(claimed.attempt)),
        );
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run_job(cfg, table, id, &spec, left)));
        if !telemetry::disabled() {
            telemetry::histogram("serve.job.wall_seconds", telemetry::buckets::SECONDS)
                .record(t0.elapsed().as_secs_f64());
        }
        let retries_left = claimed.attempt <= u32::from(spec.max_retries);
        let attempt = match out {
            Ok(Ok(outcome)) => {
                // Hard executor-side timeout: the watchdog should have kept
                // the run inside its deadline, but if it still overshot the
                // late result is discarded — clients were promised the
                // deadline, not a stale answer.
                if remaining_ms(claimed.accepted_unix_ms, &spec) == Some(0) {
                    Attempt::Failed("deadline exceeded (hard timeout)".into(), false)
                } else if retries_left && quarantined_failure(&outcome) {
                    // Without a retry budget the degraded result is still
                    // delivered (ok=false) exactly as before; with one, a
                    // re-run on a healthy executor may place everything.
                    Attempt::Failed("quarantined Gcells left cells unplaced".into(), true)
                } else {
                    Attempt::Done(outcome)
                }
            }
            Ok(Err(e)) => Attempt::Failed(e, false),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".into());
                table.progress(
                    id,
                    Event::new("job.panic")
                        .with("job", id)
                        .with("error", msg.as_str()),
                );
                Attempt::Failed(format!("job panicked: {msg}"), true)
            }
        };
        match attempt {
            Attempt::Done(outcome) => {
                if !telemetry::disabled() {
                    telemetry::counter("serve.jobs.done").inc();
                }
                // Journal (fsynced) before the table flips to DONE: once a
                // client can see the result, it is already durable.
                wal.append_done(id, &outcome);
                table.finish(id, outcome);
                admission.release(table.cost_of(id));
            }
            Attempt::Failed(error, transient) => {
                let retryable = transient
                    && retries_left
                    && remaining_ms(claimed.accepted_unix_ms, &spec) != Some(0);
                if retryable {
                    if !telemetry::disabled() {
                        telemetry::counter("serve.jobs.retried").inc();
                    }
                    table.progress(
                        id,
                        Event::new("job.retry")
                            .with("job", id)
                            .with("attempt", u64::from(claimed.attempt))
                            .with("error", error.as_str()),
                    );
                    wal.append_requeued(id, claimed.attempt);
                    let at = Instant::now()
                        + std::time::Duration::from_millis(backoff_ms(claimed.attempt));
                    if !table.requeue(id, spec, at) {
                        // Lost the race with a teardown; surface the error.
                        fail_job(table, wal, id, error, "serve.jobs.failed");
                        admission.release(table.cost_of(id));
                    }
                } else {
                    let counter = if transient {
                        "serve.jobs.panicked"
                    } else {
                        "serve.jobs.failed"
                    };
                    fail_job(table, wal, id, error, counter);
                    admission.release(table.cost_of(id));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_benchgen::{find_spec, generate};

    fn small_def() -> String {
        // Contest family: parses back under the JobSpec-default tech (0).
        let spec = find_spec("fft_2_md2").expect("spec").scaled(0.002);
        write_def(&generate(&spec))
    }

    fn exec_cfg(tag: &str) -> ExecConfig {
        ExecConfig {
            inner_threads: 1,
            data_dir: std::env::temp_dir()
                .join(format!("rlleg-serve-exec-{tag}-{}", std::process::id())),
            chaos_enabled: false,
            ckpt_every: 2,
        }
    }

    #[test]
    fn network_width_is_capped_only_where_a_network_is_built() {
        let spec = |kind, hidden| JobSpec {
            kind,
            hidden,
            ..JobSpec::default()
        };
        for kind in [JobKind::RlLegalize, JobKind::Train] {
            assert!(check_network_width(&spec(kind, MAX_HIDDEN)).is_ok());
            assert!(check_network_width(&spec(kind, MAX_HIDDEN + 1)).is_err());
            // The executor refuses before parsing or building anything.
            let table = JobTable::new();
            let wide = spec(kind, u16::MAX);
            let id = table.insert(wide.clone());
            let err = run_job(&exec_cfg("wide"), &table, id, &wide, None).expect_err("refused");
            assert_eq!(err, "hidden width 65535 exceeds the maximum 512");
        }
        for kind in [JobKind::Legalize, JobKind::Gplace] {
            assert!(check_network_width(&spec(kind, u16::MAX)).is_ok());
        }
    }

    #[test]
    fn legalize_job_produces_legal_def() {
        let table = JobTable::new();
        let spec = JobSpec {
            def: small_def(),
            ..JobSpec::default()
        };
        let id = table.insert(spec.clone());
        let out = run_job(&exec_cfg("leg"), &table, id, &spec, None).expect("run");
        assert!(out.ok, "stats: {}", out.stats);
        let d = parse_def(&out.def, Technology::contest()).expect("result parses");
        // `require_committed = false`: a parsed DEF carries positions, not
        // the in-memory `legalized` flags.
        assert!(legality::check(&d, false).is_empty());
        assert!(out.stats.contains("\"legalized\""));
    }

    #[test]
    fn gplace_job_refines_then_legalizes() {
        let table = JobTable::new();
        let spec = JobSpec {
            kind: JobKind::Gplace,
            def: small_def(),
            seed: 7,
            ..JobSpec::default()
        };
        let id = table.insert(spec.clone());
        let out = run_job(&exec_cfg("gp"), &table, id, &spec, None).expect("run");
        assert!(out.ok, "stats: {}", out.stats);
        let d = parse_def(&out.def, Technology::contest()).expect("result parses");
        assert!(legality::check(&d, false).is_empty());
        assert!(out.stats.contains("\"gp_hpwl\""), "stats: {}", out.stats);
    }

    #[test]
    fn rl_job_with_step_budget_degrades_but_stays_legal() {
        let table = JobTable::new();
        let spec = JobSpec {
            kind: JobKind::RlLegalize,
            max_steps: 2,
            hidden: 8,
            def: small_def(),
            ..JobSpec::default()
        };
        let id = table.insert(spec.clone());
        let out = run_job(&exec_cfg("rl"), &table, id, &spec, None).expect("run");
        assert!(out.ok, "stats: {}", out.stats);
        assert!(out.stats.contains("StepBudget"), "stats: {}", out.stats);
    }

    #[test]
    fn train_job_checkpoints_and_resumes_by_key() {
        let cfg = exec_cfg("train");
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let table = JobTable::new();
        let spec = JobSpec {
            kind: JobKind::Train,
            episodes: 2,
            hidden: 8,
            job_key: 0xABCD,
            def: small_def(),
            ..JobSpec::default()
        };
        let id = table.insert(spec.clone());
        let out = run_job(&cfg, &table, id, &spec, None).expect("train");
        assert!(out.ok);
        assert!(out.def.contains("\"hidden_dim\"") || !out.def.is_empty());
        // Resubmit with a larger budget under the same key: must resume.
        let spec2 = JobSpec {
            episodes: 4,
            ..spec
        };
        let id2 = table.insert(spec2.clone());
        let out2 = run_job(&cfg, &table, id2, &spec2, None).expect("resume");
        assert!(
            out2.stats.contains("\"resumed_from_episode\": 2")
                || out2.stats.contains("\"resumed_from_episode\":2"),
            "stats: {}",
            out2.stats
        );
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }

    #[test]
    fn bad_def_fails_cleanly() {
        let table = JobTable::new();
        let spec = JobSpec {
            def: "DESIGN broken".into(),
            ..JobSpec::default()
        };
        let id = table.insert(spec.clone());
        assert!(run_job(&exec_cfg("bad"), &table, id, &spec, None).is_err());
    }
}
