//! Closed-loop load generator for `BENCH_serve.json`.
//!
//! Drives N concurrent client sessions against a running server, each
//! submitting a stream of small legalization jobs and waiting for the
//! result before submitting the next (closed loop: offered load tracks
//! service rate, and the bounded queue's REJECTED answers measure honest
//! saturation instead of unbounded client-side queueing). Reports
//! throughput, latency percentiles, and the reject rate.
//!
//! Two further phases feed the same report file:
//!
//! - [`run_overload`] over-offers load against a server with a deliberately
//!   tiny admission budget and measures shedding behaviour — latency
//!   percentiles *of the accepted work* must stay ordered and no accepted
//!   job may be lost (`ov_jobs_lost`);
//! - [`run_recovery`] submits a batch, reads back some results, SIGKILLs
//!   the server mid-flight (through a caller-supplied [`RecoveryHarness`]),
//!   restarts it on the same data directory, and audits every acknowledged
//!   job over HTTP: previously-read results must re-fetch bit-identically
//!   (`divergent`), the rest must reach a terminal state (`jobs_lost`).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::client::{Backoff, Client, ClientError};
use crate::proto::{reject, JobSpec};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client sessions (connections).
    pub sessions: usize,
    /// Jobs each session submits (closed loop).
    pub jobs_per_session: usize,
    /// The DEF payload every job carries.
    pub def: String,
    /// Per-operation timeout.
    pub timeout: Duration,
    /// Attempts per job before giving up on repeated rejection
    /// (0 = keep retrying until `timeout` elapses for the job).
    pub max_attempts: usize,
}

/// What the run measured (serialized into `BENCH_serve.json`).
#[derive(Debug, Default, Serialize)]
pub struct LoadReport {
    /// Concurrent sessions driven.
    pub sessions: usize,
    /// Jobs that completed with `ok = true`.
    pub jobs_ok: u64,
    /// Jobs that finished with a failure result or client error.
    pub jobs_failed: u64,
    /// REJECTED answers observed (each is one backpressure event).
    pub rejects: u64,
    /// Rejects divided by total submit attempts.
    pub reject_rate: f64,
    /// Wall clock of the whole run in seconds.
    pub wall_seconds: f64,
    /// Completed jobs per second.
    pub qps: f64,
    /// Median submit-to-result latency (ms).
    pub p50_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
}

impl LoadReport {
    /// Pretty JSON for `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

/// What the overload phase measured: admission control under an offered
/// load well past the configured in-flight budget.
#[derive(Debug, Default, Serialize)]
pub struct OverloadReport {
    /// Concurrent sessions over-offering load.
    pub ov_sessions: usize,
    /// Accepted submissions.
    pub ov_submitted: u64,
    /// SHED rejections (admission control, with a retry-after hint).
    pub ov_shed: u64,
    /// QUEUE_FULL rejections (the queue's hard limit behind admission).
    /// Reads 0 in the `--loadgen` overload phase: a queued job stays
    /// charged to admission until it finishes, so under a budget of about
    /// two jobs admission sheds long before the 8-deep queue fills. The
    /// e2e test `backpressure_rejects_with_queue_full` pins QUEUE_FULL.
    pub ov_queue_full: u64,
    /// Accepted jobs that returned a terminal result.
    pub ov_completed: u64,
    /// Accepted jobs that never returned a result — the invariant
    /// `--loadgen` asserts is zero: shedding may refuse work, never lose it.
    pub ov_jobs_lost: u64,
    /// Median latency of the *accepted* jobs (ms).
    pub ov_p50_ms: f64,
    /// 95th percentile latency of accepted jobs (ms).
    pub ov_p95_ms: f64,
    /// 99th percentile latency of accepted jobs (ms).
    pub ov_p99_ms: f64,
}

/// What the crash/recovery phase measured.
#[derive(Debug, Default, Serialize)]
pub struct RecoveryReport {
    /// Jobs offered before the kill.
    pub rc_submitted: u64,
    /// Jobs the server acknowledged (ACCEPTED answered) before the kill.
    pub rc_acked: u64,
    /// Results fully read back before the kill.
    pub rc_completed_before_kill: u64,
    /// Pre-kill results that re-fetched bit-identically after restart
    /// (served from the journal, not re-run).
    pub rc_recovered_served: u64,
    /// Acked-but-unread jobs that reached a terminal state after restart.
    pub rc_recovered_rerun: u64,
    /// Acknowledged jobs that vanished or never terminated after restart.
    /// `--loadgen` asserts this is zero.
    pub jobs_lost: u64,
    /// Pre-kill results whose post-restart re-fetch differed — a job that
    /// ran twice to a different answer. Pinned to zero.
    pub divergent: u64,
}

/// The combined three-phase report serialized into `BENCH_serve.json`.
#[derive(Debug, Default, Serialize)]
pub struct ServeBench {
    /// Closed-loop steady-state phase.
    pub closed_loop: LoadReport,
    /// Admission-control overload phase.
    pub overload: OverloadReport,
    /// Kill/restart recovery phase.
    pub recovery: RecoveryReport,
}

impl ServeBench {
    /// Pretty JSON for `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Runs the closed-loop load against `addr` and aggregates the report.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let rejects = Arc::new(AtomicU64::new(0));
    let attempts = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..cfg.sessions.max(1))
        .map(|s| {
            let cfg = cfg.clone();
            let (ok, failed, rejects, attempts, latencies) = (
                Arc::clone(&ok),
                Arc::clone(&failed),
                Arc::clone(&rejects),
                Arc::clone(&attempts),
                Arc::clone(&latencies),
            );
            std::thread::spawn(move || {
                let Ok(mut client) = Client::connect(addr, cfg.timeout) else {
                    failed.fetch_add(cfg.jobs_per_session as u64, Ordering::Relaxed);
                    return;
                };
                let mut session_lat = Vec::with_capacity(cfg.jobs_per_session);
                for j in 0..cfg.jobs_per_session {
                    let spec = JobSpec {
                        seed: (s * 1_000 + j) as u64,
                        def: cfg.def.clone(),
                        ..JobSpec::default()
                    };
                    let jt0 = Instant::now();
                    let deadline = jt0 + cfg.timeout;
                    let mut done = false;
                    let mut attempt = 0usize;
                    loop {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        match client.run(&spec, cfg.timeout) {
                            Ok(r) if r.ok => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                session_lat.push(jt0.elapsed().as_secs_f64() * 1e3);
                                done = true;
                            }
                            Ok(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                done = true;
                            }
                            Err(ClientError::Rejected { code, .. })
                                if code == reject::QUEUE_FULL =>
                            {
                                rejects.fetch_add(1, Ordering::Relaxed);
                                // Honest backoff before re-offering load.
                                std::thread::sleep(Duration::from_millis(2 << attempt.min(5)));
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                done = true;
                            }
                        }
                        attempt += 1;
                        let out_of_attempts = cfg.max_attempts > 0 && attempt >= cfg.max_attempts;
                        if done || out_of_attempts || Instant::now() >= deadline {
                            break;
                        }
                    }
                    if !done {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(session_lat);
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let wall = t0.elapsed().as_secs_f64();
    let mut lat = latencies
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let jobs_ok = ok.load(Ordering::Relaxed);
    let total_attempts = attempts.load(Ordering::Relaxed).max(1);
    LoadReport {
        sessions: cfg.sessions,
        jobs_ok,
        jobs_failed: failed.load(Ordering::Relaxed),
        rejects: rejects.load(Ordering::Relaxed),
        reject_rate: rejects.load(Ordering::Relaxed) as f64 / total_attempts as f64,
        wall_seconds: wall,
        qps: jobs_ok as f64 / wall.max(1e-9),
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
    }
}

/// Over-offers load against `addr` (whose server should be configured
/// with a small `max_inflight_cost`) and measures how admission control
/// sheds: every session keeps a job in flight, retries sheds with the
/// jittered [`Backoff`], and accounts for accepted work to the end.
pub fn run_overload(addr: SocketAddr, cfg: &LoadConfig) -> OverloadReport {
    let submitted = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let queue_full = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let workers: Vec<_> = (0..cfg.sessions.max(1))
        .map(|s| {
            let cfg = cfg.clone();
            let (submitted, shed, queue_full, completed, lost, latencies) = (
                Arc::clone(&submitted),
                Arc::clone(&shed),
                Arc::clone(&queue_full),
                Arc::clone(&completed),
                Arc::clone(&lost),
                Arc::clone(&latencies),
            );
            std::thread::spawn(move || {
                let Ok(mut client) = Client::connect(addr, cfg.timeout) else {
                    return;
                };
                let mut backoff = Backoff::for_submit(s as u64 + 1);
                let mut session_lat = Vec::new();
                for j in 0..cfg.jobs_per_session {
                    let spec = JobSpec {
                        seed: (s * 1_000 + j) as u64,
                        def: cfg.def.clone(),
                        ..JobSpec::default()
                    };
                    let jt0 = Instant::now();
                    let deadline = jt0 + cfg.timeout;
                    let job = loop {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break None;
                        }
                        match client.submit(&spec, left) {
                            Ok(job) => break Some(job),
                            Err(ClientError::Rejected { code, reason })
                                if code == reject::SHED || code == reject::QUEUE_FULL =>
                            {
                                if code == reject::SHED {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    queue_full.fetch_add(1, Ordering::Relaxed);
                                }
                                let delay =
                                    backoff.next_delay(crate::admission::retry_after_hint(&reason));
                                std::thread::sleep(delay.min(left));
                            }
                            Err(_) => break None,
                        }
                    };
                    let Some(job) = job else {
                        continue; // shed to the end: refused, not lost
                    };
                    submitted.fetch_add(1, Ordering::Relaxed);
                    match client.wait_result(job, cfg.timeout) {
                        Ok(_) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            session_lat.push(jt0.elapsed().as_secs_f64() * 1e3);
                        }
                        Err(_) => {
                            // Accepted and then never answered: lost work.
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(session_lat);
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let mut lat = latencies
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    OverloadReport {
        ov_sessions: cfg.sessions,
        ov_submitted: submitted.load(Ordering::Relaxed),
        ov_shed: shed.load(Ordering::Relaxed),
        ov_queue_full: queue_full.load(Ordering::Relaxed),
        ov_completed: completed.load(Ordering::Relaxed),
        ov_jobs_lost: lost.load(Ordering::Relaxed),
        ov_p50_ms: percentile(&lat, 0.50),
        ov_p95_ms: percentile(&lat, 0.95),
        ov_p99_ms: percentile(&lat, 0.99),
    }
}

/// Process control the recovery phase needs but cannot own: starting a
/// server on the shared data directory and SIGKILLing the running one.
/// The binary supplies closures over a real child process; tests can fake
/// them.
pub struct RecoveryHarness<'a> {
    /// (Re)starts the server over the shared data directory and returns
    /// the address it listens on.
    pub start: &'a mut dyn FnMut() -> SocketAddr,
    /// SIGKILLs the currently running server — no drain, no flush.
    pub kill: &'a mut dyn FnMut(),
}

/// One plain HTTP/1.1 GET (`connection: close`), returning status + body.
fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> Option<(u16, String)> {
    let mut s = TcpStream::connect_timeout(&addr, timeout).ok()?;
    s.set_read_timeout(Some(timeout)).ok()?;
    write!(s, "GET {path} HTTP/1.1\r\nhost: loadgen\r\n\r\n").ok()?;
    read_http_response(&mut s)
}

/// One HTTP/1.1 POST with `body`, returning status + body.
fn http_post(addr: SocketAddr, path: &str, body: &str, timeout: Duration) -> Option<(u16, String)> {
    let mut s = TcpStream::connect_timeout(&addr, timeout).ok()?;
    s.set_read_timeout(Some(timeout)).ok()?;
    write!(
        s,
        "POST {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .ok()?;
    read_http_response(&mut s)
}

fn read_http_response(s: &mut TcpStream) -> Option<(u16, String)> {
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let text = String::from_utf8_lossy(&buf);
    let status: u16 = text
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Some((status, body))
}

/// Pulls the job id out of a `{"job":N}` submit answer.
fn job_id_of(body: &str) -> Option<u64> {
    let n = body.split_once("\"job\":")?.1;
    n.split(|c: char| !c.is_ascii_digit())
        .next()
        .filter(|s| !s.is_empty())?
        .parse()
        .ok()
}

/// What the post-restart poll of one job concluded.
enum Polled {
    /// Terminal `done`.
    Done,
    /// Terminal `failed` / `cancelled`.
    FailedOrCancelled,
    /// 404 — the server no longer knows the job.
    Gone,
    /// Never reached a terminal state before the deadline.
    TimedOut,
}

fn poll_terminal(addr: SocketAddr, id: u64, deadline: Instant, timeout: Duration) -> Polled {
    let step = Duration::from_millis(25);
    loop {
        match http_get(addr, &format!("/jobs/{id}"), timeout) {
            Some((200, body)) => {
                if body.contains("\"state\":\"done\"") {
                    return Polled::Done;
                }
                if body.contains("\"state\":\"failed\"") || body.contains("\"state\":\"cancelled\"")
                {
                    return Polled::FailedOrCancelled;
                }
                // queued / running: a recovered job legitimately re-runs.
            }
            Some((404, _)) => return Polled::Gone,
            _ => {}
        }
        if Instant::now() >= deadline {
            return Polled::TimedOut;
        }
        std::thread::sleep(step);
    }
}

/// Runs the kill/restart phase in two cohorts:
///
/// - the **read-back** cohort submits and reads results *before* the kill;
///   after restart each must re-fetch bit-identically or be retired (the
///   delivery was journalled) — anything else is `divergent`;
/// - the **abandoned** cohort submits over HTTP, which acknowledges
///   without subscribing — no delivery can ever retire these jobs, so
///   after the kill the journal owes every one of them: each must reach
///   a terminal state after the restart (served from the persisted
///   result or re-run) — a 404 or a never-terminal job is `jobs_lost`.
pub fn run_recovery(h: &mut RecoveryHarness<'_>, cfg: &LoadConfig) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let addr = (h.start)();
    let total = (cfg.sessions * cfg.jobs_per_session).clamp(8, 64);
    let read_n = (total / 4).max(2);
    let mut backoff = Backoff::for_submit(1);
    let submit = |client: &mut Client, backoff: &mut Backoff, j: usize| {
        let spec = JobSpec {
            seed: j as u64,
            def: cfg.def.clone(),
            ..JobSpec::default()
        };
        client.submit_with_backoff(&spec, cfg.timeout, backoff).ok()
    };

    // Read-back cohort: results in hand before the kill.
    let mut held: Vec<(u64, String)> = Vec::new();
    if let Ok(mut client) = Client::connect(addr, cfg.timeout) {
        for j in 0..read_n {
            report.rc_submitted += 1;
            let Some(id) = submit(&mut client, &mut backoff, j) else {
                continue;
            };
            report.rc_acked += 1;
            if let Ok(r) = client.wait_result(id, cfg.timeout) {
                held.push((id, r.def));
            }
        }
    }
    report.rc_completed_before_kill = held.len() as u64;

    // Abandoned cohort: acknowledged, never delivered. HTTP submits have
    // no subscription, so nothing can retire these jobs before the server
    // is killed with the work queued, running, or finished-but-undelivered.
    let mut abandoned: Vec<u64> = Vec::new();
    for _ in read_n..total {
        report.rc_submitted += 1;
        let answer = http_post(addr, "/jobs", &cfg.def, cfg.timeout);
        if let Some(id) = answer
            .filter(|(st, _)| *st == 202)
            .and_then(|(_, b)| job_id_of(&b))
        {
            report.rc_acked += 1;
            abandoned.push(id);
        }
    }
    (h.kill)();

    let addr = (h.start)();
    let deadline = Instant::now() + cfg.timeout;
    for (id, def) in &held {
        match poll_terminal(addr, *id, deadline, cfg.timeout) {
            // Retired: the journal recorded the delivery. Nothing owed.
            Polled::Gone => report.rc_recovered_served += 1,
            Polled::Done => {
                if def.is_empty() {
                    report.rc_recovered_served += 1;
                } else {
                    match http_get(addr, &format!("/jobs/{id}/def"), cfg.timeout) {
                        Some((200, body)) if &body == def => report.rc_recovered_served += 1,
                        _ => report.divergent += 1,
                    }
                }
            }
            // We hold a DONE result; any other terminal answer means the
            // job ran again to a different conclusion.
            Polled::FailedOrCancelled => report.divergent += 1,
            Polled::TimedOut => report.jobs_lost += 1,
        }
    }
    for id in &abandoned {
        match poll_terminal(addr, *id, deadline, cfg.timeout) {
            Polled::Done | Polled::FailedOrCancelled => report.rc_recovered_rerun += 1,
            Polled::Gone | Polled::TimedOut => report.jobs_lost += 1,
        }
    }
    (h.kill)();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_sanely() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&v, 0.5) - 50.0).abs() <= 1.0);
        assert!((percentile(&v, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
