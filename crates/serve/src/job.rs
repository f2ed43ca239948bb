//! Job lifecycle state shared between the event loop and the executors.
//!
//! Every accepted submission becomes a [`JobEntry`] in the [`JobTable`].
//! Executors move entries `Queued → Running → Done/Failed` and append
//! progress events; the event loop reads new progress lines (per-connection
//! cursors live with the connection) and delivers terminal results.
//! Progress events reuse the telemetry journal's [`Event`] record and JSONL
//! rendering, and are forwarded to the process-global journal as well when
//! one is installed — a `tail -f` on the server's journal file sees the
//! same stream a subscribed client does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

use telemetry::journal::Event;

use crate::proto::JobSpec;

/// Job identifier, unique per server run.
pub type JobId = u64;

/// Wire-visible job states (payload of a STATUS frame).
pub mod state {
    /// Accepted, waiting in the queue.
    pub const QUEUED: u8 = 0;
    /// An executor is working on it.
    pub const RUNNING: u8 = 1;
    /// Finished; the result is available.
    pub const DONE: u8 = 2;
    /// Terminated with an error (including an executor panic).
    pub const FAILED: u8 = 3;
    /// Cancelled before an executor picked it up.
    pub const CANCELLED: u8 = 4;
    /// The id names no known job.
    pub const UNKNOWN: u8 = 255;
}

/// Cap on buffered progress lines per job; beyond it lines are shed and
/// counted, mirroring the journal's backpressure-by-shedding contract.
const PROGRESS_CAP: usize = 256;

/// Current wall clock as Unix milliseconds — the time base for
/// journalled acceptance stamps and [`crate::proto::JobSpec::deadline_ms`]
/// deadlines (both must survive restarts, so `Instant` cannot carry them).
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// What an executor receives when it claims a job.
#[derive(Debug)]
pub struct Claimed {
    /// The submitted specification, moved out of the table.
    pub spec: JobSpec,
    /// This execution attempt, counting from 1.
    pub attempt: u32,
    /// Acceptance stamp (Unix ms) the deadline is measured from.
    pub accepted_unix_ms: u64,
}

/// Terminal output of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// `true` when the job completed with a fully legal / converged
    /// result.
    pub ok: bool,
    /// Result DEF text (empty for training jobs and failures).
    pub def: String,
    /// JSON stats object (see `exec::JobStats`).
    pub stats: String,
}

/// One job's full lifecycle record.
///
/// Memory discipline: the heavy parts of [`JobSpec`] (DEF/LEF text) are
/// moved out by [`JobTable::claim`] when the job starts running, dropped
/// on [`JobTable::cancel`], and the whole entry is evicted by
/// [`JobTable::reap_terminal`] once its result was delivered — so the
/// table's footprint is bounded by in-flight work plus a capped window of
/// delivered results, not by the server's lifetime job count.
#[derive(Debug)]
pub struct JobEntry {
    /// The submitted specification (payloads emptied once RUNNING).
    pub spec: JobSpec,
    /// Current state code (see [`state`]).
    pub state: u8,
    /// Buffered progress lines (JSONL), capped at `PROGRESS_CAP` (256).
    pub progress: Vec<String>,
    /// Progress lines shed past the cap.
    pub progress_dropped: u64,
    /// Terminal outcome, set exactly once.
    pub outcome: Option<JobOutcome>,
    /// Error text for FAILED jobs.
    pub error: Option<String>,
    /// `true` once some connection received the terminal RESULT frame.
    pub delivered: bool,
    /// Submission time (for queue-latency accounting).
    pub submitted: Instant,
    /// Time the job reached a terminal state (for eviction TTLs).
    pub finished: Option<Instant>,
    /// Acceptance wall clock (Unix ms); deadlines measure from here.
    pub accepted_unix_ms: u64,
    /// Execution attempts started (0 until first claim).
    pub attempt: u32,
    /// Admission-control cost charged for this job (released when it
    /// reaches a terminal state).
    pub cost: u64,
    /// When set, the job is queued *logically* but not in the queue — it is
    /// backing off after a transient failure; the sweep re-enqueues it
    /// once this instant passes.
    pub retry_at: Option<Instant>,
}

/// Shared registry of every job the server has accepted.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Mutex<HashMap<JobId, JobEntry>>,
    next_id: AtomicU64,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new queued job and returns its id.
    pub fn insert(&self, spec: JobSpec) -> JobId {
        self.insert_with(spec, 0, unix_ms_now())
    }

    /// [`insert`](Self::insert) with an explicit admission cost and
    /// acceptance stamp (what the server journals).
    pub fn insert_with(&self, spec: JobSpec, cost: u64, accepted_unix_ms: u64) -> JobId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = JobEntry {
            spec,
            state: state::QUEUED,
            progress: Vec::new(),
            progress_dropped: 0,
            outcome: None,
            error: None,
            delivered: false,
            submitted: Instant::now(),
            finished: None,
            accepted_unix_ms,
            attempt: 0,
            cost,
            retry_at: None,
        };
        relock(&self.jobs).insert(id, entry);
        id
    }

    /// Re-registers a journal-recovered job under its *original* id, so
    /// clients polling an id they were given before the crash still find
    /// it. The id counter is bumped past it; terminal recoveries carry
    /// their outcome/error and count as undelivered (a late `GET
    /// /jobs/<id>` serves them).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_recovered(
        &self,
        id: JobId,
        spec: JobSpec,
        job_state: u8,
        outcome: Option<JobOutcome>,
        error: Option<String>,
        attempt: u32,
        accepted_unix_ms: u64,
        cost: u64,
    ) {
        self.next_id.fetch_max(id, Ordering::Relaxed);
        let terminal = matches!(job_state, state::DONE | state::FAILED | state::CANCELLED);
        let entry = JobEntry {
            spec,
            state: job_state,
            progress: Vec::new(),
            progress_dropped: 0,
            outcome,
            error,
            delivered: false,
            submitted: Instant::now(),
            finished: terminal.then(Instant::now),
            accepted_unix_ms,
            attempt,
            cost,
            retry_at: None,
        };
        relock(&self.jobs).insert(id, entry);
    }

    /// Runs `f` on the entry for `id` (no-op returning `None` when the id
    /// is unknown).
    pub fn with<R>(&self, id: JobId, f: impl FnOnce(&mut JobEntry) -> R) -> Option<R> {
        relock(&self.jobs).get_mut(&id).map(f)
    }

    /// Current state code, [`state::UNKNOWN`] for unknown ids.
    pub fn state_of(&self, id: JobId) -> u8 {
        self.with(id, |e| e.state).unwrap_or(state::UNKNOWN)
    }

    /// Number of jobs currently in the RUNNING state.
    pub fn running(&self) -> usize {
        relock(&self.jobs)
            .values()
            .filter(|e| e.state == state::RUNNING)
            .count()
    }

    /// Marks `id` running if it is still queued, moving the submitted spec
    /// out to the claiming executor (the table keeps only the lightweight
    /// shell, so the DEF/LEF text lives exactly once, with the job that
    /// needs it). Increments the attempt counter. Returns `None` when the
    /// job was cancelled in the meantime (the executor skips it) or is
    /// parked for a retry backoff the sweep has not released yet.
    pub fn claim(&self, id: JobId) -> Option<Claimed> {
        self.with(id, |e| {
            if e.state == state::QUEUED && e.retry_at.is_none() {
                e.state = state::RUNNING;
                e.attempt += 1;
                Some(Claimed {
                    spec: std::mem::take(&mut e.spec),
                    attempt: e.attempt,
                    accepted_unix_ms: e.accepted_unix_ms,
                })
            } else {
                None
            }
        })
        .flatten()
    }

    /// Puts a transiently-failed job back to QUEUED with its spec
    /// restored and a backoff stamp; the sweep re-enqueues it once
    /// `retry_at` passes. Returns `false` when the job is no longer
    /// RUNNING (e.g. the table was torn down around it).
    pub fn requeue(&self, id: JobId, spec: JobSpec, retry_at: Instant) -> bool {
        self.with(id, |e| {
            if e.state == state::RUNNING {
                e.state = state::QUEUED;
                e.spec = spec;
                e.retry_at = Some(retry_at);
                true
            } else {
                false
            }
        })
        .unwrap_or(false)
    }

    /// Re-arms the backoff stamp of a queued job (used when the queue is
    /// full at re-enqueue time).
    pub fn schedule_retry(&self, id: JobId, at: Instant) {
        self.with(id, |e| {
            if e.state == state::QUEUED {
                e.retry_at = Some(at);
            }
        });
    }

    /// Ids whose backoff expired: clears their stamps and returns them
    /// for the sweep to push into the queue.
    pub fn take_due_retries(&self, now: Instant) -> Vec<JobId> {
        let mut jobs = relock(&self.jobs);
        let mut due = Vec::new();
        for (&id, e) in jobs.iter_mut() {
            if e.state == state::QUEUED && e.retry_at.is_some_and(|at| at <= now) {
                e.retry_at = None;
                due.push(id);
            }
        }
        due
    }

    /// Ids currently parked on a backoff stamp (failed at drain time
    /// instead of being left to dangle).
    pub fn pending_retries(&self) -> Vec<JobId> {
        relock(&self.jobs)
            .iter()
            .filter(|(_, e)| e.state == state::QUEUED && e.retry_at.is_some())
            .map(|(&id, _)| id)
            .collect()
    }

    /// The admission cost charged for `id` (0 for unknown ids).
    pub fn cost_of(&self, id: JobId) -> u64 {
        self.with(id, |e| e.cost).unwrap_or(0)
    }

    /// Cancels a queued job; running/terminal jobs are left alone. The
    /// STATUS acknowledgement the caller sends *is* the delivery, so the
    /// entry is immediately eligible for [`reap_terminal`](Self::reap_terminal)
    /// and its payloads are dropped here.
    pub fn cancel(&self, id: JobId) -> bool {
        self.with(id, |e| {
            if e.state == state::QUEUED {
                e.state = state::CANCELLED;
                e.spec = JobSpec::default();
                e.delivered = true;
                e.finished = Some(Instant::now());
                true
            } else {
                false
            }
        })
        .unwrap_or(false)
    }

    /// Removes an entry outright (submission that never entered the
    /// queue — the id was never handed to a client).
    pub fn remove(&self, id: JobId) {
        relock(&self.jobs).remove(&id);
    }

    /// Appends a progress event to the job's stream (shedding past the
    /// cap) and mirrors it to the process-global telemetry journal.
    pub fn progress(&self, id: JobId, event: Event) {
        let line = event.to_json_line();
        telemetry::emit(event);
        self.with(id, |e| {
            if e.progress.len() < PROGRESS_CAP {
                e.progress.push(line);
            } else {
                e.progress_dropped += 1;
            }
        });
    }

    /// Records the terminal outcome of a job.
    pub fn finish(&self, id: JobId, outcome: JobOutcome) {
        self.with(id, |e| {
            e.state = state::DONE;
            e.outcome = Some(outcome);
            e.finished = Some(Instant::now());
        });
    }

    /// Records a failure (error text instead of a result).
    pub fn fail(&self, id: JobId, error: String) {
        self.with(id, |e| {
            e.state = state::FAILED;
            e.error = Some(error);
            e.finished = Some(Instant::now());
        });
    }

    /// Evicts delivered terminal entries, bounding the table: everything
    /// older than `ttl` goes, and at most `cap` delivered terminal entries
    /// are kept (oldest evicted first). Undelivered results are exempt —
    /// they stay in the table and the journal until someone collects them,
    /// never silently dropped.
    /// Returns the number of entries evicted.
    pub fn reap_terminal(&self, now: Instant, ttl: Duration, cap: usize) -> usize {
        let mut jobs = relock(&self.jobs);
        let mut reapable: Vec<(JobId, Instant)> = jobs
            .iter()
            .filter(|(_, e)| {
                e.delivered && matches!(e.state, state::DONE | state::FAILED | state::CANCELLED)
            })
            .map(|(&id, e)| (id, e.finished.unwrap_or(e.submitted)))
            .collect();
        // Oldest first, so the cap keeps the most recent results around
        // for late re-queries.
        reapable.sort_by_key(|&(_, at)| at);
        let over_cap = reapable.len().saturating_sub(cap);
        let mut evicted = 0;
        for (i, (id, at)) in reapable.iter().enumerate() {
            if i < over_cap || now.saturating_duration_since(*at) >= ttl {
                jobs.remove(id);
                evicted += 1;
            }
        }
        evicted
    }

    /// Snapshot of (queued, running, terminal) counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let jobs = relock(&self.jobs);
        let mut c = (0, 0, 0);
        for e in jobs.values() {
            match e.state {
                state::QUEUED => c.0 += 1,
                state::RUNNING => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_queued_running_done() {
        let t = JobTable::new();
        let id = t.insert(JobSpec::default());
        assert_eq!(t.state_of(id), state::QUEUED);
        assert!(t.claim(id).is_some());
        assert_eq!(t.state_of(id), state::RUNNING);
        assert!(t.claim(id).is_none(), "claiming twice must fail");
        t.finish(
            id,
            JobOutcome {
                ok: true,
                def: "DEF".into(),
                stats: "{}".into(),
            },
        );
        assert_eq!(t.state_of(id), state::DONE);
        assert_eq!(t.with(id, |e| e.delivered), Some(false));
    }

    #[test]
    fn cancel_only_affects_queued_jobs() {
        let t = JobTable::new();
        let id = t.insert(JobSpec::default());
        assert!(t.cancel(id));
        assert_eq!(t.state_of(id), state::CANCELLED);
        assert!(t.claim(id).is_none(), "cancelled job must not start");
        let id2 = t.insert(JobSpec::default());
        assert!(t.claim(id2).is_some());
        assert!(!t.cancel(id2), "running job is not cancellable");
    }

    #[test]
    fn claim_moves_the_spec_out_of_the_table() {
        let t = JobTable::new();
        let id = t.insert(JobSpec {
            def: "DESIGN big payload".into(),
            ..JobSpec::default()
        });
        let claimed = t.claim(id).expect("claim");
        assert_eq!(claimed.spec.def, "DESIGN big payload");
        assert_eq!(claimed.attempt, 1);
        t.with(id, |e| {
            assert!(
                e.spec.def.is_empty(),
                "DEF text must not be retained once RUNNING"
            );
        });
    }

    #[test]
    fn reap_evicts_delivered_terminal_entries_by_ttl_and_cap() {
        let t = JobTable::new();
        let ttl = Duration::from_secs(60);
        // Three delivered terminal jobs, one undelivered, one running.
        let delivered: Vec<JobId> = (0..3)
            .map(|_| {
                let id = t.insert(JobSpec::default());
                t.claim(id);
                t.finish(
                    id,
                    JobOutcome {
                        ok: true,
                        def: String::new(),
                        stats: "{}".into(),
                    },
                );
                t.with(id, |e| e.delivered = true);
                id
            })
            .collect();
        let undelivered = t.insert(JobSpec::default());
        t.claim(undelivered);
        t.fail(undelivered, "boom".into());
        let running = t.insert(JobSpec::default());
        t.claim(running);

        // Within TTL and under cap: nothing to do.
        assert_eq!(t.reap_terminal(Instant::now(), ttl, 8), 0);
        // Cap of 1 evicts the two oldest delivered entries.
        assert_eq!(t.reap_terminal(Instant::now(), ttl, 1), 2);
        assert_eq!(t.state_of(delivered[0]), state::UNKNOWN);
        assert_eq!(t.state_of(delivered[1]), state::UNKNOWN);
        assert_eq!(t.state_of(delivered[2]), state::DONE);
        // TTL expiry evicts the last delivered one; the undelivered
        // failure and the running job survive.
        assert_eq!(t.reap_terminal(Instant::now() + ttl, ttl, 8), 1);
        assert_eq!(t.state_of(delivered[2]), state::UNKNOWN);
        assert_eq!(t.state_of(undelivered), state::FAILED);
        assert_eq!(t.state_of(running), state::RUNNING);
    }

    #[test]
    fn cancel_drops_payload_and_marks_delivered() {
        let t = JobTable::new();
        let id = t.insert(JobSpec {
            def: "DESIGN payload".into(),
            ..JobSpec::default()
        });
        assert!(t.cancel(id));
        t.with(id, |e| {
            assert!(e.spec.def.is_empty());
            assert!(e.delivered);
        });
        // An immediately-reapable entry: the cancel ACK was the delivery.
        assert_eq!(t.reap_terminal(Instant::now(), Duration::ZERO, 0), 1);
    }

    #[test]
    fn remove_discards_a_never_queued_entry() {
        let t = JobTable::new();
        let id = t.insert(JobSpec::default());
        t.remove(id);
        assert_eq!(t.state_of(id), state::UNKNOWN);
    }

    #[test]
    fn progress_sheds_past_the_cap() {
        let t = JobTable::new();
        let id = t.insert(JobSpec::default());
        for i in 0..(PROGRESS_CAP + 10) {
            t.progress(id, Event::new("tick").with("i", i as u64));
        }
        t.with(id, |e| {
            assert_eq!(e.progress.len(), PROGRESS_CAP);
            assert_eq!(e.progress_dropped, 10);
        });
    }

    #[test]
    fn unknown_ids_answer_unknown() {
        let t = JobTable::new();
        assert_eq!(t.state_of(99), state::UNKNOWN);
        assert!(t.claim(99).is_none());
    }

    #[test]
    fn requeue_parks_the_job_until_the_backoff_expires() {
        let t = JobTable::new();
        let id = t.insert(JobSpec {
            def: "DESIGN d ; END".into(),
            ..JobSpec::default()
        });
        let claimed = t.claim(id).expect("first claim");
        let at = Instant::now() + Duration::from_millis(50);
        assert!(t.requeue(id, claimed.spec, at));
        assert_eq!(t.state_of(id), state::QUEUED);
        assert!(
            t.claim(id).is_none(),
            "parked jobs must not be claimable before the sweep releases them"
        );
        assert!(t.take_due_retries(Instant::now()).is_empty());
        assert_eq!(t.pending_retries(), vec![id]);
        let due = t.take_due_retries(at + Duration::from_millis(1));
        assert_eq!(due, vec![id]);
        assert!(t.pending_retries().is_empty());
        let second = t.claim(id).expect("second claim");
        assert_eq!(second.attempt, 2);
        assert_eq!(second.spec.def, "DESIGN d ; END");
    }

    #[test]
    fn recovered_jobs_keep_their_id_and_bump_the_counter() {
        let t = JobTable::new();
        t.insert_recovered(
            7,
            JobSpec::default(),
            state::QUEUED,
            None,
            None,
            2,
            1234,
            10,
        );
        assert_eq!(t.state_of(7), state::QUEUED);
        assert_eq!(t.cost_of(7), 10);
        let claimed = t.claim(7).expect("claim recovered");
        assert_eq!(claimed.attempt, 3);
        assert_eq!(claimed.accepted_unix_ms, 1234);
        let fresh = t.insert(JobSpec::default());
        assert!(fresh > 7, "id counter must move past recovered ids");
        // A recovered terminal result is undelivered until someone asks.
        t.insert_recovered(
            3,
            JobSpec::default(),
            state::DONE,
            Some(JobOutcome {
                ok: true,
                def: "DEF".into(),
                stats: "{}".into(),
            }),
            None,
            1,
            99,
            0,
        );
        assert_eq!(
            t.with(3, |e| (e.state, e.delivered)),
            Some((state::DONE, false))
        );
    }
}
