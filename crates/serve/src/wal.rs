//! Write-ahead job journal: crash durability for accepted work.
//!
//! Before the server acknowledges a submission (ACCEPTED frame / HTTP
//! 202), the job is appended to an on-disk journal and fsynced — the ack
//! *is* the durability contract. Every later state transition (RUNNING,
//! REQUEUED, DONE, FAILED, CANCELLED, DELIVERED) is journalled too, with
//! terminal outcomes fsynced before the RESULT frame is sent, so a crash
//! at any instant leaves the journal describing exactly what the server
//! promised. On restart [`Wal::open`] replays the journal: non-terminal
//! jobs are re-enqueued (training jobs resume from their
//! `CheckpointStore` generation), terminal-but-undelivered results are
//! served from the journal, and delivered terminals are forgotten.
//!
//! # Record format
//!
//! The journal is a sequence of segments `seg-<seq>.wal`. Each record is
//! CRC-32-framed exactly like the wire protocol:
//!
//! ```text
//! +-------+------+-------------+-----------+----------------+
//! | magic | type | payload_len | crc32     | payload        |
//! | RLWJ  | u8   | u32 LE      | u32 LE    | payload_len B  |
//! +-------+------+-------------+-----------+----------------+
//! ```
//!
//! The CRC ([`rl_legalizer::crc32`], the same polynomial as the wire
//! frames and the PR-5 checkpoint codec) covers the payload only. Replay
//! tolerates a torn record at the tail of the *final* segment — the
//! on-disk effect of SIGKILL mid-append — by discarding the tail; any
//! other corruption stops replay of that segment and is counted, never
//! guessed around.
//!
//! # Rotation and compaction
//!
//! When the live segment exceeds its size cap, [`Wal::maybe_rotate`]
//! compacts: the set of live jobs (everything not both terminal and
//! delivered, mirrored in memory under the same lock as the appends) is
//! rewritten into a fresh highest-numbered segment, fsynced, and the old
//! segments are deleted. A crash between the fsync and the deletes is
//! harmless: replay applies segments in sequence order and record
//! application is idempotent, so re-reading the old segments before the
//! compacted one reproduces the same state. [`Wal::open`] itself compacts
//! on startup for the same reason, so a torn tail never has new records
//! appended after it.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rl_legalizer::crc32;

use crate::job::{state, JobId, JobOutcome};
use crate::proto::{decode_spec_bytes, encode_spec_bytes, JobSpec};

/// Journal record magic: "RLWJ" (RL-legalizer Write-ahead Journal).
pub const MAGIC: [u8; 4] = *b"RLWJ";

/// Fixed record header: magic (4) + type (1) + payload length (4) + CRC (4).
pub const HEADER_LEN: usize = 13;

/// Record types.
mod rec {
    /// Job accepted: id, acceptance wall-clock, attempt, optional spec.
    pub const ACCEPTED: u8 = 0x01;
    /// An executor claimed the job (attempt counter).
    pub const RUNNING: u8 = 0x02;
    /// A transient failure re-queued the job for another attempt.
    pub const REQUEUED: u8 = 0x03;
    /// Terminal success: ok flag, result DEF, stats JSON.
    pub const DONE: u8 = 0x04;
    /// Terminal failure: error text.
    pub const FAILED: u8 = 0x05;
    /// Cancelled while queued (the cancel ACK is the delivery).
    pub const CANCELLED: u8 = 0x06;
    /// The terminal result reached a client.
    pub const DELIVERED: u8 = 0x07;
}

/// A job as reconstructed from the journal (and mirrored in memory for
/// compaction).
#[derive(Debug, Clone)]
pub struct LiveJob {
    /// Journalled job id (ids survive restarts).
    pub id: JobId,
    /// The submitted spec; `None` once terminal (payloads are dropped from
    /// the journal's live set exactly like the job table drops them).
    pub spec: Option<JobSpec>,
    /// Acceptance wall-clock (Unix ms) — deadlines survive restarts.
    pub accepted_unix_ms: u64,
    /// Execution attempts started so far.
    pub attempt: u32,
    /// Last journalled state code (see [`crate::job::state`]).
    pub state: u8,
    /// Terminal outcome for DONE jobs.
    pub outcome: Option<JobOutcome>,
    /// Error text for FAILED jobs.
    pub error: Option<String>,
}

impl LiveJob {
    fn terminal(&self) -> bool {
        matches!(self.state, state::DONE | state::FAILED | state::CANCELLED)
    }
}

/// What [`Wal::open`] observed while replaying.
#[derive(Debug, Default, Clone)]
pub struct ReplayReport {
    /// Segments read.
    pub segments: usize,
    /// Complete records applied.
    pub records: u64,
    /// 1 when the final segment ended in a torn record (discarded).
    pub torn_tail: u64,
    /// Records abandoned to CRC/layout corruption in non-final positions.
    pub corrupt: u64,
    /// Live jobs recovered (non-terminal or undelivered terminal).
    pub jobs: usize,
}

struct WalInner {
    file: File,
    seg_seq: u64,
    seg_bytes: u64,
    live: BTreeMap<JobId, LiveJob>,
}

impl WalInner {
    /// Appends one framed record to the live segment and fsyncs it when
    /// `sync`. `seg_bytes` advances only once the write succeeded, so it
    /// never counts bytes that are not in the file.
    fn append(&mut self, bytes: &[u8], sync: bool) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.seg_bytes += bytes.len() as u64;
        if sync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// [`append`](Self::append) for the callers with no one to hand an
    /// error to: a failure is counted in `serve.wal.io_errors`.
    fn append_counted(&mut self, bytes: &[u8], sync: bool) {
        if self.append(bytes, sync).is_err() && !telemetry::disabled() {
            telemetry::counter("serve.wal.io_errors").inc();
        }
    }
}

/// The write-ahead journal. One per server, shared by the event loop and
/// the executors; all appends and the compaction run under one lock so
/// the in-memory live set is always consistent with the bytes on disk.
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:06}.wal"))
}

fn sync_dir(dir: &Path) {
    // Directory fsync makes creates/deletes durable; platforms where
    // directories cannot be opened lose only durability, not atomicity
    // (same tolerance as fsio::write_atomic).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn frame_record(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(ty);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn accepted_payload(id: JobId, unix_ms: u64, attempt: u32, spec: Option<&JobSpec>) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&id.to_le_bytes());
    p.extend_from_slice(&unix_ms.to_le_bytes());
    p.extend_from_slice(&attempt.to_le_bytes());
    match spec {
        Some(s) => {
            let bytes = encode_spec_bytes(s);
            p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            p.extend_from_slice(&bytes);
        }
        None => p.extend_from_slice(&0u32.to_le_bytes()),
    }
    p
}

/// One parsed record.
enum Record {
    Accepted {
        id: JobId,
        unix_ms: u64,
        attempt: u32,
        spec: Option<JobSpec>,
    },
    Running {
        id: JobId,
        attempt: u32,
    },
    Requeued {
        id: JobId,
        attempt: u32,
    },
    Done {
        id: JobId,
        outcome: JobOutcome,
    },
    Failed {
        id: JobId,
        error: String,
    },
    Cancelled {
        id: JobId,
    },
    Delivered {
        id: JobId,
    },
}

/// Bounds-checked little-endian payload reader (journal-local twin of the
/// wire protocol's; kept private to each codec on purpose — the two
/// formats must be free to diverge).
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.b.len())?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn str_block(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
    fn done(self) -> Option<()> {
        (self.pos == self.b.len()).then_some(())
    }
}

fn parse_record(ty: u8, payload: &[u8]) -> Option<Record> {
    let mut r = Rd { b: payload, pos: 0 };
    let rec = match ty {
        rec::ACCEPTED => {
            let id = r.u64()?;
            let unix_ms = r.u64()?;
            let attempt = r.u32()?;
            let spec_len = r.u32()? as usize;
            let spec = if spec_len == 0 {
                None
            } else {
                Some(decode_spec_bytes(r.take(spec_len)?).ok()?)
            };
            Record::Accepted {
                id,
                unix_ms,
                attempt,
                spec,
            }
        }
        rec::RUNNING => Record::Running {
            id: r.u64()?,
            attempt: r.u32()?,
        },
        rec::REQUEUED => Record::Requeued {
            id: r.u64()?,
            attempt: r.u32()?,
        },
        rec::DONE => Record::Done {
            id: r.u64()?,
            outcome: JobOutcome {
                ok: r.u8()? != 0,
                def: r.str_block()?,
                stats: r.str_block()?,
            },
        },
        rec::FAILED => Record::Failed {
            id: r.u64()?,
            error: r.str_block()?,
        },
        rec::CANCELLED => Record::Cancelled { id: r.u64()? },
        rec::DELIVERED => Record::Delivered { id: r.u64()? },
        _ => return None,
    };
    r.done()?;
    Some(rec)
}

/// Applies one record to the live set. Idempotent: re-applying a
/// compacted restatement of existing state lands on the same state.
fn apply(live: &mut BTreeMap<JobId, LiveJob>, record: Record) {
    match record {
        Record::Accepted {
            id,
            unix_ms,
            attempt,
            spec,
        } => {
            // A spec-less ACCEPTED is a compaction restatement of a
            // terminal job; the DONE/FAILED record written right after
            // it supplies the real state. Until then QUEUED is the
            // correct provisional state either way.
            live.insert(
                id,
                LiveJob {
                    id,
                    spec,
                    accepted_unix_ms: unix_ms,
                    attempt,
                    state: state::QUEUED,
                    outcome: None,
                    error: None,
                },
            );
        }
        Record::Running { id, attempt } | Record::Requeued { id, attempt } => {
            if let Some(j) = live.get_mut(&id) {
                j.attempt = attempt;
                // Both map to "will be re-enqueued on recovery": a crash
                // mid-run and a crash mid-backoff recover identically.
                j.state = state::QUEUED;
            }
        }
        Record::Done { id, outcome } => {
            if let Some(j) = live.get_mut(&id) {
                j.state = state::DONE;
                j.outcome = Some(outcome);
                j.spec = None;
            }
        }
        Record::Failed { id, error } => {
            if let Some(j) = live.get_mut(&id) {
                j.state = state::FAILED;
                j.error = Some(error);
                j.spec = None;
            }
        }
        Record::Cancelled { id } => {
            // The cancel ACK was the delivery: nothing left to recover.
            live.remove(&id);
        }
        Record::Delivered { id } => {
            let gone = live.get(&id).is_some_and(LiveJob::terminal);
            if gone {
                live.remove(&id);
            }
        }
    }
}

/// Serializes the live set as a compacted segment: one ACCEPTED
/// restatement per job, followed by its terminal record when it has one.
fn snapshot_bytes(live: &BTreeMap<JobId, LiveJob>) -> Vec<u8> {
    let mut out = Vec::new();
    for job in live.values() {
        out.extend_from_slice(&frame_record(
            rec::ACCEPTED,
            &accepted_payload(job.id, job.accepted_unix_ms, job.attempt, job.spec.as_ref()),
        ));
        match job.state {
            state::DONE => {
                if let Some(o) = &job.outcome {
                    let mut p = Vec::new();
                    p.extend_from_slice(&job.id.to_le_bytes());
                    p.push(u8::from(o.ok));
                    put_str(&mut p, &o.def);
                    put_str(&mut p, &o.stats);
                    out.extend_from_slice(&frame_record(rec::DONE, &p));
                }
            }
            state::FAILED => {
                let mut p = Vec::new();
                p.extend_from_slice(&job.id.to_le_bytes());
                put_str(&mut p, job.error.as_deref().unwrap_or("unknown"));
                out.extend_from_slice(&frame_record(rec::FAILED, &p));
            }
            _ => {}
        }
    }
    out
}

/// Parses every record in `bytes`, applying them to `live`. Returns
/// `(records_applied, torn_tail, corrupt)`.
fn replay_segment(bytes: &[u8], live: &mut BTreeMap<JobId, LiveJob>) -> (u64, bool, u64) {
    let mut pos = 0usize;
    let mut applied = 0u64;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < HEADER_LEN {
            return (applied, true, 0);
        }
        if rest[0..4] != MAGIC {
            // Framing lost mid-segment: everything after is unreadable.
            return (applied, false, 1);
        }
        let ty = rest[4];
        let len = u32::from_le_bytes(rest[5..9].try_into().expect("4")) as usize;
        let expected = u32::from_le_bytes(rest[9..13].try_into().expect("4"));
        if rest.len() < HEADER_LEN + len {
            // The record's header landed but its payload did not: the
            // classic torn tail of a SIGKILL mid-append.
            return (applied, true, 0);
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != expected {
            return (applied, true, 0);
        }
        match parse_record(ty, payload) {
            Some(record) => apply(live, record),
            // CRC passed but the layout is unknown (version skew):
            // count it and stop — later records may depend on it.
            None => return (applied, false, 1),
        }
        applied += 1;
        pos += HEADER_LEN + len;
    }
    (applied, false, 0)
}

impl Wal {
    /// Opens (or creates) the journal in `dir`, replaying any existing
    /// segments, then compacts the recovered live set into a fresh
    /// segment so appends never follow a torn tail. Returns the journal,
    /// the recovered jobs, and the replay report.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the compacted
    /// segment. Unreadable *content* never errors — it is counted in the
    /// report instead.
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<(Self, Vec<LiveJob>, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let mut seqs: Vec<u64> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_prefix("seg-")?
                    .strip_suffix(".wal")?
                    .parse::<u64>()
                    .ok()
            })
            .collect();
        seqs.sort_unstable();

        let mut live = BTreeMap::new();
        let mut report = ReplayReport {
            segments: seqs.len(),
            ..ReplayReport::default()
        };
        for (i, &seq) in seqs.iter().enumerate() {
            let bytes = fs::read(seg_path(dir, seq)).unwrap_or_default();
            let (applied, torn, corrupt) = replay_segment(&bytes, &mut live);
            report.records += applied;
            report.corrupt += corrupt;
            if torn {
                if i + 1 == seqs.len() {
                    report.torn_tail += 1;
                } else {
                    // A torn tail anywhere but the final segment means a
                    // segment was corrupted after it was sealed.
                    report.corrupt += 1;
                }
            }
        }
        report.jobs = live.len();

        // Compact into a fresh segment numbered past everything seen, so
        // new appends never extend a (possibly torn) old tail. Old
        // segments are deleted only after the new one is durable.
        let seg_seq = seqs.last().copied().unwrap_or(0) + 1;
        let path = seg_path(dir, seg_seq);
        let snapshot = snapshot_bytes(&live);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.write_all(&snapshot)?;
        file.sync_data()?;
        sync_dir(dir);
        for &seq in &seqs {
            let _ = fs::remove_file(seg_path(dir, seq));
        }
        sync_dir(dir);

        let recovered: Vec<LiveJob> = live.values().cloned().collect();
        let wal = Self {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(4096),
            inner: Mutex::new(WalInner {
                file,
                seg_seq,
                seg_bytes: snapshot.len() as u64,
                live,
            }),
        };
        Ok((wal, recovered, report))
    }

    /// The highest job id the journal knows (0 when empty) — the job
    /// table's id counter must start past it.
    pub fn max_id(&self) -> JobId {
        let inner = relock(&self.inner);
        inner.live.keys().next_back().copied().unwrap_or(0)
    }

    /// Bytes appended to the current segment so far.
    pub fn current_segment_len(&self) -> u64 {
        relock(&self.inner).seg_bytes
    }

    /// Path of the segment currently being appended to.
    pub fn current_segment_path(&self) -> PathBuf {
        seg_path(&self.dir, relock(&self.inner).seg_seq)
    }

    /// Journals an acceptance. Fsynced: returns only once the record is
    /// durable, so the ACCEPTED frame sent after this call is an honest
    /// promise.
    ///
    /// # Errors
    ///
    /// The append's I/O error; the caller must *reject* the submission
    /// when this fails (an un-journalled ack would be a lie).
    pub fn append_accepted(&self, id: JobId, unix_ms: u64, spec: &JobSpec) -> io::Result<()> {
        let payload = accepted_payload(id, unix_ms, 0, Some(spec));
        let bytes = frame_record(rec::ACCEPTED, &payload);
        let mut inner = relock(&self.inner);
        inner.append(&bytes, true)?;
        inner.live.insert(
            id,
            LiveJob {
                id,
                spec: Some(spec.clone()),
                accepted_unix_ms: unix_ms,
                attempt: 0,
                state: state::QUEUED,
                outcome: None,
                error: None,
            },
        );
        Ok(())
    }

    /// Journals a claim (attempt start). Not fsynced — losing it only
    /// turns a RUNNING job back into a QUEUED one on recovery, which
    /// re-enqueues either way.
    pub fn append_running(&self, id: JobId, attempt: u32) {
        let mut p = Vec::new();
        p.extend_from_slice(&id.to_le_bytes());
        p.extend_from_slice(&attempt.to_le_bytes());
        let bytes = frame_record(rec::RUNNING, &p);
        let mut inner = relock(&self.inner);
        inner.append_counted(&bytes, false);
        if let Some(j) = inner.live.get_mut(&id) {
            j.attempt = attempt;
            j.state = state::RUNNING;
        }
    }

    /// Journals a transient-failure requeue. Not fsynced (same argument
    /// as [`append_running`](Self::append_running)).
    pub fn append_requeued(&self, id: JobId, attempt: u32) {
        let mut p = Vec::new();
        p.extend_from_slice(&id.to_le_bytes());
        p.extend_from_slice(&attempt.to_le_bytes());
        let bytes = frame_record(rec::REQUEUED, &p);
        let mut inner = relock(&self.inner);
        inner.append_counted(&bytes, false);
        if let Some(j) = inner.live.get_mut(&id) {
            j.attempt = attempt;
            j.state = state::QUEUED;
        }
    }

    /// Journals a terminal success. Fsynced *before* the result is
    /// delivered: a client that saw a RESULT frame will never watch the
    /// same job re-run to a different answer after a crash.
    pub fn append_done(&self, id: JobId, outcome: &JobOutcome) {
        let mut p = Vec::new();
        p.extend_from_slice(&id.to_le_bytes());
        p.push(u8::from(outcome.ok));
        put_str(&mut p, &outcome.def);
        put_str(&mut p, &outcome.stats);
        let bytes = frame_record(rec::DONE, &p);
        let mut inner = relock(&self.inner);
        inner.append_counted(&bytes, true);
        if let Some(j) = inner.live.get_mut(&id) {
            j.state = state::DONE;
            j.outcome = Some(outcome.clone());
            j.spec = None;
        }
    }

    /// Journals a terminal failure (fsynced, like
    /// [`append_done`](Self::append_done)).
    pub fn append_failed(&self, id: JobId, error: &str) {
        let mut p = Vec::new();
        p.extend_from_slice(&id.to_le_bytes());
        put_str(&mut p, error);
        let bytes = frame_record(rec::FAILED, &p);
        let mut inner = relock(&self.inner);
        inner.append_counted(&bytes, true);
        if let Some(j) = inner.live.get_mut(&id) {
            j.state = state::FAILED;
            j.error = Some(error.to_string());
            j.spec = None;
        }
    }

    /// Journals a cancellation (fsynced before the CANCELLED status ack).
    pub fn append_cancelled(&self, id: JobId) {
        let bytes = frame_record(rec::CANCELLED, &id.to_le_bytes());
        let mut inner = relock(&self.inner);
        inner.append_counted(&bytes, true);
        inner.live.remove(&id);
    }

    /// Journals a delivery. Not fsynced: losing it re-serves a result
    /// after recovery (idempotent), never re-runs the job.
    pub fn append_delivered(&self, id: JobId) {
        let bytes = frame_record(rec::DELIVERED, &id.to_le_bytes());
        let mut inner = relock(&self.inner);
        inner.append_counted(&bytes, false);
        let gone = inner.live.get(&id).is_some_and(LiveJob::terminal);
        if gone {
            inner.live.remove(&id);
        }
    }

    /// Rotates + compacts when the current segment exceeds its cap.
    /// Returns `true` when a rotation happened.
    pub fn maybe_rotate(&self) -> bool {
        if relock(&self.inner).seg_bytes < self.segment_bytes {
            return false;
        }
        self.rotate(true).is_ok()
    }

    /// Forces a rotation. `delete_old = false` leaves the superseded
    /// segments on disk — exactly the on-disk state of a crash between a
    /// compaction's fsync and its deletes; the fuzz oracle uses it to
    /// prove replay is idempotent across that window.
    ///
    /// # Errors
    ///
    /// I/O errors writing the new segment (the old segment then remains
    /// the live one).
    pub fn rotate(&self, delete_old: bool) -> io::Result<()> {
        let mut inner = relock(&self.inner);
        let old_seq = inner.seg_seq;
        let new_seq = old_seq + 1;
        let path = seg_path(&self.dir, new_seq);
        let snapshot = snapshot_bytes(&inner.live);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.write_all(&snapshot)?;
        file.sync_data()?;
        sync_dir(&self.dir);
        inner.file = file;
        inner.seg_seq = new_seq;
        inner.seg_bytes = snapshot.len() as u64;
        if delete_old {
            let _ = fs::remove_file(seg_path(&self.dir, old_seq));
            sync_dir(&self.dir);
        }
        if !telemetry::disabled() {
            telemetry::counter("serve.wal.rotations").inc();
        }
        Ok(())
    }

    /// Number of jobs in the in-memory live set (bounded by in-flight
    /// work plus undelivered terminals).
    pub fn live_len(&self) -> usize {
        relock(&self.inner).live.len()
    }
}

fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rlleg-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(def: &str) -> JobSpec {
        JobSpec {
            def: def.into(),
            ..JobSpec::default()
        }
    }

    fn outcome(def: &str) -> JobOutcome {
        JobOutcome {
            ok: true,
            def: def.into(),
            stats: "{\"legalized\":1}".into(),
        }
    }

    #[test]
    fn accepted_jobs_survive_reopen() {
        let dir = temp_dir("accept");
        {
            let (wal, recovered, _) = Wal::open(&dir, 1 << 20).expect("open");
            assert!(recovered.is_empty());
            wal.append_accepted(1, 111, &spec("DESIGN a ; END"))
                .expect("a");
            wal.append_accepted(2, 222, &spec("DESIGN b ; END"))
                .expect("b");
            wal.append_running(1, 1);
        }
        let (wal, recovered, report) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(report.jobs, 2);
        assert_eq!(recovered.len(), 2);
        let a = recovered.iter().find(|j| j.id == 1).expect("job 1");
        assert_eq!(a.accepted_unix_ms, 111);
        assert_eq!(a.attempt, 1);
        assert_eq!(a.state, state::QUEUED, "RUNNING recovers as re-enqueue");
        assert_eq!(a.spec.as_ref().expect("spec").def, "DESIGN a ; END");
        assert_eq!(wal.max_id(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_undelivered_is_served_delivered_is_forgotten() {
        let dir = temp_dir("terminal");
        {
            let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
            for id in 1..=3u64 {
                wal.append_accepted(id, id * 10, &spec("DESIGN d ; END"))
                    .expect("accept");
                wal.append_running(id, 1);
            }
            wal.append_done(1, &outcome("DESIGN out1 ; END"));
            wal.append_done(2, &outcome("DESIGN out2 ; END"));
            wal.append_delivered(2);
            wal.append_failed(3, "boom");
        }
        let (_, recovered, _) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(recovered.len(), 2, "delivered job 2 is forgotten");
        let done = recovered.iter().find(|j| j.id == 1).expect("job 1");
        assert_eq!(done.state, state::DONE);
        assert_eq!(
            done.outcome.as_ref().expect("outcome").def,
            "DESIGN out1 ; END"
        );
        assert!(done.spec.is_none(), "terminal jobs drop their spec");
        let failed = recovered.iter().find(|j| j.id == 3).expect("job 3");
        assert_eq!(failed.state, state::FAILED);
        assert_eq!(failed.error.as_deref(), Some("boom"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_jobs_are_forgotten() {
        let dir = temp_dir("cancel");
        {
            let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
            wal.append_accepted(1, 1, &spec("DESIGN d ; END"))
                .expect("a");
            wal.append_cancelled(1);
        }
        let (_, recovered, _) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert!(recovered.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = temp_dir("torn");
        let path;
        {
            let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
            wal.append_accepted(1, 1, &spec("DESIGN a ; END"))
                .expect("a");
            wal.append_accepted(2, 2, &spec("DESIGN b ; END"))
                .expect("b");
            path = wal.current_segment_path();
        }
        // Cut the final record in half: SIGKILL mid-append.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
        let (_, recovered, report) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(report.torn_tail, 1);
        assert_eq!(recovered.len(), 1, "only the fully-synced job survives");
        assert_eq!(recovered[0].id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_and_crash_window_replays_identically() {
        let dir = temp_dir("rotate");
        let (wal, _, _) = Wal::open(&dir, 4096).expect("open");
        wal.append_accepted(1, 1, &spec("DESIGN live ; END"))
            .expect("a");
        wal.append_accepted(2, 2, &spec("DESIGN done ; END"))
            .expect("b");
        wal.append_running(2, 1);
        wal.append_done(2, &outcome("DESIGN out ; END"));
        wal.append_delivered(2);
        // Crash window: new compacted segment exists, old one not yet
        // deleted.
        wal.rotate(false).expect("rotate");
        assert!(
            fs::read_dir(&dir).expect("dir").count() >= 2,
            "old segment must still be present"
        );
        drop(wal);
        let (_, recovered, _) = Wal::open(&dir, 4096).expect("reopen with both");
        assert_eq!(recovered.len(), 1, "delivered job stays forgotten");
        assert_eq!(recovered[0].id, 1);
        assert_eq!(
            recovered[0].spec.as_ref().expect("spec").def,
            "DESIGN live ; END"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn maybe_rotate_honors_the_size_cap() {
        let dir = temp_dir("cap");
        let (wal, _, _) = Wal::open(&dir, 4096).expect("open");
        assert!(!wal.maybe_rotate(), "empty journal stays put");
        let big = "X".repeat(2048);
        wal.append_accepted(1, 1, &spec(&big)).expect("a");
        wal.append_done(1, &outcome(&big));
        wal.append_delivered(1);
        assert!(wal.current_segment_len() > 4096);
        assert!(wal.maybe_rotate(), "over-cap segment must rotate");
        assert!(
            wal.current_segment_len() < 100,
            "compaction of an empty live set is near-empty, got {}",
            wal.current_segment_len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_appends_do_not_advance_the_segment_length() {
        let dir = temp_dir("rofail");
        let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
        wal.append_accepted(1, 1, &spec("DESIGN a ; END"))
            .expect("a");
        // Swap the live segment's handle for a read-only one: every
        // write from here on fails.
        let read_only = File::open(wal.current_segment_path()).expect("reopen read-only");
        relock(&wal.inner).file = read_only;
        let before = wal.current_segment_len();
        wal.append_done(1, &outcome("DESIGN out ; END"));
        assert_eq!(
            wal.current_segment_len(),
            before,
            "a failed append must not count its bytes"
        );
        assert!(
            wal.append_accepted(2, 2, &spec("DESIGN b ; END")).is_err(),
            "a failed acceptance must reach the caller"
        );
        assert_eq!(wal.current_segment_len(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_idempotent() {
        let dir = temp_dir("idem");
        {
            let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
            wal.append_accepted(1, 1, &spec("DESIGN a ; END"))
                .expect("a");
            wal.append_accepted(2, 2, &spec("DESIGN b ; END"))
                .expect("b");
            wal.append_running(1, 1);
            wal.append_failed(1, "transient");
        }
        let (_, first, _) = Wal::open(&dir, 1 << 20).expect("first");
        let (_, second, _) = Wal::open(&dir, 1 << 20).expect("second");
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.state, b.state);
            assert_eq!(a.attempt, b.attempt);
            assert_eq!(
                a.spec.as_ref().map(|s| &s.def),
                b.spec.as_ref().map(|s| &s.def)
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
