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
//! # Records
//!
//! The journal is a sequence of segments `seg-<seq>.wal` of records framed
//! by the wire protocol's header code ([`crate::proto`]: magic, type byte,
//! `u32` payload length, CRC-32 of the payload) under [`MAGIC`], with no
//! payload cap. The private `Record` enum is the only description of a
//! record: `Record::encode` is the inverse of `parse_record`,
//! `Record::kind` is the one table of type bytes and of the fsync policy,
//! `apply` is the only code that
//! changes the live set (for replay, appends and compaction alike), and
//! every append takes one path. A failed ACCEPTED reaches its caller and
//! leaves the live set unchanged; any other failed append is counted in
//! `serve.wal.io_errors` and still applies, so the next compaction
//! persists it.
//!
//! Replay reads each segment up to its first bad record and discards the
//! rest of that segment. A record cut short or failing its CRC is a torn
//! tail when it lies in the *final* segment (the on-disk effect of a
//! SIGKILL mid-append) and corruption in any earlier one; a wrong magic,
//! or a payload that passes its CRC but does not parse, is corruption
//! anywhere. Both are counted in the [`ReplayReport`], never guessed
//! around. A segment that cannot be read at all fails [`Wal::open`].
//!
//! # Rotation and compaction
//!
//! When the live segment exceeds its size cap, [`Wal::maybe_rotate`]
//! compacts: the set of live jobs (everything not both terminal and
//! delivered, mirrored in memory under the same lock as the appends) is
//! written aside, fsynced, renamed into a fresh highest-numbered segment,
//! and only then are the old segments deleted. A crash mid-write leaves
//! the old segments whole and the partial file unread; a crash between
//! the rename and the deletes is harmless too: replay applies segments in
//! sequence order and record application is idempotent, so re-reading the
//! old segments before the compacted one reproduces the same state.
//! [`Wal::open`] compacts through the same routine on startup, so a torn
//! tail never has new records appended after it.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::job::{state, JobId, JobOutcome};
use crate::proto::{
    self, decode_spec_bytes, encode_spec_bytes, put_str, JobSpec, ProtoError, Reader,
};

/// Journal record magic: "RLWJ" (RL-legalizer Write-ahead Journal).
pub const MAGIC: [u8; 4] = *b"RLWJ";

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

/// What [`Wal::open`] observed while replaying.
#[derive(Debug, Default, Clone)]
pub struct ReplayReport {
    /// Segments read.
    pub segments: usize,
    /// Complete records applied.
    pub records: u64,
    /// 1 when the final segment ended in a torn record (discarded).
    pub torn_tail: u64,
    /// Records abandoned to corruption (see the module docs).
    pub corrupt: u64,
    /// Live jobs recovered (non-terminal or undelivered terminal).
    pub jobs: usize,
}

/// One journal record.
enum Record {
    /// Job accepted. A compacted segment restates each live job as an
    /// ACCEPTED, without its spec once the job is terminal.
    Accepted {
        id: JobId,
        unix_ms: u64,
        attempt: u32,
        spec: Option<JobSpec>,
    },
    /// An executor claimed the job.
    Running { id: JobId, attempt: u32 },
    /// A transient failure re-queued the job for another attempt.
    Requeued { id: JobId, attempt: u32 },
    /// Terminal success.
    Done { id: JobId, outcome: JobOutcome },
    /// Terminal failure.
    Failed { id: JobId, error: String },
    /// Cancelled while queued (the cancel ACK is the delivery).
    Cancelled { id: JobId },
    /// The terminal result reached a client.
    Delivered { id: JobId },
}

impl Record {
    /// The record's type byte, and whether its append is fsynced before
    /// its writer goes on. Each fsynced record is durable before the frame
    /// that promises it is sent (the ACCEPTED ack, a RESULT, the CANCELLED
    /// ack), so a job a client saw finish never re-runs to another answer.
    /// Losing a RUNNING or REQUEUED only re-enqueues a job that recovery
    /// re-enqueues anyway, and losing a DELIVERED re-serves a result.
    fn kind(&self) -> (u8, bool) {
        match self {
            Record::Accepted { .. } => (0x01, true),
            Record::Running { .. } => (0x02, false),
            Record::Requeued { .. } => (0x03, false),
            Record::Done { .. } => (0x04, true),
            Record::Failed { .. } => (0x05, true),
            Record::Cancelled { .. } => (0x06, true),
            Record::Delivered { .. } => (0x07, false),
        }
    }

    /// Appends the framed record to `out`; the inverse of [`parse_record`].
    fn encode(&self, out: &mut Vec<u8>) {
        let (ty, _) = self.kind();
        proto::seal(out, MAGIC, ty, |p| match self {
            Record::Accepted {
                id,
                unix_ms,
                attempt,
                spec,
            } => {
                p.extend_from_slice(&id.to_le_bytes());
                p.extend_from_slice(&unix_ms.to_le_bytes());
                p.extend_from_slice(&attempt.to_le_bytes());
                let spec = spec.as_ref().map(encode_spec_bytes).unwrap_or_default();
                p.extend_from_slice(&(spec.len() as u32).to_le_bytes());
                p.extend_from_slice(&spec);
            }
            Record::Running { id, attempt } | Record::Requeued { id, attempt } => {
                p.extend_from_slice(&id.to_le_bytes());
                p.extend_from_slice(&attempt.to_le_bytes());
            }
            Record::Done { id, outcome } => {
                p.extend_from_slice(&id.to_le_bytes());
                p.push(u8::from(outcome.ok));
                put_str(p, &outcome.def);
                put_str(p, &outcome.stats);
            }
            Record::Failed { id, error } => {
                p.extend_from_slice(&id.to_le_bytes());
                put_str(p, error);
            }
            Record::Cancelled { id } | Record::Delivered { id } => {
                p.extend_from_slice(&id.to_le_bytes());
            }
        });
    }
}

/// Decodes the payload of a record of type `ty`.
fn parse_record(ty: u8, payload: &[u8]) -> Result<Record, ProtoError> {
    let mut r = Reader::new(payload);
    let record = match ty {
        0x01 => Record::Accepted {
            id: r.u64()?,
            unix_ms: r.u64()?,
            attempt: r.u32()?,
            spec: match r.u32()? as usize {
                0 => None,
                len => Some(decode_spec_bytes(r.take(len)?)?),
            },
        },
        0x02 => Record::Running {
            id: r.u64()?,
            attempt: r.u32()?,
        },
        0x03 => Record::Requeued {
            id: r.u64()?,
            attempt: r.u32()?,
        },
        0x04 => Record::Done {
            id: r.u64()?,
            outcome: JobOutcome {
                ok: r.u8()? != 0,
                def: r.str_block()?,
                stats: r.str_block()?,
            },
        },
        0x05 => Record::Failed {
            id: r.u64()?,
            error: r.str_block()?,
        },
        0x06 => Record::Cancelled { id: r.u64()? },
        0x07 => Record::Delivered { id: r.u64()? },
        other => return Err(ProtoError::UnknownType(other)),
    };
    r.done()?;
    Ok(record)
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
            let terminal = |j: &LiveJob| matches!(j.state, state::DONE | state::FAILED);
            if live.get(&id).is_some_and(terminal) {
                live.remove(&id);
            }
        }
    }
}

impl ReplayReport {
    /// Applies the records of one segment to `live` up to its first bad
    /// record, counting them. A bad record in the `last` segment that is
    /// cut short or fails its CRC is its torn tail; any other is corruption.
    fn replay_segment(&mut self, bytes: &[u8], last: bool, live: &mut BTreeMap<JobId, LiveJob>) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let torn = match proto::unseal(rest, MAGIC, usize::MAX) {
                Ok((ty, payload, len)) => match parse_record(ty, payload) {
                    Ok(record) => {
                        apply(live, record);
                        self.records += 1;
                        rest = &rest[len..];
                        continue;
                    }
                    // The CRC passed but the layout is unknown (version
                    // skew): later records may depend on this one.
                    Err(_) => false,
                },
                // Framing lost: everything after is unreadable.
                Err(ProtoError::BadMagic) => false,
                Err(_) => true,
            };
            if torn && last {
                self.torn_tail += 1;
            } else {
                self.corrupt += 1;
            }
            return;
        }
    }
}

/// Writes the live set as segment `seq` of `dir` — each job's ACCEPTED
/// restatement, followed by its terminal record when it has one — makes it
/// durable, and only then deletes the segments in `superseded`. Returns the
/// new segment, open for appends, and its length.
fn compact(
    dir: &Path,
    seq: u64,
    live: &BTreeMap<JobId, LiveJob>,
    superseded: &[u64],
) -> io::Result<(File, u64)> {
    let mut bytes = Vec::new();
    for job in live.values() {
        let id = job.id;
        Record::Accepted {
            id,
            unix_ms: job.accepted_unix_ms,
            attempt: job.attempt,
            spec: job.spec.clone(),
        }
        .encode(&mut bytes);
        let terminal = match job.state {
            state::DONE => job.outcome.clone().map(|o| Record::Done { id, outcome: o }),
            state::FAILED => job.error.clone().map(|e| Record::Failed { id, error: e }),
            _ => None,
        };
        if let Some(record) = terminal {
            record.encode(&mut bytes);
        }
    }
    // Written aside and renamed once durable: a partial restatement as the
    // final segment would replay a finished job as QUEUED.
    let path = seg_path(dir, seq);
    rlleg_design::fsio::write_atomic(&path, &bytes)?;
    let file = OpenOptions::new().append(true).open(&path)?;
    for &old in superseded {
        let _ = fs::remove_file(seg_path(dir, old));
    }
    sync_dir(dir);
    Ok((file, bytes.len() as u64))
}

struct WalInner {
    file: File,
    seg_seq: u64,
    seg_bytes: u64,
    live: BTreeMap<JobId, LiveJob>,
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

impl Wal {
    /// Opens (or creates) the journal in `dir`, replaying any existing
    /// segments, then compacts the recovered live set into a fresh
    /// segment so appends never follow a torn tail. Returns the journal,
    /// the recovered jobs, and the replay report.
    ///
    /// # Errors
    ///
    /// I/O errors creating or listing the directory, reading a segment, or
    /// writing the compacted segment; nothing is deleted then. Unreadable
    /// *content* never errors — it is counted in the report instead.
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<(Self, Vec<LiveJob>, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let mut seqs = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            let seq = name
                .strip_prefix("seg-")
                .and_then(|n| n.strip_suffix(".wal"));
            seqs.extend(seq.and_then(|n| n.parse::<u64>().ok()));
        }
        seqs.sort_unstable();

        let mut live = BTreeMap::new();
        let mut report = ReplayReport {
            segments: seqs.len(),
            ..ReplayReport::default()
        };
        for (i, &seq) in seqs.iter().enumerate() {
            // A segment that cannot be read must not replay as empty: the
            // compaction below would then delete the jobs it holds.
            let bytes = fs::read(seg_path(dir, seq))?;
            report.replay_segment(&bytes, i + 1 == seqs.len(), &mut live);
        }
        report.jobs = live.len();

        // Compact into a fresh segment numbered past everything seen, so
        // new appends never extend a (possibly torn) old tail.
        let seg_seq = seqs.last().copied().unwrap_or(0) + 1;
        let (file, seg_bytes) = compact(dir, seg_seq, &live, &seqs)?;
        let recovered: Vec<LiveJob> = live.values().cloned().collect();
        let wal = Self {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(4096),
            inner: Mutex::new(WalInner {
                file,
                seg_seq,
                seg_bytes,
                live,
            }),
        };
        Ok((wal, recovered, report))
    }

    /// Bytes appended to the current segment so far.
    pub fn current_segment_len(&self) -> u64 {
        relock(&self.inner).seg_bytes
    }

    /// Path of the segment currently being appended to.
    pub fn current_segment_path(&self) -> PathBuf {
        seg_path(&self.dir, relock(&self.inner).seg_seq)
    }

    /// The one append path: writes the framed `record` to the live
    /// segment, fsynced when [`Record::kind`] says so, and applies it to the
    /// live set. The segment length advances only once the write succeeded,
    /// so it never counts bytes that are not in the file.
    ///
    /// Only an ACCEPTED returns its I/O error, leaving the live set as it
    /// was; any other failure is counted in `serve.wal.io_errors`, and the
    /// record applies anyway so the next compaction persists it.
    fn append(&self, record: Record) -> io::Result<()> {
        let mut bytes = Vec::new();
        record.encode(&mut bytes);
        let (_, fsynced) = record.kind();
        let mut inner = relock(&self.inner);
        let written = {
            let _t = telemetry::span("serve.wal.append");
            inner.file.write_all(&bytes).and_then(|()| {
                inner.seg_bytes += bytes.len() as u64;
                if fsynced {
                    inner.file.sync_data()
                } else {
                    Ok(())
                }
            })
        };
        if let Err(e) = written {
            if matches!(record, Record::Accepted { .. }) {
                return Err(e);
            }
            if !telemetry::disabled() {
                telemetry::counter("serve.wal.io_errors").inc();
            }
        }
        apply(&mut inner.live, record);
        Ok(())
    }

    /// Journals an acceptance; the ACCEPTED frame sent after it returns is
    /// an honest promise.
    ///
    /// # Errors
    ///
    /// The append's I/O error; the caller must *reject* the submission
    /// when this fails (an un-journalled ack would be a lie).
    pub fn append_accepted(&self, id: JobId, unix_ms: u64, spec: &JobSpec) -> io::Result<()> {
        self.append(Record::Accepted {
            id,
            unix_ms,
            attempt: 0,
            spec: Some(spec.clone()),
        })
    }

    /// Journals a claim (attempt start).
    pub fn append_running(&self, id: JobId, attempt: u32) {
        let _ = self.append(Record::Running { id, attempt });
    }

    /// Journals a transient-failure requeue.
    pub fn append_requeued(&self, id: JobId, attempt: u32) {
        let _ = self.append(Record::Requeued { id, attempt });
    }

    /// Journals a terminal success.
    pub fn append_done(&self, id: JobId, outcome: &JobOutcome) {
        let outcome = outcome.clone();
        let _ = self.append(Record::Done { id, outcome });
    }

    /// Journals a terminal failure.
    pub fn append_failed(&self, id: JobId, error: &str) {
        let error = error.to_string();
        let _ = self.append(Record::Failed { id, error });
    }

    /// Journals a cancellation.
    pub fn append_cancelled(&self, id: JobId) {
        let _ = self.append(Record::Cancelled { id });
    }

    /// Journals a delivery.
    pub fn append_delivered(&self, id: JobId) {
        let _ = self.append(Record::Delivered { id });
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
    /// compaction's rename and its deletes; the fuzz oracle uses it to
    /// prove replay is idempotent across that window.
    ///
    /// # Errors
    ///
    /// I/O errors writing the new segment (the old segment then remains
    /// the live one).
    pub fn rotate(&self, delete_old: bool) -> io::Result<()> {
        let mut inner = relock(&self.inner);
        let seq = inner.seg_seq + 1;
        let superseded: &[u64] = if delete_old { &[seq - 1] } else { &[] };
        (inner.file, inner.seg_bytes) = compact(&self.dir, seq, &inner.live, superseded)?;
        inner.seg_seq = seq;
        if !telemetry::disabled() {
            telemetry::counter("serve.wal.rotations").inc();
        }
        Ok(())
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
        let (_, recovered, report) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(report.jobs, 2);
        assert_eq!(recovered.len(), 2);
        let a = recovered.iter().find(|j| j.id == 1).expect("job 1");
        assert_eq!(a.accepted_unix_ms, 111);
        assert_eq!(a.attempt, 1);
        assert_eq!(a.state, state::QUEUED, "RUNNING recovers as re-enqueue");
        assert_eq!(a.spec.as_ref().expect("spec").def, "DESIGN a ; END");
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
    fn unreadable_segment_fails_open_and_deletes_nothing() {
        let dir = temp_dir("unreadable");
        {
            let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
            wal.append_accepted(1, 1, &spec("DESIGN a ; END"))
                .expect("a");
        }
        // Sorts before the real segment and cannot be read: a directory.
        let planted = dir.join("seg-000000.wal");
        fs::create_dir(&planted).expect("plant");
        let names = || {
            let mut v: Vec<_> = fs::read_dir(&dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            v.sort();
            v
        };
        let before = names();
        assert!(Wal::open(&dir, 1 << 20).is_err());
        assert_eq!(names(), before, "a failed open deletes nothing");
        fs::remove_dir(&planted).expect("unplant");
        let (_, recovered, _) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(recovered.len(), 1);
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
    fn compaction_cut_short_by_a_crash_is_not_replayed() {
        let dir = temp_dir("cutshort");
        let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
        wal.append_accepted(1, 1, &spec("DESIGN a ; END"))
            .expect("a");
        wal.append_done(1, &outcome("DESIGN out ; END"));
        // The on-disk state of a kill mid-compaction: the old segment
        // whole, the new one written aside only up to the end of job 1's
        // ACCEPTED restatement, before its DONE.
        wal.rotate(false).expect("rotate");
        let compacted = wal.current_segment_path();
        drop(wal);
        let bytes = fs::read(&compacted).expect("compacted");
        let cut = proto::unseal(&bytes, MAGIC, usize::MAX)
            .expect("restatement")
            .2;
        fs::write(dir.join(".seg-000002.wal.tmp.1"), &bytes[..cut]).expect("aside");
        fs::remove_file(&compacted).expect("unlink");
        let (_, recovered, report) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].state, state::DONE, "job 1 must not regress");
        assert_eq!(
            (report.segments, report.torn_tail, report.corrupt),
            (1, 0, 0)
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
    fn failed_done_is_compacted_and_failed_acceptance_is_not_recovered() {
        let dir = temp_dir("failsem");
        let (wal, _, _) = Wal::open(&dir, 1 << 20).expect("open");
        wal.append_accepted(1, 1, &spec("DESIGN a ; END"))
            .expect("a");
        let read_only = File::open(wal.current_segment_path()).expect("reopen read-only");
        relock(&wal.inner).file = read_only;
        wal.append_done(1, &outcome("DESIGN out ; END"));
        assert!(wal.append_accepted(2, 2, &spec("DESIGN b ; END")).is_err());
        // The DONE never reached the disk, but the live set holds it, so
        // the compacted segment does.
        wal.rotate(true).expect("rotate");
        drop(wal);
        let (_, recovered, _) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(recovered.len(), 1, "the failed acceptance is not recovered");
        assert_eq!(recovered[0].id, 1);
        assert_eq!(recovered[0].state, state::DONE, "served, not re-run");
        assert_eq!(
            recovered[0].outcome.as_ref().expect("outcome").def,
            "DESIGN out ; END"
        );
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
