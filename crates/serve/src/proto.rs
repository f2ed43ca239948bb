//! The `rlleg-serve` wire protocol: CRC-framed, length-prefixed messages,
//! and the framing it shares with the write-ahead journal.
//!
//! Every message is one frame:
//!
//! ```text
//! +-------+------+-------------+-----------+----------------+
//! | magic | type | payload_len | crc32     | payload        |
//! | RLSF  | u8   | u32 LE      | u32 LE    | payload_len B  |
//! +-------+------+-------------+-----------+----------------+
//! ```
//!
//! The CRC (the IEEE CRC-32 of the checkpoint codec,
//! [`rl_legalizer::crc32`]) covers the payload only, so a torn or
//! bit-flipped frame is *detected*, never guessed around. `payload_len` is
//! validated against a caller-supplied cap before any allocation: a header
//! declaring a multi-gigabyte payload is rejected as
//! [`ProtoError::Oversized`] without buffering a single payload byte.
//!
//! Journal records ([`crate::wal`]) use the same header under their own
//! magic (`RLWJ`) and no payload cap. One crate-private codec writes and
//! checks that header for both, and both read payloads with its
//! bounds-checked reader and write text with its `put_str`; each payload
//! layout still lives in its own codec, so the two formats can diverge.
//!
//! Decoding is strict: unknown frame types, short payloads, trailing
//! payload bytes, and non-UTF-8 text blocks are all hard errors. The fuzz
//! oracle (`rlleg-fuzz --only proto`) holds the codec to "`Err`, never
//! panic, never hang" under arbitrary mutation.

use rl_legalizer::crc32;

/// Frame magic: "RLSF" (RL-legalizer Serve Frame).
pub const MAGIC: [u8; 4] = *b"RLSF";

/// Fixed header of every wire frame and journal record: magic (4) + type
/// (1) + payload length (4) + CRC (4).
pub const HEADER_LEN: usize = 13;

/// Default cap on a single frame payload (16 MiB). Servers may configure a
/// smaller cap; the codec never accepts more than this.
pub const MAX_FRAME: usize = 16 << 20;

/// Spec encoding version inside SUBMIT payloads, the only one that
/// decodes: version 3 carries `deadline_ms`/`max_retries` after `job_key`.
/// Any other version is a hard error (version 2 is pinned by
/// `proto_spec_version_skew.hex`).
pub const SPEC_VERSION: u8 = 3;

/// Why a submission was refused (payload of [`Frame::Rejected`]).
pub mod reject {
    /// The job queue is at capacity — retry later (HTTP 429).
    pub const QUEUE_FULL: u16 = 1;
    /// The server is draining for shutdown and accepts no new work.
    pub const DRAINING: u16 = 2;
    /// The request frame or body exceeded the server's size cap.
    pub const OVERSIZED: u16 = 3;
    /// The request was syntactically valid but semantically unusable.
    pub const BAD_REQUEST: u16 = 4;
    /// Admission control shed the job under overload. The reason carries a
    /// `retry_after_ms=N` hint (HTTP 429 + `Retry-After`).
    pub const SHED: u16 = 5;
}

/// What a submitted job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobKind {
    /// Deterministic heuristic legalization (parallel per-Gcell solver).
    Legalize = 0,
    /// RL-ordered legalization with a seeded network under an
    /// [`rl_legalizer::InferenceBudget`] watchdog.
    RlLegalize = 1,
    /// A (small) training run, checkpointed through
    /// [`rl_legalizer::CheckpointStore`] and resumable across restarts.
    Train = 2,
    /// Analytical global placement (`rlleg-gplace` warm refinement) of the
    /// submitted DEF, followed by deterministic legalization of the result.
    Gplace = 3,
}

impl JobKind {
    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        match v {
            0 => Ok(JobKind::Legalize),
            1 => Ok(JobKind::RlLegalize),
            2 => Ok(JobKind::Train),
            3 => Ok(JobKind::Gplace),
            other => Err(ProtoError::Malformed(format!("unknown job kind {other}"))),
        }
    }
}

/// Chaos-injection flag bits in [`JobSpec::flags`]; honored only when the
/// server was started with chaos injection enabled (tests and the chaos
/// harness), ignored otherwise.
pub mod flags {
    /// Panic mid-execution (after parsing / after the first checkpointed
    /// episode) — the "kill mid-job" chaos case.
    pub const CHAOS_PANIC: u8 = 0b0000_0001;
}

/// A fully-described job: what to run, on what input, under which budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Technology the DEF is parsed under: 0 = ICCAD-2017 contest,
    /// 1 = Nangate45.
    pub tech: u8,
    /// Cell ordering for heuristic runs: 0 = size-descending,
    /// 1 = x-ascending, 2 = seeded random.
    pub ordering: u8,
    /// Inner solver threads for the per-Gcell parallel phase
    /// (0 = the server's configured default). Results are bit-identical
    /// for any value; this only trades latency for throughput.
    pub threads: u8,
    /// Chaos-injection bits (see [`flags`]); zero in production traffic.
    pub flags: u8,
    /// Hidden width of the seeded network for RL / training jobs, at most
    /// [`crate::exec::MAX_HIDDEN`] (wider submissions are refused).
    pub hidden: u16,
    /// Episodes for training jobs.
    pub episodes: u32,
    /// Seed for orderings, network init, and training.
    pub seed: u64,
    /// [`rl_legalizer::InferenceBudget::max_steps`] (0 = unlimited).
    pub max_steps: u64,
    /// [`rl_legalizer::InferenceBudget::max_wall`] in ms (0 = unlimited).
    pub max_wall_ms: u64,
    /// Stable identity for checkpoint resume across restarts
    /// (0 = anonymous, never checkpointed).
    pub job_key: u64,
    /// Wall-clock deadline in ms, measured from acceptance
    /// (0 = none). Past it the job fails with "deadline exceeded"
    /// instead of starting (or its late result is discarded).
    pub deadline_ms: u64,
    /// Transient-failure retries before FAILED surfaces (0 = none).
    pub max_retries: u8,
    /// Optional LEF library text ("" = DEF is self-describing `MH_*`).
    pub lef: String,
    /// The DEF payload to legalize / train on.
    pub def: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            kind: JobKind::Legalize,
            tech: 0,
            ordering: 0,
            threads: 0,
            flags: 0,
            hidden: 16,
            episodes: 0,
            seed: 0,
            max_steps: 0,
            max_wall_ms: 0,
            job_key: 0,
            deadline_ms: 0,
            max_retries: 0,
            lef: String::new(),
            def: String::new(),
        }
    }
}

/// One protocol message, client → server or server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submit a job (client → server). Answered by `Accepted` or
    /// `Rejected` immediately; `Progress`/`Result` stream later on the
    /// same connection.
    Submit(JobSpec),
    /// Ask for a job's state (any connection).
    Query(u64),
    /// Cancel a queued job.
    Cancel(u64),
    /// Liveness probe.
    Ping,
    /// Ask the server to drain in-flight jobs and exit.
    Shutdown,
    /// The job was queued under this id.
    Accepted {
        /// The assigned job id.
        job: u64,
    },
    /// The job was refused (`code` from [`reject`]); backpressure, not
    /// failure — the client may retry after a backoff.
    Rejected {
        /// Rejection code (see [`reject`]).
        code: u16,
        /// Human-readable explanation.
        reason: String,
    },
    /// A chunk of the job's telemetry-journal progress stream (JSONL).
    Progress {
        /// The job the chunk belongs to.
        job: u64,
        /// Newline-terminated JSONL event lines.
        chunk: String,
    },
    /// Terminal job outcome: the result DEF (empty on failure) plus a JSON
    /// stats object.
    Result {
        /// The finished job.
        job: u64,
        /// `true` for a fully-legal / converged result.
        ok: bool,
        /// Result DEF text (model JSON for training jobs; empty on
        /// failure).
        def: String,
        /// JSON stats object (`exec::JobStats`, or `{"error": ...}`).
        stats: String,
    },
    /// Protocol-level error; the server closes the connection after it.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Query`: job state code (see `job::state` in this crate).
    Status {
        /// The queried job.
        job: u64,
        /// State code (see `job::state`).
        state: u8,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Submit(_) => 0x01,
            Frame::Query(_) => 0x02,
            Frame::Cancel(_) => 0x03,
            Frame::Ping => 0x04,
            Frame::Shutdown => 0x05,
            Frame::Accepted { .. } => 0x81,
            Frame::Rejected { .. } => 0x82,
            Frame::Progress { .. } => 0x83,
            Frame::Result { .. } => 0x84,
            Frame::Error { .. } => 0x85,
            Frame::Pong => 0x86,
            Frame::Status { .. } => 0x87,
        }
    }
}

/// Why a byte sequence is not a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// More bytes are needed; `needed` is a lower bound on the total frame
    /// size. The only *recoverable* variant — a streaming reader waits for
    /// more input, every other variant poisons the connection.
    Truncated {
        /// Minimum total bytes the frame requires.
        needed: usize,
    },
    /// The first four bytes are not the expected magic ([`MAGIC`] for a
    /// wire frame).
    BadMagic,
    /// The type byte names no known frame.
    UnknownType(u8),
    /// The header declares a payload larger than the cap.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The cap it exceeded.
        cap: usize,
    },
    /// The payload does not hash to the header CRC.
    CrcMismatch {
        /// CRC declared in the header.
        expected: u32,
        /// CRC computed over the payload.
        found: u32,
    },
    /// The payload passed the CRC but violates the frame's layout.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { needed } => write!(f, "truncated frame (need {needed} bytes)"),
            ProtoError::BadMagic => write!(f, "bad frame magic"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Oversized { declared, cap } => {
                write!(f, "frame payload {declared} bytes exceeds cap {cap}")
            }
            ProtoError::CrcMismatch { expected, found } => write!(
                f,
                "frame CRC mismatch: header {expected:#010x}, payload {found:#010x}"
            ),
            ProtoError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// `true` when the error only means "wait for more bytes".
    pub fn is_truncated(&self) -> bool {
        matches!(self, ProtoError::Truncated { .. })
    }
}

// ---------------------------------------------------------------------------
// Framing shared with the journal: header codec, payload reader and writer
// ---------------------------------------------------------------------------

/// Appends one framed record to `out`: `magic`, the type byte `ty`, then
/// the length and CRC-32 of the payload that `payload` writes after them.
pub(crate) fn seal(out: &mut Vec<u8>, magic: [u8; 4], ty: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&magic);
    out.push(ty);
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let len = (out.len() - start - HEADER_LEN) as u32;
    let crc = crc32(&out[start + HEADER_LEN..]);
    out[start + 5..start + 9].copy_from_slice(&len.to_le_bytes());
    out[start + 9..start + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Checks the framed record at the front of `bytes` (its `magic`, a
/// declared payload length of at most `cap`, the payload's CRC) and
/// returns its type byte, its payload and the bytes it spans.
pub(crate) fn unseal(
    bytes: &[u8],
    magic: [u8; 4],
    cap: usize,
) -> Result<(u8, &[u8], usize), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Truncated { needed: HEADER_LEN });
    }
    if bytes[0..4] != magic {
        return Err(ProtoError::BadMagic);
    }
    let declared = u32::from_le_bytes(bytes[5..9].try_into().expect("4")) as usize;
    if declared > cap {
        return Err(ProtoError::Oversized { declared, cap });
    }
    let total = HEADER_LEN.saturating_add(declared);
    if bytes.len() < total {
        return Err(ProtoError::Truncated { needed: total });
    }
    let expected = u32::from_le_bytes(bytes[9..HEADER_LEN].try_into().expect("4"));
    let payload = &bytes[HEADER_LEN..total];
    let found = crc32(payload);
    if found != expected {
        return Err(ProtoError::CrcMismatch { expected, found });
    }
    Ok((bytes[4], payload, total))
}

/// Bounds-checked little-endian payload reader.
pub(crate) struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| ProtoError::Malformed("payload shorter than declared field".into()))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A `u32`-length-prefixed UTF-8 string block.
    pub(crate) fn str_block(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("string block is not UTF-8".into()))
    }

    /// Fails unless every payload byte was consumed (trailing garbage
    /// would otherwise round-trip differently than it was sent).
    pub(crate) fn done(self) -> Result<(), ProtoError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!(
                "{} trailing payload bytes",
                self.b.len() - self.pos
            )))
        }
    }
}

/// Writes a `u32`-length-prefixed UTF-8 string block.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_spec(out: &mut Vec<u8>, s: &JobSpec) {
    out.push(SPEC_VERSION);
    out.push(s.kind as u8);
    out.push(s.tech);
    out.push(s.ordering);
    out.push(s.threads);
    out.push(s.flags);
    out.extend_from_slice(&s.hidden.to_le_bytes());
    out.extend_from_slice(&s.episodes.to_le_bytes());
    out.extend_from_slice(&s.seed.to_le_bytes());
    out.extend_from_slice(&s.max_steps.to_le_bytes());
    out.extend_from_slice(&s.max_wall_ms.to_le_bytes());
    out.extend_from_slice(&s.job_key.to_le_bytes());
    out.extend_from_slice(&s.deadline_ms.to_le_bytes());
    out.push(s.max_retries);
    put_str(out, &s.lef);
    put_str(out, &s.def);
}

fn decode_spec(r: &mut Reader<'_>) -> Result<JobSpec, ProtoError> {
    let ver = r.u8()?;
    if ver != SPEC_VERSION {
        return Err(ProtoError::Malformed(format!(
            "job spec version {ver} (this build speaks {SPEC_VERSION})"
        )));
    }
    let kind = JobKind::from_u8(r.u8()?)?;
    let tech = r.u8()?;
    if tech > 1 {
        return Err(ProtoError::Malformed(format!("unknown technology {tech}")));
    }
    let ordering = r.u8()?;
    if ordering > 2 {
        return Err(ProtoError::Malformed(format!(
            "unknown ordering {ordering}"
        )));
    }
    let threads = r.u8()?;
    let flags = r.u8()?;
    let hidden = r.u16()?;
    let episodes = r.u32()?;
    let seed = r.u64()?;
    let max_steps = r.u64()?;
    let max_wall_ms = r.u64()?;
    let job_key = r.u64()?;
    let deadline_ms = r.u64()?;
    let max_retries = r.u8()?;
    Ok(JobSpec {
        kind,
        tech,
        ordering,
        threads,
        flags,
        hidden,
        episodes,
        seed,
        max_steps,
        max_wall_ms,
        job_key,
        deadline_ms,
        max_retries,
        lef: r.str_block()?,
        def: r.str_block()?,
    })
}

/// Serializes a [`JobSpec`] standalone (the same layout a SUBMIT payload
/// carries) — the write-ahead journal reuses this codec so a replayed spec
/// is bit-identical to the submitted one.
pub fn encode_spec_bytes(s: &JobSpec) -> Vec<u8> {
    let mut out = Vec::new();
    encode_spec(&mut out, s);
    out
}

/// Decodes a standalone [`JobSpec`] produced by [`encode_spec_bytes`].
///
/// # Errors
///
/// [`ProtoError::Malformed`] on layout violations, exactly like a SUBMIT
/// payload.
pub fn decode_spec_bytes(bytes: &[u8]) -> Result<JobSpec, ProtoError> {
    let mut r = Reader::new(bytes);
    let spec = decode_spec(&mut r)?;
    r.done()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Serializes one frame.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    seal(&mut out, MAGIC, frame.type_byte(), |p| match frame {
        Frame::Submit(spec) => encode_spec(p, spec),
        Frame::Query(job) | Frame::Cancel(job) | Frame::Accepted { job } => {
            p.extend_from_slice(&job.to_le_bytes());
        }
        Frame::Ping | Frame::Shutdown | Frame::Pong => {}
        Frame::Rejected { code, reason } => {
            p.extend_from_slice(&code.to_le_bytes());
            put_str(p, reason);
        }
        Frame::Progress { job, chunk } => {
            p.extend_from_slice(&job.to_le_bytes());
            put_str(p, chunk);
        }
        Frame::Result {
            job,
            ok,
            def,
            stats,
        } => {
            p.extend_from_slice(&job.to_le_bytes());
            p.push(u8::from(*ok));
            put_str(p, def);
            put_str(p, stats);
        }
        Frame::Error { message } => put_str(p, message),
        Frame::Status { job, state } => {
            p.extend_from_slice(&job.to_le_bytes());
            p.push(*state);
        }
    });
    out
}

/// Parses one frame from the front of `bytes` (payloads capped at `cap`).
/// Returns the frame and the number of bytes it consumed.
///
/// # Errors
///
/// [`ProtoError::Truncated`] when more bytes are needed (recoverable for a
/// streaming reader); every other variant is a protocol violation the
/// caller should answer with [`Frame::Error`] and a close.
pub fn decode_frame(bytes: &[u8], cap: usize) -> Result<(Frame, usize), ProtoError> {
    let (ty, payload, total) = unseal(bytes, MAGIC, cap.min(MAX_FRAME))?;
    let mut r = Reader::new(payload);
    let frame = match ty {
        0x01 => Frame::Submit(decode_spec(&mut r)?),
        0x02 => Frame::Query(r.u64()?),
        0x03 => Frame::Cancel(r.u64()?),
        0x04 => Frame::Ping,
        0x05 => Frame::Shutdown,
        0x81 => Frame::Accepted { job: r.u64()? },
        0x82 => Frame::Rejected {
            code: r.u16()?,
            reason: r.str_block()?,
        },
        0x83 => Frame::Progress {
            job: r.u64()?,
            chunk: r.str_block()?,
        },
        0x84 => Frame::Result {
            job: r.u64()?,
            ok: r.u8()? != 0,
            def: r.str_block()?,
            stats: r.str_block()?,
        },
        0x85 => Frame::Error {
            message: r.str_block()?,
        },
        0x86 => Frame::Pong,
        0x87 => Frame::Status {
            job: r.u64()?,
            state: r.u8()?,
        },
        other => return Err(ProtoError::UnknownType(other)),
    };
    r.done()?;
    Ok((frame, total))
}

/// Incremental frame parser over a growing byte buffer (one per
/// connection). Push raw socket bytes in; pull complete frames out.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: drop already-consumed frames before growing.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet parsed into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Non-truncation [`ProtoError`]s are fatal for the stream: framing is
    /// lost, the connection must be closed.
    pub fn next_frame(&mut self, cap: usize) -> Result<Option<Frame>, ProtoError> {
        if self.pending() == 0 {
            return Ok(None);
        }
        match decode_frame(&self.buf[self.consumed..], cap) {
            Ok((frame, n)) => {
                self.consumed += n;
                Ok(Some(frame))
            }
            Err(e) if e.is_truncated() => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            kind: JobKind::RlLegalize,
            tech: 1,
            ordering: 2,
            threads: 3,
            flags: 0,
            hidden: 32,
            episodes: 7,
            seed: 0xDEAD_BEEF,
            max_steps: 100,
            max_wall_ms: 2_000,
            job_key: 42,
            deadline_ms: 30_000,
            max_retries: 2,
            lef: "LIB".into(),
            def: "DESIGN d ; END".into(),
        }
    }

    /// Seals a raw payload into a frame of type `ty`.
    fn frame_payload(ty: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        seal(&mut bytes, MAGIC, ty, |p| p.extend_from_slice(payload));
        bytes
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Submit(sample_spec()),
            Frame::Submit(JobSpec {
                kind: JobKind::Gplace,
                ..sample_spec()
            }),
            Frame::Query(9),
            Frame::Cancel(10),
            Frame::Ping,
            Frame::Shutdown,
            Frame::Accepted { job: 3 },
            Frame::Rejected {
                code: reject::QUEUE_FULL,
                reason: "shard 2 full".into(),
            },
            Frame::Progress {
                job: 3,
                chunk: "{\"kind\":\"job.start\"}\n".into(),
            },
            Frame::Result {
                job: 3,
                ok: true,
                def: "DESIGN out ; END".into(),
                stats: "{\"legalized\":5}".into(),
            },
            Frame::Error {
                message: "nope".into(),
            },
            Frame::Pong,
            Frame::Status { job: 3, state: 2 },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in all_frames() {
            let bytes = encode_frame(&f);
            let (back, n) = decode_frame(&bytes, MAX_FRAME).expect("decode");
            assert_eq!(n, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn job_kind_3_decodes_and_4_is_malformed() {
        let spec = JobSpec {
            kind: JobKind::Gplace,
            ..sample_spec()
        };
        let bytes = encode_frame(&Frame::Submit(spec.clone()));
        let (back, _) = decode_frame(&bytes, MAX_FRAME).expect("gplace kind decodes");
        assert_eq!(back, Frame::Submit(spec));
        // The next unassigned kind byte must stay a hard error. Payload
        // layout: [version, kind, ...]; re-seal after corrupting.
        let mut payload = encode_spec_bytes(&sample_spec());
        payload[1] = 4;
        let bytes = frame_payload(0x01, &payload);
        assert!(matches!(
            decode_frame(&bytes, MAX_FRAME).unwrap_err(),
            ProtoError::Malformed(_)
        ));
    }

    #[test]
    fn spec_versions_other_than_3_are_malformed() {
        // Version 1 is retired, 2 was never shipped (the corpus pins it),
        // and 4 does not exist yet: all are hard errors.
        for ver in [1u8, 2, 4] {
            let mut payload = encode_spec_bytes(&sample_spec());
            payload[0] = ver;
            let bytes = frame_payload(0x01, &payload);
            assert!(
                matches!(
                    decode_frame(&bytes, MAX_FRAME).unwrap_err(),
                    ProtoError::Malformed(_)
                ),
                "version {ver}"
            );
        }
    }

    #[test]
    fn spec_bytes_round_trip_standalone() {
        let s = sample_spec();
        let bytes = encode_spec_bytes(&s);
        assert_eq!(decode_spec_bytes(&bytes).expect("round trip"), s);
        // Trailing garbage after the spec is a layout violation.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_spec_bytes(&long).is_err());
        // A truncated spec is malformed, never a panic.
        assert!(decode_spec_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn truncation_is_recoverable_not_fatal() {
        let bytes = encode_frame(&Frame::Submit(sample_spec()));
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let e = decode_frame(&bytes[..cut], MAX_FRAME).unwrap_err();
            assert!(e.is_truncated(), "cut {cut}: {e:?}");
        }
    }

    #[test]
    fn crc_flip_and_bad_magic_are_fatal() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[0] = b'X';
        assert_eq!(
            decode_frame(&bytes, MAX_FRAME).unwrap_err(),
            ProtoError::BadMagic
        );
        let mut bytes = encode_frame(&Frame::Accepted { job: 1 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes, MAX_FRAME).unwrap_err(),
            ProtoError::CrcMismatch { .. }
        ));
    }

    #[test]
    fn oversized_declaration_is_rejected_before_buffering() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes, 1024).unwrap_err(),
            ProtoError::Oversized { cap: 1024, .. }
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // A Pong with one payload byte: layout says empty.
        let bytes = frame_payload(0x86, &[7]);
        assert!(matches!(
            decode_frame(&bytes, MAX_FRAME).unwrap_err(),
            ProtoError::Malformed(_)
        ));
    }

    #[test]
    fn streaming_reader_matches_whole_buffer_decode() {
        let frames = all_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        // Feed one byte at a time: the reader must produce the exact same
        // frame sequence.
        let mut rd = FrameReader::new();
        let mut got = Vec::new();
        for &b in &wire {
            rd.push(&[b]);
            while let Some(f) = rd.next_frame(MAX_FRAME).expect("stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(rd.pending(), 0);
    }

    #[test]
    fn reader_poisons_on_garbage() {
        let mut rd = FrameReader::new();
        rd.push(b"GARBAGE NOT A FRAME.....");
        assert!(rd.next_frame(MAX_FRAME).is_err());
    }
}
