//! `serve_mixed`: the job server driven as users run it.
//!
//! The server runs in a child process on a fresh data directory (this
//! binary re-executed in server mode, running the `rlleg_serve` server
//! the `rlleg-serve` binary runs). A closed loop of 2 client sessions,
//! each keeping 2 jobs outstanding, works through a seeded schedule: 80%
//! `Legalize` on 1–4k-cell Table III payloads, 12% `Gplace` at 2k and 8%
//! `RlLegalize` at 1k (hidden 16).
//! Every accepted job also gets one `QUERY`, so reads run beside
//! WAL-writing submits. This is the only workload that passes through
//! admission, the WAL, the queue, the executors and delivery.
//!
//! The 25 payloads (each Table III design at 1k, 2k, 3k and 4k cells for
//! `Legalize`, three 2k designs for `Gplace`, two 1k designs for
//! `RlLegalize`) make one block; the schedule is a sequence of blocks,
//! each in its own seeded order, so every block asks the same work. A
//! block is the workload's round: `round_s` is the median wall time of
//! the blocks served whole, from the first submit of a block's jobs to
//! their last result.
//!
//! The result DEFs of the first block, and of every 8th job after it, are
//! parsed and checked after the load. The QoR of the served `Legalize`
//! results (placed over their submitted inputs, each payload once) gives
//! `hpwl_dbu`, `avg_disp_dbu` and `max_disp_dbu`; a payload whose sampled
//! results differ fails as not reproducible.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlleg_benchgen::{find_spec, Family};
use rlleg_design::def::{parse_def, write_def};
use rlleg_design::{legality, Design, Technology};
use rlleg_serve::admission::retry_after_hint;
use rlleg_serve::client::Backoff;
use rlleg_serve::proto::{encode_frame, reject, Frame, FrameReader, JobKind, JobSpec, MAX_FRAME};
use rlleg_serve::server::{ServeConfig, Server};

use crate::common::{self, Ctx, QorTable};
use crate::report::{err, Report, Result};
use crate::stats::{highest_percentile, median, percentile};
use crate::trace::{self, Tracer};
use crate::verify::{classify_job, JobEnd, OpFailure};

/// Client sessions (connections), one generator process.
pub const SESSIONS: usize = 2;
/// Jobs each session keeps outstanding.
pub const OUTSTANDING: usize = 2;
/// Server executor threads.
pub const EXECUTORS: usize = 2;
/// Jobs a run (and each phase of the traced run) finishes at least, so
/// p95 rests on 200 samples; the server's peak RSS is read when the
/// phase's finished jobs reach it.
pub const MIN_JOBS: usize = 200;
/// After the first block, one job in this many has its result DEF parsed
/// and checked.
const SAMPLE_EVERY: usize = 8;
/// Submit attempts before a backpressured job counts as rejected.
const MAX_ATTEMPTS: u32 = 8;
/// Deadline of one job from submit to result.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Banner the server child prints once it listens.
const BANNER: &str = "perfbench-serve listening on ";

/// Legalize payloads: each Table III design at these sizes.
const LEGALIZE_CELLS: [usize; 4] = [1_000, 2_000, 3_000, 4_000];
/// Gplace payloads.
const GPLACE: [(&str, usize); 3] = [
    ("keccak", 2_000),
    ("pci_bridge32_a_md1", 2_000),
    ("fft_a_md2", 2_000),
];
/// RL payloads.
const RL: [(&str, usize); 2] = [("fft_a_md2", 1_000), ("keccak", 1_000)];
/// Hidden width of the RL jobs' seeded network.
const RL_HIDDEN: u16 = 16;

/// One prepared job input.
#[derive(Debug, Clone)]
pub struct Payload {
    /// What the job runs.
    pub kind: JobKind,
    /// Source design.
    pub design: String,
    /// Movable cells.
    pub cells: usize,
    /// Technology code of [`JobSpec::tech`].
    pub tech: u8,
    /// The submitted design.
    pub input: Arc<Design>,
    /// DEF text.
    pub def: Arc<String>,
}

impl Payload {
    /// Design and size, e.g. `keccak_2000`: names the payload's QoR row.
    pub fn label(&self) -> String {
        format!("{}_{}", self.design, self.cells)
    }
}

/// Builds every payload the schedule draws from.
pub fn payloads(ctx: &Ctx, tracer: &mut Tracer) -> Result<Vec<Payload>> {
    let mut wanted: Vec<(JobKind, String, usize)> = Vec::new();
    for s in rlleg_benchgen::test_suite() {
        for cells in LEGALIZE_CELLS {
            wanted.push((JobKind::Legalize, s.name.clone(), cells));
        }
    }
    for (n, cells) in GPLACE {
        wanted.push((JobKind::Gplace, n.into(), cells));
    }
    for (n, cells) in RL {
        wanted.push((JobKind::RlLegalize, n.into(), cells));
    }
    wanted
        .into_iter()
        .map(|(kind, name, cells)| {
            let spec = find_spec(&name).ok_or_else(|| err(format!("no spec {name}")))?;
            let d = tracer.span("benchgen.generate", || ctx.input(&spec, Some(cells)));
            let def = tracer.span("design.def_write", || write_def(&d));
            Ok(Payload {
                kind,
                design: name,
                cells: d.num_movable(),
                tech: match spec.family {
                    Family::Contest => 0,
                    Family::OpenCores => 1,
                },
                input: Arc::new(d),
                def: Arc::new(def),
            })
        })
        .collect()
}

/// The seeded job schedule: `blocks` blocks, each holding every payload
/// once (20 `Legalize`, 3 `Gplace`, 2 `RlLegalize`) in a seeded order.
pub fn schedule(seed: u64, payloads: usize, blocks: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e27_e5c4_ed01_e000);
    let mut out = Vec::with_capacity(blocks * payloads);
    for _ in 0..blocks {
        let mut block: Vec<usize> = (0..payloads).collect();
        block.shuffle(&mut rng);
        out.extend(block);
    }
    out
}

fn spec_for(p: &Payload, seed: u64) -> JobSpec {
    JobSpec {
        kind: p.kind,
        tech: p.tech,
        hidden: RL_HIDDEN,
        seed,
        def: p.def.as_ref().clone(),
        ..JobSpec::default()
    }
}

/// The server child process.
pub struct ServerChild {
    child: Option<Child>,
    addr: SocketAddr,
    data_dir: PathBuf,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerChild {
    /// Starts this binary in server mode on `data_dir` (wiped first), with
    /// the server's telemetry on when `telemetry`.
    pub fn start(data_dir: &Path, telemetry: bool) -> Result<Self> {
        let _ = std::fs::remove_dir_all(data_dir);
        std::fs::create_dir_all(data_dir).map_err(|e| err(format!("data dir: {e}")))?;
        let exe = std::env::current_exe().map_err(|e| err(format!("current exe: {e}")))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve-child").arg(data_dir);
        if telemetry {
            cmd.arg("--telemetry");
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| err(format!("spawn server: {e}")))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut server = Self {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            data_dir: data_dir.to_path_buf(),
            drain: None,
        };
        server.addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix(BANNER) {
                        break a
                            .trim()
                            .parse()
                            .map_err(|e| err(format!("banner address: {e}")))?;
                    }
                }
                _ => return Err(err("server child exited before listening")),
            }
        };
        server.drain = Some(std::thread::spawn(move || for _ in lines.by_ref() {}));
        Ok(server)
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Process id of the server.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// The server's telemetry snapshot from `GET /metrics`.
    pub fn metrics(&self) -> Result<telemetry::Snapshot> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| err(format!("metrics: {e}")))?;
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| err(format!("metrics: {e}")))?;
        let mut body = String::new();
        s.read_to_string(&mut body)
            .map_err(|e| err(format!("metrics: {e}")))?;
        let json = body
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or_else(|| err("metrics: no body"))?;
        telemetry::Snapshot::from_json(json).map_err(|e| err(format!("metrics: {e}")))
    }

    /// Asks the server to drain and exit, waits for it (killing it after
    /// a grace period), and removes its data directory.
    pub fn shutdown(mut self) {
        if let Ok(mut s) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5)) {
            let _ = s.write_all(&encode_frame(&Frame::Shutdown));
        }
        self.reap(Duration::from_secs(20));
    }

    fn reap(&mut self, grace: Duration) {
        if let Some(mut child) = self.child.take() {
            let until = Instant::now() + grace;
            while Instant::now() < until {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// Entry point of the server child: serve on an ephemeral port until a
/// SHUTDOWN frame drains it.
pub fn child_main(data_dir: PathBuf, telemetry: bool) -> Result<()> {
    if telemetry {
        telemetry::enable();
    }
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        executors: EXECUTORS,
        data_dir,
        ..ServeConfig::default()
    })
    .map_err(|e| err(format!("start server: {e}")))?;
    println!("{BANNER}{}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| err(format!("banner: {e}")))?;
    handle.wait();
    Ok(())
}

/// One protocol connection with receive timestamps.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| err(format!("connect: {e}")))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| err(format!("socket: {e}")))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            reader: FrameReader::new(),
        })
    }

    fn send(&mut self, f: &Frame) -> Result<()> {
        self.stream
            .write_all(&encode_frame(f))
            .map_err(|e| err(format!("send: {e}")))
    }

    /// The next frame, or `None` at `deadline`.
    fn recv(&mut self, deadline: Instant) -> Result<Option<Frame>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(f) = self
                .reader
                .next_frame(MAX_FRAME)
                .map_err(|e| err(format!("bad frame: {e}")))?
            {
                return Ok(Some(f));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(err("server closed the connection")),
                Ok(n) => self.reader.push(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(err(format!("recv: {e}"))),
            }
        }
    }
}

/// What the client saw of one job. Times are seconds since the epoch.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Schedule position.
    pub index: usize,
    /// Payload index.
    pub payload: usize,
    /// First submit attempt.
    pub submitted: f64,
    /// ACCEPTED arrival.
    pub acked: Option<f64>,
    /// QUERY sent and its STATUS received.
    pub query: Option<(f64, f64)>,
    /// RESULT arrival.
    pub resulted: Option<f64>,
    /// How the job ended.
    pub end: JobEnd,
    /// Server-side execution time (`JobStats.wall_ms`).
    pub exec_ms: Option<f64>,
    /// Result DEF kept for verification (sampled jobs only).
    pub def: Option<String>,
    /// QUEUE_FULL rejections met.
    pub queue_full: u32,
    /// SHED rejections met.
    pub shed: u32,
}

impl JobRecord {
    fn new(index: usize, payload: usize, submitted: f64) -> Self {
        Self {
            index,
            payload,
            submitted,
            acked: None,
            query: None,
            resulted: None,
            end: JobEnd::TimedOut,
            exec_ms: None,
            def: None,
            queue_full: 0,
            shed: 0,
        }
    }

    fn ack_ms(&self) -> Option<f64> {
        Some((self.acked? - self.submitted) * 1e3)
    }

    fn result_ms(&self) -> Option<f64> {
        match self.end {
            JobEnd::Result { ok: true, .. } => Some((self.resulted? - self.submitted) * 1e3),
            _ => None,
        }
    }
}

/// Shared state of one closed-loop load phase.
struct Load<'a> {
    addr: SocketAddr,
    payloads: &'a [Payload],
    schedule: &'a [usize],
    seed: u64,
    next: AtomicUsize,
    finished: AtomicUsize,
    stop_at: Instant,
    min_jobs: usize,
    /// The server process.
    pid: Option<u32>,
    /// The server's peak resident set, MiB, once `min_jobs` jobs finished.
    /// Read at a fixed job count, not at the end of the phase: the server
    /// keeps delivered jobs in memory (up to `ServeConfig::max_terminal`),
    /// so its peak at the end would grow with how many jobs the phase got
    /// through, and a faster server would read as a larger one.
    rss_mb: OnceLock<Option<f64>>,
}

impl Load<'_> {
    /// Counts a finished job.
    fn finish(&self) {
        if self.finished.fetch_add(1, Relaxed) + 1 == self.min_jobs {
            let rss = self.pid.and_then(crate::sys::peak_rss_mb);
            let _ = self.rss_mb.set(rss);
        }
    }

    fn more(&self) -> Option<usize> {
        if Instant::now() >= self.stop_at && self.finished.load(Relaxed) >= self.min_jobs {
            return None;
        }
        let i = self.next.fetch_add(1, Relaxed);
        (i < self.schedule.len()).then_some(i)
    }
}

fn exec_ms(stats: &str) -> Option<f64> {
    let v = serde_json::parse_value_str(stats).ok()?;
    match v.as_object()?.get("wall_ms")? {
        serde::Value::Int(n) => Some(*n as f64),
        serde::Value::UInt(n) => Some(*n as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// One session: submits (one at a time, each followed by a QUERY once
/// accepted) while fewer than [`OUTSTANDING`] jobs are in flight and the
/// load says go on, then drains. Every frame is timestamped on arrival.
fn session(load: &Load<'_>, tracer: &mut Tracer) -> Result<Vec<JobRecord>> {
    let mut conn = Conn::connect(load.addr)?;
    let mut done: Vec<JobRecord> = Vec::new();
    // The job being submitted, with its frame and retry schedule.
    let mut submitting: Option<(JobRecord, Frame, Backoff)> = None;
    // Accepted jobs awaiting their RESULT, by server job id.
    let mut inflight: Vec<(u64, JobRecord)> = Vec::new();
    // The QUERY awaiting its STATUS: job id and send time.
    let mut querying: Option<(u64, f64)> = None;
    loop {
        let idle = submitting.is_none() && querying.is_none();
        if idle && inflight.len() < OUTSTANDING {
            if let Some(index) = load.more() {
                let payload = load.schedule[index];
                let spec = spec_for(&load.payloads[payload], load.seed ^ index as u64);
                let frame = Frame::Submit(spec);
                let record = JobRecord::new(index, payload, tracer.now());
                conn.send(&frame)?;
                let backoff = Backoff::for_submit(load.seed ^ (index as u64) << 8);
                submitting = Some((record, frame, backoff));
                continue;
            }
        }
        if idle && inflight.is_empty() {
            break;
        }
        let oldest = submitting
            .iter()
            .map(|s| s.0.submitted)
            .chain(inflight.iter().map(|(_, r)| r.submitted))
            .fold(f64::INFINITY, f64::min);
        let deadline = tracer.epoch() + Duration::from_secs_f64(oldest) + JOB_TIMEOUT;
        let Some(frame) = conn.recv(deadline)? else {
            // The oldest job got no answer in time; it stays TimedOut.
            let timed_out = match submitting.take() {
                Some(s) if s.0.submitted == oldest => s.0,
                other => {
                    submitting = other;
                    let pos = inflight
                        .iter()
                        .position(|(_, r)| r.submitted == oldest)
                        .expect("the oldest job is in flight");
                    let (job, r) = inflight.swap_remove(pos);
                    querying = querying.filter(|(j, _)| *j != job);
                    r
                }
            };
            load.finish();
            done.push(timed_out);
            continue;
        };
        let at = tracer.now();
        match frame {
            Frame::Accepted { job } => {
                let (mut rec, _, _) = submitting.take().ok_or_else(|| err("stray ACCEPTED"))?;
                rec.acked = Some(at);
                conn.send(&Frame::Query(job))?;
                querying = Some((job, tracer.now()));
                inflight.push((job, rec));
            }
            Frame::Rejected { code, reason } => {
                let (mut rec, frame, mut backoff) =
                    submitting.take().ok_or_else(|| err("stray REJECTED"))?;
                match code {
                    reject::QUEUE_FULL => rec.queue_full += 1,
                    reject::SHED => rec.shed += 1,
                    _ => {}
                }
                let retry = code == reject::QUEUE_FULL || code == reject::SHED;
                if retry && backoff.attempts() + 1 < MAX_ATTEMPTS {
                    std::thread::sleep(backoff.next_delay(retry_after_hint(&reason)));
                    conn.send(&frame)?;
                    submitting = Some((rec, frame, backoff));
                } else {
                    rec.end = JobEnd::Rejected(code);
                    load.finish();
                    done.push(rec);
                }
            }
            Frame::Status { job, .. } if querying.is_some_and(|(j, _)| j == job) => {
                let sent = querying.take().map_or(at, |(_, t)| t);
                if let Some((_, r)) = inflight.iter_mut().find(|(j, _)| *j == job) {
                    r.query = Some((sent, at));
                }
            }
            Frame::Result {
                job,
                ok,
                def,
                stats,
            } => {
                if let Some(pos) = inflight.iter().position(|(j, _)| *j == job) {
                    // A result overtaking its query's status ends the query.
                    querying = querying.filter(|(j, _)| *j != job);
                    let (_, mut r) = inflight.swap_remove(pos);
                    r.resulted = Some(at);
                    r.exec_ms = exec_ms(&stats);
                    if ok && (r.index < load.payloads.len() || r.index % SAMPLE_EVERY == 0) {
                        r.def = Some(def);
                    }
                    r.end = JobEnd::Result { ok, stats };
                    load.finish();
                    done.push(r);
                }
            }
            Frame::Error { message } => return Err(err(format!("server error: {message}"))),
            _ => {}
        }
    }
    // Spans: one op per job from submit to result; its ack, query and
    // wait children leave the client's own work between them as self time.
    for r in &done {
        let end = r.resulted.or(r.acked).unwrap_or(r.submitted);
        let id = r.index as u64;
        let op = tracer.record("op", (r.submitted, end), None, id);
        if let Some(acked) = r.acked {
            tracer.record("serve.ack", (r.submitted, acked), op, id);
            let waiting_from = match r.query {
                Some(q) => {
                    tracer.record("serve.query", q, op, id);
                    q.1
                }
                None => acked,
            };
            if let Some(res) = r.resulted {
                tracer.record("serve.wait", (waiting_from, res), op, id);
            }
        }
    }
    Ok(done)
}

/// Runs one closed-loop phase of `SESSIONS` sessions until `stop_at`
/// (and at least `min_jobs` finished jobs); returns the jobs and the
/// phase's wall time.
fn run_load(load: &Load<'_>, tracer: &mut Tracer) -> Result<(Vec<JobRecord>, f64)> {
    let t = Instant::now();
    let traced = tracer.enabled();
    let epoch_tracers: Vec<Tracer> = (0..SESSIONS)
        .map(|_| Tracer::new(traced, tracer.epoch()))
        .collect();
    let results: Vec<Result<(Vec<JobRecord>, Tracer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = epoch_tracers
            .into_iter()
            .map(|mut tr| {
                s.spawn(move || {
                    let jobs = session(load, &mut tr)?;
                    Ok((jobs, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(err("session panicked"))))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for r in results {
        let (j, tr) = r?;
        jobs.extend(j);
        tracer.absorb(tr);
    }
    jobs.sort_by_key(|r| r.index);
    Ok((jobs, wall))
}

/// The set-up's warm-up: one job of each kind through a fresh connection,
/// so the first timed jobs find the server's paths warm.
fn warm_up(addr: SocketAddr, payloads: &[Payload], seed: u64) -> Result<()> {
    let mut client = rlleg_serve::client::Client::connect(addr, Duration::from_secs(10))
        .map_err(|e| err(format!("warm-up connect: {e}")))?;
    for kind in [JobKind::Legalize, JobKind::Gplace, JobKind::RlLegalize] {
        let p = payloads
            .iter()
            .find(|p| p.kind == kind)
            .ok_or_else(|| err("no payload of a kind"))?;
        let r = client
            .run(&spec_for(p, seed), JOB_TIMEOUT)
            .map_err(|e| err(format!("warm-up job: {e}")))?;
        if !r.ok {
            return Err(err(format!("warm-up job failed: {}", r.stats)));
        }
    }
    Ok(())
}

/// Latency figures of one phase.
struct Phase {
    jobs: Vec<JobRecord>,
    wall: f64,
}

impl Phase {
    fn ack(&self) -> Vec<Option<f64>> {
        self.jobs.iter().map(JobRecord::ack_ms).collect()
    }

    fn result(&self) -> Vec<Option<f64>> {
        self.jobs.iter().map(JobRecord::result_ms).collect()
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<()> {
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let dir = crate::sys::scratch_dir("serve");
    let mut setups = 0usize;
    let (server, payloads) = common::timed_setups(rep, || {
        setups += 1;
        let server = ServerChild::start(&dir.join(format!("setup-{setups}")), false)?;
        let payloads = payloads(ctx, &mut tracer)?;
        warm_up(server.addr(), &payloads, ctx.seed)?;
        Ok((server, payloads))
    })?;
    let generated = tracer.spans().len();
    let schedule = schedule(ctx.seed, payloads.len(), 400);

    // Untraced phase: the whole budget, or its first half in the traced
    // run, whose second half runs against a server with telemetry on.
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let load = Load {
        addr: server.addr(),
        payloads: &payloads,
        schedule: &schedule,
        seed: ctx.seed,
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        stop_at: Instant::now() + Duration::from_secs_f64(budget),
        min_jobs: MIN_JOBS,
        pid: server.pid(),
        rss_mb: OnceLock::new(),
    };
    tracer.set_enabled(false);
    let (jobs, wall) = run_load(&load, &mut tracer)?;
    let plain = Phase { jobs, wall };
    let rss = load.rss_mb.get().copied().flatten();
    server.shutdown();

    let traced = if ctx.trace {
        let server = ServerChild::start(&dir.join("traced"), true)?;
        warm_up(server.addr(), &payloads, ctx.seed)?;
        let load = Load {
            addr: server.addr(),
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            stop_at: Instant::now() + Duration::from_secs_f64(budget),
            pid: server.pid(),
            rss_mb: OnceLock::new(),
            ..load
        };
        tracer.set_enabled(true);
        let (jobs, wall) = run_load(&load, &mut tracer)?;
        let metrics = server.metrics()?;
        server.shutdown();
        Some((Phase { jobs, wall }, metrics))
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&dir);

    // Verification of every job of both phases (sampled DEFs parsed and
    // checked after the load, so checking never competes with it).
    let mut qor = QorTable::default();
    for phase in std::iter::once(&plain).chain(traced.as_ref().map(|t| &t.0)) {
        for r in &phase.jobs {
            let p = &payloads[r.payload];
            let failure = verify_job(&mut tracer, r, p, &mut qor);
            rep.op(failure.map(|f| format!("job {} ({:?} {}): {f}", r.index, p.kind, p.label())));
        }
    }

    record_phase(rep, &plain, &payloads)?;
    rep.record_some("peak_rss_mb", "MiB", rss, 1)?;
    if rep.correct() {
        qor.record(rep)?;
    }
    if let Some((phase, metrics)) = &traced {
        record_traced(rep, &tracer, generated, phase, &plain, metrics, &payloads)?;
    }
    Ok(())
}

/// Verifies one job: how it ended and, when sampled, its result DEF; a
/// verified `Legalize` result's QoR goes into (or is checked against)
/// its payload's row of `qor`.
fn verify_job(
    tracer: &mut Tracer,
    r: &JobRecord,
    p: &Payload,
    qor: &mut QorTable,
) -> Option<OpFailure> {
    let parsed = r.def.as_ref().map(|def| {
        let tech = if p.tech == 0 {
            Technology::contest()
        } else {
            Technology::nangate45()
        };
        tracer
            .span("design.def_parse", || parse_def(def, tech))
            .map_err(|e| e.to_string())
    });
    let check = parsed.as_ref().map(|d| {
        d.as_ref()
            .map(|d| tracer.span("design.legality_check", || legality::check(d, false).len()))
            .map_err(Clone::clone)
    });
    if let Some(failure) = classify_job(&r.end, check) {
        return Some(failure);
    }
    let Some(Ok(result)) = parsed.filter(|_| p.kind == JobKind::Legalize) else {
        return None;
    };
    let Some(placed) = placed_over(&p.input, &result) else {
        return Some(OpFailure::Mismatched);
    };
    let q = common::qor(tracer, &placed);
    (!qor.check_or_add(&p.label(), q)).then_some(OpFailure::NotReproducible)
}

/// The submitted `input` with every cell moved to its position in the
/// served `result`, so QoR measures displacement from the submitted
/// placement; `None` unless `result` holds the same cells in order.
pub fn placed_over(input: &Design, result: &Design) -> Option<Design> {
    if input.cells.len() != result.cells.len() {
        return None;
    }
    let mut d = input.clone();
    for (c, r) in d.cells.iter_mut().zip(&result.cells) {
        if c.name != r.name {
            return None;
        }
        c.pos = r.pos;
        c.legalized = !c.fixed;
    }
    Some(d)
}

/// Wall time of every block of `block` schedule positions that `jobs`
/// served whole: from the first submit of its jobs to their last result.
pub fn block_walls(jobs: &[JobRecord], block: usize) -> Vec<f64> {
    let mut spans: BTreeMap<usize, (f64, f64, usize)> = BTreeMap::new();
    for r in jobs {
        if let (Some(_), Some(end)) = (r.result_ms(), r.resulted) {
            let e = spans
                .entry(r.index / block)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0));
            e.0 = e.0.min(r.submitted);
            e.1 = e.1.max(end);
            e.2 += 1;
        }
    }
    spans
        .values()
        .filter(|e| e.2 == block)
        .map(|e| e.1 - e.0)
        .collect()
}

fn record_phase(rep: &mut Report, phase: &Phase, payloads: &[Payload]) -> Result<()> {
    let n = phase.jobs.len();
    let blocks = block_walls(&phase.jobs, payloads.len());
    rep.record_some("round_s", "s", median(&blocks), blocks.len())?;
    let ack = phase.ack();
    let result = phase.result();
    rep.record_some("ack_p50_ms", "ms", percentile(&ack, 50.0), n)?;
    rep.record_some("ack_p95_ms", "ms", percentile(&ack, 95.0), n)?;
    rep.record_some("result_p50_ms", "ms", percentile(&result, 50.0), n)?;
    rep.record_some("result_p95_ms", "ms", percentile(&result, 95.0), n)?;
    // The deepest tail the sample supports, for the full report.
    if let Some(p) = highest_percentile(n) {
        let mut tail = serde::Map::new();
        tail.insert("percentile", serde::Value::Float(p));
        let ms = percentile(&result, p).map_or(serde::Value::Null, serde::Value::Float);
        tail.insert("ms", ms);
        tail.insert("samples", serde::Value::UInt(n as u64));
        rep.detail.insert("result_tail", serde::Value::Object(tail));
    }
    let cells: usize = phase
        .jobs
        .iter()
        .filter(|r| r.result_ms().is_some())
        .map(|r| payloads[r.payload].cells)
        .sum();
    rep.record("cells_per_s", "1/s", cells as f64 / phase.wall, n)
}

fn record_traced(
    rep: &mut Report,
    tracer: &Tracer,
    generated: usize,
    phase: &Phase,
    plain: &Phase,
    metrics: &telemetry::Snapshot,
    payloads: &[Payload],
) -> Result<()> {
    common::record_generate(rep, tracer, generated)?;
    let totals = trace::totals(tracer.spans());
    for name in [
        "design.def_write",
        "design.def_parse",
        "design.legality_check",
        "design.qor",
    ] {
        let (dur, _, n) = totals.get(name).copied().unwrap_or_default();
        rep.record(format!("{name}_s"), "s", dur, n)?;
    }
    let (op_wall, op_self, ops) = totals.get("op").copied().unwrap_or_default();
    rep.record("op.self_s", "s", op_self, ops)?;
    rep.record_some(
        "op.coverage",
        "share",
        (op_wall > 0.0).then(|| 1.0 - op_self / op_wall),
        ops,
    )?;

    let n = phase.jobs.len();
    let (t, u) = (
        percentile(&phase.result(), 50.0),
        percentile(&plain.result(), 50.0),
    );
    rep.record_some(
        "telemetry.overhead_share",
        "share",
        t.zip(u).map(|(t, u)| (t - u) / u),
        n + plain.jobs.len(),
    )?;
    let ack: Vec<f64> = phase.ack().into_iter().flatten().collect();
    rep.record_some("serve.ack_ms", "ms", median(&ack), ack.len())?;
    let query: Vec<f64> = phase
        .jobs
        .iter()
        .filter_map(|r| r.query.map(|(sent, at)| (at - sent) * 1e3))
        .collect();
    rep.record_some("serve.query_ms", "ms", median(&query), query.len())?;
    for (kind, name) in [
        (JobKind::Legalize, "legalize"),
        (JobKind::Gplace, "gplace"),
        (JobKind::RlLegalize, "rl"),
    ] {
        // The server reports whole milliseconds: a mean keeps the digits
        // a median of them would round away.
        let exec: Vec<f64> = phase
            .jobs
            .iter()
            .filter(|r| payloads[r.payload].kind == kind)
            .filter_map(|r| r.exec_ms)
            .collect();
        let mean = (!exec.is_empty()).then(|| exec.iter().sum::<f64>() / exec.len() as f64);
        rep.record_some(format!("serve.exec_ms.{name}"), "ms", mean, exec.len())?;
    }
    let outside: Vec<f64> = phase
        .jobs
        .iter()
        .filter_map(|r| Some(r.result_ms()? - r.exec_ms?))
        .collect();
    rep.record_some(
        "serve.outside_exec_ms",
        "ms",
        median(&outside),
        outside.len(),
    )?;
    let sum = |f: fn(&JobRecord) -> u32| phase.jobs.iter().map(|r| f(r) as f64).sum::<f64>();
    rep.record(
        "serve.rejects_queue_full",
        "count",
        sum(|r| r.queue_full),
        n,
    )?;
    rep.record("serve.rejects_shed", "count", sum(|r| r.shed), n)?;
    rep.record(
        "serve.client_retries",
        "count",
        sum(|r| r.queue_full + r.shed),
        n,
    )?;
    for name in [
        "serve.jobs.accepted",
        "serve.jobs.done",
        "serve.jobs.rejected",
        "serve.jobs.shed",
        "serve.jobs.retried",
        "serve.wal.append_failed",
        "serve.conns.accepted",
    ] {
        rep.record(name, "count", metrics.counter(name) as f64, 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_asks_the_same_work_in_a_seeded_order() {
        let a = schedule(1, 25, 3);
        assert_eq!(a.len(), 75);
        for block in a.chunks(25) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, (0..25).collect::<Vec<_>>());
        }
        assert_eq!(a, schedule(1, 25, 3));
        assert_ne!(a, schedule(2, 25, 3));
    }

    #[test]
    fn a_round_is_a_block_served_whole() {
        let job = |index: usize, submitted: f64, resulted: Option<f64>| {
            let mut r = JobRecord::new(index, index, submitted);
            if let Some(at) = resulted {
                r.resulted = Some(at);
                r.end = JobEnd::Result {
                    ok: true,
                    stats: String::new(),
                };
            }
            r
        };
        // Block 0 spans 0.5 s (first submit) to 3.0 s (last result);
        // block 1 lost a job, block 2 was cut short by the budget.
        let jobs = [
            job(1, 1.0, Some(3.0)),
            job(0, 0.5, Some(2.0)),
            job(2, 2.0, Some(4.0)),
            job(3, 2.5, None),
            job(4, 3.5, Some(5.0)),
        ];
        assert_eq!(block_walls(&jobs, 2), vec![2.5]);
    }

    #[test]
    fn served_qor_measures_from_the_submitted_placement() {
        use rlleg_design::DesignBuilder;
        use rlleg_geom::Point;

        let mut b = DesignBuilder::new("demo", Technology::contest(), 40, 4);
        let a = b.add_cell("u1", 2, 1, Point::new(0, 0));
        let c = b.add_cell("u2", 2, 1, Point::new(400, 0));
        b.add_net("n1", vec![(a, 0, 0), (c, 0, 0)]);
        let input = b.build();
        let mut served = input.clone();
        served.cells[0].pos = Point::new(200, 0);
        served.cells[0].gp_pos = served.cells[0].pos;

        let placed = placed_over(&input, &served).expect("same cells");
        assert_eq!(placed.cells[0].displacement(), 200);
        assert_eq!(placed.cells[1].displacement(), 0);
        assert!(placed.cells.iter().all(|c| c.legalized));

        served.cells[1].name = "other".into();
        assert!(placed_over(&input, &served).is_none());
        served.cells.pop();
        assert!(placed_over(&input, &served).is_none());
    }

    #[test]
    fn payload_mix_is_80_12_8() {
        let n = |k| test_kinds().iter().filter(|&&x| x == k).count();
        assert_eq!(n(JobKind::Legalize), 20);
        assert_eq!(n(JobKind::Gplace), 3);
        assert_eq!(n(JobKind::RlLegalize), 2);
    }

    fn test_kinds() -> Vec<JobKind> {
        let ctx = Ctx {
            seed: 3,
            seconds: 1.0,
            trace: false,
            scale: 0.02,
            threads: 1,
            epoch: Instant::now(),
        };
        let mut tracer = Tracer::new(false, ctx.epoch);
        payloads(&ctx, &mut tracer)
            .expect("payloads")
            .iter()
            .map(|p| p.kind)
            .collect()
    }
}
