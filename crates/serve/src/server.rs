//! The serve event loop: one thread multiplexing every connection.
//!
//! Architecture:
//!
//! ```text
//!  clients ──► listener ──► event loop (poll-based, single thread)
//!                               │ SUBMIT → JobTable + BoundedQueue
//!                               │             │ (bounded; Full → REJECTED)
//!                               │             ▼
//!                               │        executor threads (fixed set)
//!                               │             │ multi-tile solve, gplace → scoped helpers
//!                               │             ▼
//!                               └──◄── progress / results (per-conn cursors)
//! ```
//!
//! The loop never blocks on a socket and never spawns a thread: readiness
//! comes from [`crate::poll::wait`], compute happens on the executor set
//! created at startup (a multi-tile solve or a global placement adds
//! scoped helpers that end with it). Graceful shutdown closes the queue, lets queued and running
//! jobs finish, and streams their results to subscribers. A result
//! nobody collected stays live in the write-ahead journal, so a restart on
//! the same `data_dir` serves it, exactly as after a crash.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::{self, Admission, Verdict};
use crate::conn::{Conn, Mode};
use crate::exec::{self, ExecConfig, Executors};
use crate::http;
use crate::job::{state, unix_ms_now, JobId, JobOutcome, JobTable};
use crate::poll::{self, Interest};
use crate::proto::{self, reject, Frame, JobKind, JobSpec, ProtoError};
use crate::queue::{BoundedQueue, PushError};
use crate::wal::Wal;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Executor threads (concurrent jobs in flight). 0 =
    /// [`rlleg_legalize::pool::default_threads`].
    pub executors: usize,
    /// Inner solver threads per job when the spec leaves `threads` at 0.
    pub inner_threads: usize,
    /// Queued jobs before SUBMITs bounce with QUEUE_FULL.
    pub queue_depth: usize,
    /// Per-frame payload cap (also the HTTP body cap).
    pub max_frame: usize,
    /// Idle window after which a stalled (slow-loris) connection is
    /// reaped. Connections waiting on a subscribed job are exempt.
    pub idle_timeout: Duration,
    /// Poll tick — the latency floor for progress delivery and sweeps.
    pub tick: Duration,
    /// The write-ahead journal (which keeps undelivered results across
    /// restarts) and the checkpoint stores live here.
    pub data_dir: PathBuf,
    /// Honor chaos-injection flags in job specs (tests/harness only).
    pub chaos_enabled: bool,
    /// Checkpoint cadence for training jobs (episodes).
    pub ckpt_every: usize,
    /// Accepted connections beyond this are dropped at accept time.
    pub max_conns: usize,
    /// Delivered terminal jobs are evicted from the job table this long
    /// after finishing (late re-queries answer UNKNOWN past it).
    pub terminal_ttl: Duration,
    /// At most this many delivered terminal jobs are retained, oldest
    /// evicted first, so table memory is bounded even under the TTL.
    pub max_terminal: usize,
    /// Write-ahead journal segment size; past it the sweep compacts into
    /// a fresh segment.
    pub wal_segment_bytes: u64,
    /// Admission-control hard watermark: total in-flight cost (cells ×
    /// job-kind weight) above which submissions shed with RETRY_AFTER.
    /// Low-priority (training) work sheds at half of it.
    pub max_inflight_cost: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            executors: 0,
            inner_threads: 0,
            queue_depth: 64,
            max_frame: proto::MAX_FRAME,
            idle_timeout: Duration::from_secs(10),
            tick: Duration::from_millis(5),
            data_dir: std::env::temp_dir().join("rlleg-serve"),
            chaos_enabled: false,
            ckpt_every: 2,
            max_conns: 256,
            terminal_ttl: Duration::from_secs(300),
            max_terminal: 1024,
            wal_segment_bytes: 1 << 20,
            // Default: roughly eight concurrent 500k-cell legalizations
            // (or a quarter as many training runs) before shedding.
            max_inflight_cost: 8_000_000,
        }
    }
}

/// Handle over a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    table: Arc<JobTable>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of (queued, running, terminal) job counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        self.table.counts()
    }

    /// Requests a graceful drain and waits for the server to exit:
    /// in-flight jobs finish, their results are delivered or persisted,
    /// then every thread joins.
    pub fn shutdown_graceful(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server exits on its own (a client sent SHUTDOWN).
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The server. Construct with [`Server::start`]; interact through the
/// returned [`ServerHandle`] and the wire protocols.
pub struct Server;

impl Server {
    /// Binds, spawns the executor set and the event-loop thread, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listen address.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        std::fs::create_dir_all(&cfg.data_dir)?;

        let table = Arc::new(JobTable::new());
        let queue = Arc::new(BoundedQueue::<JobId>::new(cfg.queue_depth));
        let admission = Arc::new(Admission::new(cfg.max_inflight_cost));

        // Replay the write-ahead journal before accepting traffic: every
        // job acknowledged by a previous process either re-enters the
        // queue (training jobs resume from their checkpoint store) or has
        // its persisted result served from the table.
        let (wal, recovered, report) = Wal::open(&cfg.data_dir.join("wal"), cfg.wal_segment_bytes)?;
        let wal = Arc::new(wal);
        if !telemetry::disabled() {
            telemetry::counter("serve.wal.replayed_records").add(report.records);
            telemetry::counter("serve.wal.torn_tails").add(report.torn_tail);
            telemetry::counter("serve.wal.corrupt_records").add(report.corrupt);
            telemetry::emit(
                telemetry::Event::new("serve.wal.replay")
                    .with("segments", report.segments)
                    .with("records", report.records)
                    .with("torn_tail", report.torn_tail)
                    .with("corrupt", report.corrupt)
                    .with("jobs", report.jobs),
            );
        }
        for job in recovered {
            let terminal = matches!(job.state, state::DONE | state::FAILED);
            if terminal {
                // Persisted-but-undelivered result: serve it to whoever
                // still holds the id; never re-run it.
                table.insert_recovered(
                    job.id,
                    JobSpec::default(),
                    job.state,
                    job.outcome,
                    job.error,
                    job.attempt,
                    job.accepted_unix_ms,
                    0,
                );
                if !telemetry::disabled() {
                    telemetry::counter("serve.wal.recovered_results").inc();
                }
            } else if let Some(spec) = job.spec {
                let cost = admission::cost_of(&spec);
                admission.charge(cost);
                table.insert_recovered(
                    job.id,
                    spec,
                    state::QUEUED,
                    None,
                    None,
                    job.attempt,
                    job.accepted_unix_ms,
                    cost,
                );
                if queue.push(job.id).is_err() {
                    // More recovered work than queue capacity: park the
                    // overflow; the sweep re-enqueues it as slots free up.
                    table.schedule_retry(job.id, Instant::now());
                }
                if !telemetry::disabled() {
                    telemetry::counter("serve.wal.recovered_requeued").inc();
                }
            }
        }

        let executors = {
            let n = if cfg.executors == 0 {
                rlleg_legalize::pool::default_threads()
            } else {
                cfg.executors
            };
            Executors::spawn(
                n,
                ExecConfig {
                    inner_threads: cfg.inner_threads,
                    data_dir: cfg.data_dir.clone(),
                    chaos_enabled: cfg.chaos_enabled,
                    ckpt_every: cfg.ckpt_every,
                },
                Arc::clone(&queue),
                Arc::clone(&table),
                Arc::clone(&wal),
                Arc::clone(&admission),
            )
        };

        let stop = Arc::new(AtomicBool::new(false));
        let mut loop_state = EventLoop {
            cfg,
            listener,
            conns: Vec::new(),
            table: Arc::clone(&table),
            queue,
            stop: Arc::clone(&stop),
            draining: false,
            wal,
            admission,
        };
        let thread = std::thread::Builder::new()
            .name("rlleg-serve-loop".into())
            .spawn(move || {
                loop_state.run();
                loop_state.drain(executors);
            })?;
        Ok(ServerHandle {
            addr,
            stop,
            table,
            thread: Some(thread),
        })
    }
}

struct EventLoop {
    cfg: ServeConfig,
    listener: TcpListener,
    conns: Vec<Conn>,
    table: Arc<JobTable>,
    queue: Arc<BoundedQueue<JobId>>,
    stop: Arc<AtomicBool>,
    draining: bool,
    wal: Arc<Wal>,
    admission: Arc<Admission>,
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(s: &T) -> i32 {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> i32 {
    0
}

impl EventLoop {
    /// Runs until a drain is requested *and* all work has been delivered.
    fn run(&mut self) {
        loop {
            if !self.draining && self.stop.load(Ordering::Acquire) {
                self.begin_drain();
            }
            let ready = self.poll_once();
            self.accept_ready(ready[0].readable);
            self.service_conns(&ready[1..]);
            self.deliver();
            self.sweep(Instant::now());
            if !telemetry::disabled() {
                telemetry::gauge("serve.conns").set(self.conns.len() as i64);
                telemetry::gauge("serve.queue_depth").set(self.queue.len() as i64);
            }
            if self.draining && self.drained() {
                return;
            }
        }
    }

    fn poll_once(&mut self) -> Vec<poll::Readiness> {
        let mut fds = Vec::with_capacity(1 + self.conns.len());
        fds.push((
            raw_fd(&self.listener),
            Interest {
                readable: !self.draining,
                writable: false,
            },
        ));
        for c in &self.conns {
            fds.push((
                raw_fd(&c.stream),
                Interest {
                    readable: true,
                    writable: !c.outbuf.is_empty(),
                },
            ));
        }
        poll::wait(&fds, self.cfg.tick)
    }

    fn accept_ready(&mut self, listener_ready: bool) {
        if !listener_ready || self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.cfg.max_conns {
                        if !telemetry::disabled() {
                            telemetry::counter("serve.conns.over_capacity").inc();
                        }
                        drop(stream);
                        continue;
                    }
                    if let Ok(conn) = Conn::new(stream) {
                        if !telemetry::disabled() {
                            telemetry::counter("serve.conns.accepted").inc();
                        }
                        self.conns.push(conn);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Reads, parses, and answers every ready connection; removes dead
    /// ones. `ready` is index-aligned with `self.conns`.
    fn service_conns(&mut self, ready: &[poll::Readiness]) {
        let mut alive = Vec::with_capacity(self.conns.len());
        for (i, mut conn) in std::mem::take(&mut self.conns).into_iter().enumerate() {
            let r = ready.get(i).copied().unwrap_or_default();
            let mut ok = !r.error;
            if ok && r.readable {
                // Buffer cap: one max frame plus framing slack.
                ok = conn.fill(self.cfg.max_frame + proto::HEADER_LEN + 4096);
            }
            if ok {
                ok = self.parse_and_handle(&mut conn);
            }
            if ok && (r.writable || !conn.outbuf.is_empty()) {
                ok = conn.flush();
            }
            if ok && !conn.done() {
                alive.push(conn);
            } else if !telemetry::disabled() {
                telemetry::counter("serve.conns.closed").inc();
            }
        }
        self.conns = alive;
    }

    /// Parses whatever is buffered on `conn` and queues responses.
    /// Returns `false` to tear the connection down.
    fn parse_and_handle(&mut self, conn: &mut Conn) -> bool {
        if !conn.sniff() {
            return false;
        }
        match conn.mode {
            Mode::Unknown => true,
            Mode::Binary => self.handle_binary(conn),
            Mode::Http => self.handle_http(conn),
        }
    }

    fn handle_binary(&mut self, conn: &mut Conn) -> bool {
        loop {
            match proto::decode_frame(&conn.inbuf, self.cfg.max_frame) {
                Ok((frame, consumed)) => {
                    conn.inbuf.drain(..consumed);
                    self.handle_frame(conn, frame);
                }
                Err(e) if e.is_truncated() => return true,
                Err(ProtoError::Oversized { declared, cap }) => {
                    conn.send(&proto::encode_frame(&Frame::Rejected {
                        code: reject::OVERSIZED,
                        reason: format!("frame of {declared} B exceeds cap of {cap} B"),
                    }));
                    conn.close_after_flush = true;
                    return true;
                }
                Err(e) => {
                    conn.send(&proto::encode_frame(&Frame::Error {
                        message: format!("protocol error: {e}"),
                    }));
                    conn.close_after_flush = true;
                    return true;
                }
            }
        }
    }

    fn handle_frame(&mut self, conn: &mut Conn, frame: Frame) {
        match frame {
            Frame::Submit(spec) => match self.submit(spec) {
                Ok(id) => {
                    conn.subscriptions.insert(id, 0);
                    conn.send(&proto::encode_frame(&Frame::Accepted { job: id }));
                }
                Err((code, reason)) => {
                    conn.send(&proto::encode_frame(&Frame::Rejected { code, reason }));
                }
            },
            Frame::Query(job) => {
                conn.send(&proto::encode_frame(&Frame::Status {
                    job,
                    state: self.table.state_of(job),
                }));
                if let Some(result) = self.terminal_result(job) {
                    conn.subscriptions.remove(&job);
                    conn.send(&proto::encode_frame(&result));
                }
            }
            Frame::Cancel(job) => {
                // Cancellation is logical only: the id stays queued and
                // the executor that pops it discards it when its claim
                // fails.
                if self.table.cancel(job) {
                    // Journalled (fsynced) before the CANCELLED ack below,
                    // so a restart never re-runs a job the client was told
                    // was cancelled.
                    self.wal.append_cancelled(job);
                    self.admission.release(self.table.cost_of(job));
                }
                conn.subscriptions.remove(&job);
                conn.send(&proto::encode_frame(&Frame::Status {
                    job,
                    state: self.table.state_of(job),
                }));
            }
            Frame::Ping => conn.send(&proto::encode_frame(&Frame::Pong)),
            Frame::Shutdown => {
                self.begin_drain();
                conn.send(&proto::encode_frame(&Frame::Pong));
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            _ => {
                conn.send(&proto::encode_frame(&Frame::Error {
                    message: "unexpected server-role frame".into(),
                }));
                conn.close_after_flush = true;
            }
        }
    }

    /// Shared submission path for both dialects. Order matters: the
    /// admission check sheds first (cheapest), then the journal append
    /// (fsynced) makes the job durable, and only then does the id go to
    /// the queue and back to the client — an acknowledged id is always a
    /// journalled one.
    fn submit(&mut self, spec: JobSpec) -> Result<JobId, (u16, String)> {
        if self.draining {
            return Err((reject::DRAINING, "server is draining".into()));
        }
        if spec.def.is_empty() {
            return Err((reject::BAD_REQUEST, "empty DEF payload".into()));
        }
        exec::check_network_width(&spec).map_err(|e| (reject::BAD_REQUEST, e))?;
        let cost = admission::cost_of(&spec);
        match self
            .admission
            .admit(cost, admission::low_priority(spec.kind))
        {
            Verdict::Admit => {}
            Verdict::Shed { retry_after_ms } => {
                if !telemetry::disabled() {
                    telemetry::counter("serve.jobs.shed").inc();
                }
                return Err((
                    reject::SHED,
                    format!("overloaded, shedding: retry_after_ms={retry_after_ms}"),
                ));
            }
        }
        let accepted_unix_ms = unix_ms_now();
        let id = self.table.insert_with(spec, cost, accepted_unix_ms);
        let journalled = self
            .table
            .with(id, |e| {
                self.wal.append_accepted(id, accepted_unix_ms, &e.spec)
            })
            .unwrap_or(Ok(()));
        if let Err(e) = journalled {
            // Un-journalled acks are lies; reject instead.
            self.table.remove(id);
            self.admission.release(cost);
            if !telemetry::disabled() {
                telemetry::counter("serve.wal.append_failed").inc();
            }
            return Err((reject::BAD_REQUEST, format!("journal write failed: {e}")));
        }
        match self.queue.push(id) {
            Ok(()) => {
                if !telemetry::disabled() {
                    telemetry::counter("serve.jobs.accepted").inc();
                }
                Ok(id)
            }
            Err(e) => {
                // The id never reached the client nor the queue; journal
                // the cancellation and drop the entry outright instead of
                // leaving a tombstone behind.
                self.wal.append_cancelled(id);
                self.table.remove(id);
                self.admission.release(cost);
                if !telemetry::disabled() {
                    telemetry::counter("serve.jobs.rejected").inc();
                }
                match e {
                    PushError::Full => Err((
                        reject::QUEUE_FULL,
                        format!("queue full (capacity {})", self.queue.capacity()),
                    )),
                    PushError::Closed => Err((reject::DRAINING, "server is draining".into())),
                }
            }
        }
    }

    /// The RESULT frame for a terminal job, marking it delivered (in the
    /// table and the journal — a delivered result is not re-served after
    /// a restart).
    fn terminal_result(&self, job: JobId) -> Option<Frame> {
        let frame = self.table.with(job, |e| match e.state {
            state::DONE => {
                e.delivered = true;
                let o = e.outcome.clone().unwrap_or(JobOutcome {
                    ok: false,
                    def: String::new(),
                    stats: "{}".into(),
                });
                Some(Frame::Result {
                    job,
                    ok: o.ok,
                    def: o.def,
                    stats: o.stats,
                })
            }
            state::FAILED => {
                e.delivered = true;
                Some(Frame::Result {
                    job,
                    ok: false,
                    def: String::new(),
                    stats: format!("{{\"error\":{:?}}}", e.error.clone().unwrap_or_default()),
                })
            }
            state::CANCELLED => {
                e.delivered = true;
                Some(Frame::Result {
                    job,
                    ok: false,
                    def: String::new(),
                    stats: "{\"cancelled\":true}".into(),
                })
            }
            _ => None,
        })?;
        if frame.is_some() {
            self.wal.append_delivered(job);
        }
        frame
    }

    /// Streams new progress lines and terminal results to subscribers.
    fn deliver(&mut self) {
        let mut conns = std::mem::take(&mut self.conns);
        for conn in &mut conns {
            let jobs: Vec<JobId> = conn.subscriptions.keys().copied().collect();
            for job in jobs {
                let cursor = conn.subscriptions[&job];
                let (chunk, new_cursor) = self
                    .table
                    .with(job, |e| {
                        if cursor < e.progress.len() {
                            (e.progress[cursor..].join(""), e.progress.len())
                        } else {
                            (String::new(), cursor)
                        }
                    })
                    .unwrap_or((String::new(), cursor));
                if !chunk.is_empty() {
                    conn.subscriptions.insert(job, new_cursor);
                    conn.send(&proto::encode_frame(&Frame::Progress { job, chunk }));
                }
                if let Some(result) = self.terminal_result(job) {
                    conn.subscriptions.remove(&job);
                    conn.send(&proto::encode_frame(&result));
                }
            }
        }
        self.conns = conns;
    }

    /// Reaps stalled (slow-loris) connections and evicts delivered
    /// terminal jobs past the retention TTL/cap, keeping table memory
    /// bounded on a long-running server.
    fn sweep(&mut self, now: Instant) {
        let idle = self.cfg.idle_timeout;
        let before = self.conns.len();
        self.conns.retain(|c| !c.is_stalled(now, idle));
        let reaped = before - self.conns.len();
        if reaped > 0 && !telemetry::disabled() {
            telemetry::counter("serve.conns.reaped").add(reaped as u64);
        }
        let evicted = self
            .table
            .reap_terminal(now, self.cfg.terminal_ttl, self.cfg.max_terminal);
        if evicted > 0 && !telemetry::disabled() {
            telemetry::counter("serve.jobs.evicted").add(evicted as u64);
        }
        // Backed-off retries whose stamps expired go back into the
        // queue; while draining they fail instead (the queue is closed
        // and nothing would ever run them).
        if self.draining {
            for id in self.table.pending_retries() {
                self.wal.append_failed(id, "server draining before retry");
                self.table.fail(id, "server draining before retry".into());
                self.admission.release(self.table.cost_of(id));
            }
        } else {
            for id in self.table.take_due_retries(now) {
                if self.queue.push(id).is_err() {
                    // Queue full right now: park it a little longer.
                    self.table
                        .schedule_retry(id, now + Duration::from_millis(50));
                }
            }
        }
        // Compact the journal once the live segment outgrows its cap.
        self.wal.maybe_rotate();
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        // Pending jobs still drain after close(); new pushes bounce.
        self.queue.close();
        if !telemetry::disabled() {
            telemetry::counter("serve.drain.begun").inc();
        }
    }

    /// Drain is complete once no work is queued or running and every
    /// result reached its subscriber (or the subscriber left).
    fn drained(&self) -> bool {
        if !self.queue.is_empty() || self.table.running() > 0 {
            return false;
        }
        self.conns
            .iter()
            .all(|c| c.subscriptions.is_empty() && c.outbuf.is_empty())
    }

    /// Post-loop teardown: flush, join. Undelivered results need no
    /// persisting here: their DONE/FAILED records are already in the
    /// journal, and a restart serves them.
    fn drain(&mut self, executors: Executors) {
        // Best-effort flush of anything still buffered, bounded in time.
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && self.conns.iter().any(|c| !c.outbuf.is_empty()) {
            for c in &mut self.conns {
                let _ = c.flush();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.conns.clear();
        executors.join();
        if !telemetry::disabled() {
            telemetry::counter("serve.drain.completed").inc();
        }
    }

    /// Routes one parsed HTTP request; always `Connection: close`.
    fn handle_http(&mut self, conn: &mut Conn) -> bool {
        match http::try_parse(&conn.inbuf, self.cfg.max_frame) {
            Ok(None) => true,
            Ok(Some((req, consumed))) => {
                conn.inbuf.drain(..consumed);
                let response = self.route_http(&req);
                conn.send(&response);
                conn.close_after_flush = true;
                true
            }
            Err(http::HttpError::TooLarge { declared }) => {
                conn.send(&http::json_error(
                    413,
                    &format!("body of {declared} B exceeds cap"),
                ));
                conn.close_after_flush = true;
                true
            }
            Err(http::HttpError::BadRequest(msg)) => {
                conn.send(&http::json_error(400, &msg));
                conn.close_after_flush = true;
                true
            }
        }
    }

    fn route_http(&mut self, req: &http::HttpRequest) -> Vec<u8> {
        match (req.method.as_str(), req.path()) {
            ("GET", "/healthz") => {
                let (q, r, t) = self.table.counts();
                http::response(
                    200,
                    "application/json",
                    format!(
                        "{{\"ok\":true,\"draining\":{},\"queued\":{q},\"running\":{r},\"terminal\":{t}}}",
                        self.draining
                    )
                    .as_bytes(),
                )
            }
            ("GET", "/metrics") => http::response(
                200,
                "application/json",
                telemetry::snapshot().to_json().as_bytes(),
            ),
            ("POST", "/jobs") => self.http_submit(req),
            ("GET", path) if path.starts_with("/jobs/") => self.http_job(path),
            _ => http::json_error(404, "no such route"),
        }
    }

    fn http_submit(&mut self, req: &http::HttpRequest) -> Vec<u8> {
        let spec = match http_spec(req) {
            Ok(spec) => spec,
            Err(msg) => return http::json_error(400, &msg),
        };
        match self.submit(spec) {
            Ok(id) => http::response(
                202,
                "application/json",
                format!("{{\"job\":{id}}}").as_bytes(),
            ),
            Err((code, reason)) => {
                let status = match code {
                    reject::QUEUE_FULL | reject::SHED => 429,
                    reject::DRAINING => 503,
                    reject::OVERSIZED => 413,
                    _ => 400,
                };
                // Shed rejections carry a machine-readable wait hint;
                // surface it in the standard header (rounded up to whole
                // seconds, minimum 1 — Retry-After has no sub-second
                // form).
                match admission::retry_after_hint(&reason) {
                    Some(ms) => {
                        http::json_error_retry_after(status, &reason, ms.div_ceil(1000).max(1))
                    }
                    None => http::json_error(status, &reason),
                }
            }
        }
    }

    fn http_job(&mut self, path: &str) -> Vec<u8> {
        let rest = &path["/jobs/".len()..];
        let (id_str, want_def) = match rest.strip_suffix("/def") {
            Some(id) => (id, true),
            None => (rest, false),
        };
        let Ok(id) = id_str.parse::<JobId>() else {
            return http::json_error(400, "bad job id");
        };
        let st = self.table.state_of(id);
        if st == state::UNKNOWN {
            return http::json_error(404, "no such job");
        }
        if want_def {
            let def = self
                .table
                .with(id, |e| {
                    let d = e.outcome.as_ref().map(|o| o.def.clone());
                    if d.as_ref().is_some_and(|d| !d.is_empty()) {
                        // Serving the result DEF is the delivery.
                        e.delivered = true;
                    }
                    d
                })
                .flatten();
            return match def {
                Some(d) if !d.is_empty() => {
                    self.wal.append_delivered(id);
                    http::response(200, "text/plain", d.as_bytes())
                }
                _ => http::json_error(404, "result not available"),
            };
        }
        let (stats, error) = self
            .table
            .with(id, |e| {
                if matches!(e.state, state::FAILED | state::CANCELLED) {
                    // No DEF will ever exist; the status answer is the
                    // whole result. DONE stays undelivered until the def
                    // itself is fetched, across restarts if need be.
                    e.delivered = true;
                }
                (e.outcome.as_ref().map(|o| o.stats.clone()), e.error.clone())
            })
            .unwrap_or((None, None));
        if matches!(st, state::FAILED | state::CANCELLED) {
            self.wal.append_delivered(id);
        }
        let state_name = match st {
            state::QUEUED => "queued",
            state::RUNNING => "running",
            state::DONE => "done",
            state::FAILED => "failed",
            state::CANCELLED => "cancelled",
            _ => "unknown",
        };
        let mut body = format!("{{\"job\":{id},\"state\":\"{state_name}\"");
        if let Some(s) = stats {
            body.push_str(&format!(",\"stats\":{s}"));
        }
        if let Some(e) = error {
            body.push_str(&format!(",\"error\":{e:?}"));
        }
        body.push('}');
        http::response(200, "application/json", body.as_bytes())
    }
}

/// A numeric query parameter, validated to fit `T` — the HTTP dialect is
/// exactly as strict as the binary decoder, rejecting instead of silently
/// truncating (`threads=257` is an error, not thread count 1).
fn http_param<T: TryFrom<u64>>(
    req: &http::HttpRequest,
    key: &str,
    default: T,
) -> Result<T, String> {
    match req.query(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .ok()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("parameter {key}={v:?} is out of range")),
    }
}

/// Builds a [`JobSpec`] from an HTTP submit request, enforcing the same
/// value ranges as [`proto::decode_frame`]'s spec decoder.
fn http_spec(req: &http::HttpRequest) -> Result<JobSpec, String> {
    let def =
        String::from_utf8(req.body.clone()).map_err(|_| "DEF body must be UTF-8".to_string())?;
    let tech: u8 = http_param(req, "tech", 0)?;
    if tech > 1 {
        return Err(format!("unknown technology {tech}"));
    }
    Ok(JobSpec {
        kind: match req.query("kind") {
            None | Some("legalize") => JobKind::Legalize,
            Some("rl") => JobKind::RlLegalize,
            Some("train") => JobKind::Train,
            Some("gplace") => JobKind::Gplace,
            Some(other) => return Err(format!("unknown kind {other:?}")),
        },
        tech,
        ordering: match req.query("ordering") {
            None | Some("size") => 0,
            Some("x") => 1,
            Some("random") => 2,
            Some(other) => return Err(format!("unknown ordering {other:?}")),
        },
        threads: http_param(req, "threads", 0)?,
        hidden: http_param(req, "hidden", 16)?,
        episodes: http_param(req, "episodes", 1)?,
        seed: http_param(req, "seed", 0)?,
        max_steps: http_param(req, "max_steps", 0)?,
        max_wall_ms: http_param(req, "max_wall_ms", 0)?,
        job_key: http_param(req, "key", 0)?,
        def,
        ..JobSpec::default()
    })
}
