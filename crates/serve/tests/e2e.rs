//! End-to-end, chaos, and determinism tests for the job server.
//!
//! Everything runs over real loopback sockets against an in-process
//! server. The chaos cases (kill mid-job, checkpoint corruption,
//! slow-loris clients, oversized frames) must all end clean: jobs may
//! fail, the server may reap a connection, but nothing ever wedges.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rlleg_benchgen::{find_spec, generate};
use rlleg_design::def::{parse_def, write_def};
use rlleg_design::{legality, Technology};
use rlleg_serve::client::{Client, ClientError};
use rlleg_serve::job::{state, unix_ms_now};
use rlleg_serve::proto::{self, flags, Frame, FrameReader, JobKind, JobSpec};
use rlleg_serve::server::{ServeConfig, Server, ServerHandle};
use rlleg_serve::wal::Wal;

const TIMEOUT: Duration = Duration::from_secs(120);

fn small_def(scale: f64) -> String {
    // Contest family: parses back under the JobSpec-default tech (0).
    let spec = find_spec("fft_2_md2").expect("spec").scaled(scale);
    write_def(&generate(&spec))
}

fn start(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, std::path::PathBuf) {
    let data_dir =
        std::env::temp_dir().join(format!("rlleg-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut cfg = ServeConfig {
        data_dir: data_dir.clone(),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    (Server::start(cfg).expect("start server"), data_dir)
}

#[test]
fn loopback_job_round_trip_and_graceful_shutdown() {
    let (handle, dir) = start("rt", |_| {});
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    client.ping(TIMEOUT).expect("ping");
    let spec = JobSpec {
        def: small_def(0.002),
        ..JobSpec::default()
    };
    let result = client.run(&spec, TIMEOUT).expect("round trip");
    assert!(result.ok, "stats: {}", result.stats);
    assert!(
        result.progress.contains("job.parsed") && result.progress.contains("job.done"),
        "progress stream must carry journal events: {:?}",
        &result.progress[..result.progress.len().min(200)]
    );
    let d = parse_def(&result.def, Technology::contest()).expect("parse result");
    assert!(
        legality::check(&d, false).is_empty(),
        "result must be legal"
    );
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sixty_four_concurrent_sessions_none_wedged() {
    // Capacity 256: all 64 jobs fit without backpressure, so every
    // session must complete — a missing result is a wedge.
    let (handle, dir) = start("many", |c| {
        c.queue_depth = 256;
    });
    let addr = handle.addr();
    let def = small_def(0.002);
    let sessions: Vec<_> = (0..64)
        .map(|s| {
            let def = def.clone();
            std::thread::spawn(move || -> Result<bool, String> {
                let mut client =
                    Client::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
                let spec = JobSpec {
                    seed: s as u64,
                    def,
                    ..JobSpec::default()
                };
                let r = client
                    .run(&spec, TIMEOUT)
                    .map_err(|e| format!("run: {e}"))?;
                Ok(r.ok)
            })
        })
        .collect();
    let mut ok = 0;
    for (i, s) in sessions.into_iter().enumerate() {
        match s.join().expect("session thread") {
            Ok(true) => ok += 1,
            Ok(false) => panic!("session {i} job reported failure"),
            Err(e) => panic!("session {i} wedged or errored: {e}"),
        }
    }
    assert_eq!(ok, 64, "every concurrent session must complete");
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_is_byte_identical_alone_and_under_concurrency() {
    let def = small_def(0.002);
    let probe = JobSpec {
        seed: 42,
        ordering: 2, // seeded random: the most order-sensitive path
        def: def.clone(),
        ..JobSpec::default()
    };

    // Run the probe job alone.
    let (handle, dir) = start("det-alone", |_| {});
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let alone = client.run(&probe, TIMEOUT).expect("alone run");
    assert!(alone.ok);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);

    // Run it again while 8 other jobs churn on the same server.
    let (handle, dir) = start("det-busy", |c| {
        c.queue_depth = 64;
    });
    let addr = handle.addr();
    let churn: Vec<_> = (0..8)
        .map(|s| {
            let def = def.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, TIMEOUT).expect("connect");
                let spec = JobSpec {
                    seed: 1_000 + s as u64,
                    ordering: 2,
                    def,
                    ..JobSpec::default()
                };
                c.run(&spec, TIMEOUT).expect("churn job")
            })
        })
        .collect();
    let mut client = Client::connect(addr, TIMEOUT).expect("connect");
    let busy = client.run(&probe, TIMEOUT).expect("busy run");
    for t in churn {
        // Churn jobs exist to create concurrency; seeded-random ordering may
        // legitimately leave violations (ok=false), but every job must
        // complete — a missing result means a wedged session.
        let _ = t.join().expect("churn thread");
    }
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(busy.ok);
    assert_eq!(
        alone.def, busy.def,
        "result DEF must be byte-identical alone vs under concurrency"
    );
}

#[test]
fn chaos_kill_mid_job_fails_the_job_not_the_server() {
    let (handle, dir) = start("kill", |c| c.chaos_enabled = true);
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let spec = JobSpec {
        flags: flags::CHAOS_PANIC,
        def: small_def(0.002),
        ..JobSpec::default()
    };
    let job = client.submit(&spec, TIMEOUT).expect("accepted");
    let result = client.wait_result(job, TIMEOUT).expect("terminal result");
    assert!(!result.ok, "a killed job must report failure");
    assert!(
        result.stats.contains("panicked") || result.stats.contains("chaos"),
        "stats: {}",
        result.stats
    );
    // The server survived: a healthy job still runs end to end.
    let healthy = client
        .run(
            &JobSpec {
                def: small_def(0.002),
                ..JobSpec::default()
            },
            TIMEOUT,
        )
        .expect("healthy job after the kill");
    assert!(healthy.ok);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_checkpoint_corruption_still_resumes_training() {
    let (handle, dir) = start("ckpt", |c| {
        c.chaos_enabled = true;
        c.ckpt_every = 1;
    });
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let key = 0xC0FFEE_u64;
    // Phase 1: training job is chaos-killed after >= 1 checkpointed
    // episode.
    let killed = client
        .run(
            &JobSpec {
                kind: JobKind::Train,
                episodes: 4,
                hidden: 8,
                job_key: key,
                flags: flags::CHAOS_PANIC,
                def: small_def(0.002),
                ..JobSpec::default()
            },
            TIMEOUT,
        )
        .expect("killed training job");
    assert!(!killed.ok, "chaos-killed training must fail");

    // Phase 2: corrupt the newest checkpoint generation on disk.
    let ckpt_dir = dir.join(format!("ckpt-{key:016x}"));
    let mut files: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    files.sort();
    let newest = files.last().expect("at least one checkpoint");
    let mut bytes = std::fs::read(newest).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(newest, &bytes).expect("corrupt checkpoint");

    // Phase 3: resubmit without chaos — must resume from a surviving
    // generation (the store skips the corrupted newest one) and finish.
    let resumed = client
        .run(
            &JobSpec {
                kind: JobKind::Train,
                episodes: 4,
                hidden: 8,
                job_key: key,
                def: small_def(0.002),
                ..JobSpec::default()
            },
            TIMEOUT,
        )
        .expect("resumed training job");
    assert!(resumed.ok, "stats: {}", resumed.stats);
    assert!(
        resumed.stats.contains("\"resumed_from_episode\":")
            && !resumed.stats.contains("\"resumed_from_episode\":0,"),
        "must resume from a checkpointed episode: {}",
        resumed.stats
    );
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_is_reaped_and_server_stays_responsive() {
    let (handle, dir) = start("loris", |c| {
        c.idle_timeout = Duration::from_millis(200);
    });
    // The attacker: sends half a frame header, then goes silent.
    let mut loris = TcpStream::connect(handle.addr()).expect("connect");
    loris.write_all(b"RLSF\x01\x10").expect("half a header");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // The server must reap the stalled connection: the next read sees EOF.
    let mut buf = [0u8; 64];
    let start_wait = Instant::now();
    loop {
        match loris.read(&mut buf) {
            Ok(0) => break, // reaped
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                break
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
        assert!(
            start_wait.elapsed() < Duration::from_secs(30),
            "stalled connection was never reaped"
        );
    }
    // A well-behaved client is unaffected.
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    client.ping(TIMEOUT).expect("server responsive after loris");
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_frame_is_rejected_cleanly() {
    let (handle, dir) = start("big", |c| c.max_frame = 64 * 1024);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // A header declaring a 1 MiB payload against a 64 KiB cap.
    let mut wire = Vec::new();
    wire.extend_from_slice(&proto::MAGIC);
    wire.push(0x01);
    wire.extend_from_slice(&(1u32 << 20).to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&wire).expect("send header");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // The server answers REJECTED(OVERSIZED) and closes — without ever
    // buffering the declared payload.
    let mut reader = FrameReader::new();
    let mut got = None;
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                reader.push(&chunk[..n]);
                if let Ok(Some(f)) = reader.next_frame(proto::MAX_FRAME) {
                    got = Some(f);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                break
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
    match got {
        Some(Frame::Rejected { code, .. }) => assert_eq!(code, proto::reject::OVERSIZED),
        other => panic!("expected Rejected(OVERSIZED), got {other:?}"),
    }
    // Server is still healthy.
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    client
        .ping(TIMEOUT)
        .expect("responsive after oversized frame");
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_rejects_with_queue_full() {
    // Queue depth 1 and a single executor: the first job occupies the
    // executor, the second sits queued, the third must bounce.
    let (handle, dir) = start("busy", |c| {
        c.queue_depth = 1;
        c.executors = 1;
    });
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let slow = JobSpec {
        kind: JobKind::Train,
        episodes: 5,
        hidden: 8,
        def: small_def(0.002),
        ..JobSpec::default()
    };
    let _running = client.submit(&slow, TIMEOUT).expect("first accepted");
    let _queued = client.submit(&slow, TIMEOUT).expect("second queued");
    let mut rejected = false;
    for _ in 0..20 {
        match client.submit(&slow, TIMEOUT) {
            Err(ClientError::Rejected { code, .. }) if code == proto::reject::QUEUE_FULL => {
                rejected = true;
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected, "a full queue must answer QUEUE_FULL");
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_a_waiting_job_from_running() {
    let (handle, dir) = start("cancel", |c| {
        c.queue_depth = 4;
        c.executors = 1;
    });
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let slow = JobSpec {
        kind: JobKind::Train,
        episodes: 20,
        hidden: 8,
        def: small_def(0.002),
        ..JobSpec::default()
    };
    let _running = client.submit(&slow, TIMEOUT).expect("first");
    let queued = client.submit(&slow, TIMEOUT).expect("second");
    let st = client.cancel(queued, TIMEOUT).expect("cancel confirmed");
    assert_eq!(st, state::CANCELLED, "queued job must cancel");
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_persists_undelivered_results() {
    let (handle, dir) = start("drain", |_| {});
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    // A multi-episode training job: long enough that the server sees the
    // client leave (next tick) well before the job finishes.
    let job = client
        .submit(
            &JobSpec {
                kind: JobKind::Train,
                episodes: 10,
                hidden: 8,
                def: small_def(0.002),
                ..JobSpec::default()
            },
            TIMEOUT,
        )
        .expect("accepted");
    // Walk away without collecting the result, then drain the server.
    drop(client);
    handle.shutdown_graceful();
    // The journal is the one persistence path: the drain writes nothing
    // beside it.
    let side_files: Vec<String> = std::fs::read_dir(&dir)
        .expect("data dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("job-"))
        .collect();
    assert!(
        side_files.is_empty(),
        "drain wrote side files: {side_files:?}"
    );
    let restart = || {
        Server::start(ServeConfig {
            data_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .expect("restart server")
    };
    // A restart on the same directory serves the result from the journal.
    let handle = restart();
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    assert_eq!(client.query(job, TIMEOUT).expect("query"), state::DONE);
    let result = client.wait_result(job, TIMEOUT).expect("re-served result");
    assert!(
        !result.def.is_empty(),
        "re-served training result must carry the model"
    );
    assert!(
        result.stats.contains("\"episodes\":10"),
        "stats: {}",
        result.stats
    );
    drop(client);
    handle.shutdown_graceful();
    // The delivery was journalled, so the next restart has forgotten it.
    let handle = restart();
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    assert_eq!(client.query(job, TIMEOUT).expect("query"), state::UNKNOWN);
    drop(client);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_adapter_serves_health_jobs_and_metrics() {
    let (handle, dir) = start("http", |_| {});
    let addr = handle.addr();
    let http = |request: String| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(request.as_bytes()).expect("send");
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut out = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::BrokenPipe =>
                {
                    break
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    };

    let health = http("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".into());
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert!(health.contains("\"ok\":true"));

    let def = small_def(0.002);
    let submit = http(format!(
        "POST /jobs?seed=5 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{def}",
        def.len()
    ));
    assert!(submit.starts_with("HTTP/1.1 202"), "submit: {submit}");
    let body = submit.split("\r\n\r\n").nth(1).expect("body");
    let id: u64 = body
        .trim()
        .trim_start_matches("{\"job\":")
        .trim_end_matches('}')
        .parse()
        .expect("job id");

    // Poll until done.
    let t0 = Instant::now();
    loop {
        let status = http(format!("GET /jobs/{id} HTTP/1.1\r\nHost: x\r\n\r\n"));
        if status.contains("\"state\":\"done\"") {
            break;
        }
        assert!(
            !status.contains("\"state\":\"failed\""),
            "job failed: {status}"
        );
        assert!(t0.elapsed() < TIMEOUT, "job never finished: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let def_resp = http(format!("GET /jobs/{id}/def HTTP/1.1\r\nHost: x\r\n\r\n"));
    assert!(def_resp.starts_with("HTTP/1.1 200"), "def: {def_resp}");
    let def_text = def_resp.split("\r\n\r\n").nth(1).expect("def body");
    let d = parse_def(def_text, Technology::contest()).expect("def parses");
    assert!(legality::check(&d, false).is_empty());

    let metrics = http("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".into());
    assert!(metrics.starts_with("HTTP/1.1 200"), "metrics: {metrics}");
    assert!(metrics.contains("counters"));

    let missing = http("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n".into());
    assert!(missing.starts_with("HTTP/1.1 404"));

    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gplace_job_over_http_and_unknown_kind_is_400() {
    let (handle, dir) = start("gphttp", |_| {});
    let addr = handle.addr();
    let http = |request: String| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(request.as_bytes()).expect("send");
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut out = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::BrokenPipe =>
                {
                    break
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    };

    let def = small_def(0.002);
    // Regression pin: an unrecognized kind is a 400 error response, never
    // a connection drop or a panic.
    let bad = http(format!(
        "POST /jobs?kind=warp HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{def}",
        def.len()
    ));
    assert!(bad.starts_with("HTTP/1.1 400"), "bad kind: {bad}");

    let submit = http(format!(
        "POST /jobs?kind=gplace&seed=3 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{def}",
        def.len()
    ));
    assert!(submit.starts_with("HTTP/1.1 202"), "submit: {submit}");
    let body = submit.split("\r\n\r\n").nth(1).expect("body");
    let id: u64 = body
        .trim()
        .trim_start_matches("{\"job\":")
        .trim_end_matches('}')
        .parse()
        .expect("job id");

    let t0 = Instant::now();
    let status = loop {
        let status = http(format!("GET /jobs/{id} HTTP/1.1\r\nHost: x\r\n\r\n"));
        if status.contains("\"state\":\"done\"") {
            break status;
        }
        assert!(
            !status.contains("\"state\":\"failed\""),
            "job failed: {status}"
        );
        assert!(t0.elapsed() < TIMEOUT, "job never finished: {status}");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        status.contains("gp_hpwl"),
        "gplace stats must surface the placement wirelength: {status}"
    );
    let def_resp = http(format!("GET /jobs/{id}/def HTTP/1.1\r\nHost: x\r\n\r\n"));
    assert!(def_resp.starts_with("HTTP/1.1 200"), "def: {def_resp}");
    let def_text = def_resp.split("\r\n\r\n").nth(1).expect("def body");
    let d = parse_def(def_text, Technology::contest()).expect("def parses");
    assert!(legality::check(&d, false).is_empty());

    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rl_job_over_the_wire_respects_budget() {
    let (handle, dir) = start("rl", |_| {});
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let result = client
        .run(
            &JobSpec {
                kind: JobKind::RlLegalize,
                hidden: 8,
                max_steps: 2,
                def: small_def(0.002),
                ..JobSpec::default()
            },
            TIMEOUT,
        )
        .expect("rl job");
    assert!(result.ok, "stats: {}", result.stats);
    assert!(
        result.stats.contains("StepBudget"),
        "budget degradation must be reported: {}",
        result.stats
    );
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the real `rlleg-serve` binary over `data_dir` and parses the
/// bound address off its banner (flushed before any work, so a later
/// SIGKILL cannot hide it).
fn spawn_server(data_dir: &std::path::Path) -> (std::process::Child, std::net::SocketAddr) {
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_rlleg-serve"))
        .args(["--addr", "127.0.0.1:0", "--executors", "2", "--data-dir"])
        .arg(data_dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("child exited before banner")
            .expect("read banner");
        if let Some(rest) = line.strip_prefix("rlleg-serve listening on ") {
            break rest.trim().parse().expect("banner addr");
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

fn http_to(addr: std::net::SocketAddr, request: String) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(request.as_bytes()).expect("send");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut out = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                break
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn poll_done(addr: std::net::SocketAddr, id: u64) -> String {
    let t0 = Instant::now();
    loop {
        let st = http_to(addr, format!("GET /jobs/{id} HTTP/1.1\r\nHost: x\r\n\r\n"));
        if st.contains("\"state\":\"done\"") {
            return st;
        }
        assert!(
            !st.contains("\"state\":\"failed\"") && !st.contains("\"state\":\"cancelled\""),
            "job {id} failed: {st}"
        );
        assert!(t0.elapsed() < TIMEOUT, "job {id} never finished: {st}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn sigkill_restart_recovers_every_acknowledged_http_job() {
    let data_dir =
        std::env::temp_dir().join(format!("rlleg-serve-e2e-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let (mut child, addr) = spawn_server(&data_dir);

    // Submit four jobs over HTTP: HTTP acks without subscribing, so no
    // delivery can retire them — after a crash, the journal owes all four.
    let def = small_def(0.002);
    let ids: Vec<u64> = (0..4)
        .map(|seed| {
            let resp = http_to(
                addr,
                format!(
                    "POST /jobs?seed={seed} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{def}",
                    def.len()
                ),
            );
            assert!(resp.starts_with("HTTP/1.1 202"), "submit: {resp}");
            let body = resp.split("\r\n\r\n").nth(1).expect("body");
            body.trim()
                .trim_start_matches("{\"job\":")
                .trim_end_matches('}')
                .parse()
                .expect("job id")
        })
        .collect();

    // Read the first job's terminal status before the crash, so the
    // restarted server can be held to reproducing it. Fetching the status
    // (not the def) keeps the job undelivered and therefore owed: only a
    // `/def` fetch journals a delivery and may retire the job.
    let before = poll_done(addr, ids[0]);
    let before_stats = before
        .split_once("\"stats\":")
        .expect("pre-kill done status carries stats")
        .1
        .to_string();

    // Crash: SIGKILL, no drain, no flush. Then tear the journal tail the
    // way a crash mid-append would: garbage bytes after the last record.
    child.kill().expect("sigkill");
    let _ = child.wait();
    let wal_dir = data_dir.join("wal");
    let mut segs: Vec<_> = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    let newest = segs.last().expect("at least one segment");
    let mut bytes = std::fs::read(newest).expect("read segment");
    bytes.extend_from_slice(&[0xAB; 17]);
    std::fs::write(newest, &bytes).expect("tear segment tail");

    // Restart on the same data directory: every acknowledged job must
    // reach a terminal state again — served from the journal or re-run.
    let (mut child, addr) = spawn_server(&data_dir);
    let mut after = String::new();
    for &id in &ids {
        let st = poll_done(addr, id);
        if id == ids[0] {
            after = st;
        }
    }
    // The job whose result was journalled `done` before the crash must be
    // served back with byte-identical stats, not re-run to a new answer.
    let after_stats = after
        .split_once("\"stats\":")
        .expect("post-kill done status carries stats")
        .1;
    assert_eq!(
        before_stats, after_stats,
        "recovered result must be byte-identical to the acknowledged one"
    );
    // And its DEF payload survived the crash intact.
    let def_resp = http_to(
        addr,
        format!("GET /jobs/{}/def HTTP/1.1\r\nHost: x\r\n\r\n", ids[0]),
    );
    assert!(def_resp.starts_with("HTTP/1.1 200"), "def: {def_resp}");
    let def_text = def_resp.split("\r\n\r\n").nth(1).expect("def body");
    let d = parse_def(def_text, Technology::contest()).expect("recovered def parses");
    assert!(legality::check(&d, false).is_empty());

    child.kill().expect("kill restarted server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn query_answers_unknown_for_bogus_ids() {
    let (handle, dir) = start("query", |_| {});
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let st = client.query(9_999, TIMEOUT).expect("query");
    assert_eq!(st, state::UNKNOWN);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes in the server's journal directory.
fn journal_bytes(data_dir: &std::path::Path) -> u64 {
    std::fs::read_dir(data_dir.join("wal"))
        .expect("journal dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum()
}

#[test]
fn oversized_network_width_is_refused_before_the_journal() {
    let (handle, dir) = start("wide", |_| {});
    let addr = handle.addr();
    let def = small_def(0.002);
    let before = journal_bytes(&dir);

    // HTTP: a 65535-wide network would need a 16 GiB trunk matrix.
    for kind in ["rl", "train"] {
        let resp = http_to(
            addr,
            format!(
                "POST /jobs?kind={kind}&hidden=65535 HTTP/1.1\r\nHost: x\r\n\
                 Content-Length: {}\r\n\r\n{def}",
                def.len()
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{kind}: {resp}");
        assert!(resp.contains("hidden width 65535"), "{kind}: {resp}");
    }

    // Binary protocol: REJECTED with BAD_REQUEST.
    let mut client = Client::connect(addr, TIMEOUT).expect("connect");
    let wide = JobSpec {
        kind: JobKind::RlLegalize,
        hidden: u16::MAX,
        def: def.clone(),
        ..JobSpec::default()
    };
    match client.submit(&wide, TIMEOUT) {
        Err(ClientError::Rejected { code, reason }) => {
            assert_eq!(code, proto::reject::BAD_REQUEST, "{reason}");
        }
        other => panic!("a 65535-wide network must be refused: {other:?}"),
    }
    assert_eq!(
        journal_bytes(&dir),
        before,
        "a refused submission must not be journalled"
    );

    // The server kept serving, on the same connection.
    let result = client
        .run(&JobSpec { hidden: 8, ..wide }, TIMEOUT)
        .expect("a narrow job runs");
    assert!(result.ok, "stats: {}", result.stats);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journalled_oversized_network_fails_on_restart_instead_of_aborting() {
    // A journal written by a build that accepted any width: the job was
    // acknowledged, so every restart replays it.
    let data_dir =
        std::env::temp_dir().join(format!("rlleg-serve-e2e-widewal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    {
        let (wal, recovered, _) = Wal::open(&data_dir.join("wal"), 1 << 20).expect("open journal");
        assert!(recovered.is_empty());
        let spec = JobSpec {
            kind: JobKind::RlLegalize,
            hidden: u16::MAX,
            def: small_def(0.002),
            ..JobSpec::default()
        };
        wal.append_accepted(1, unix_ms_now(), &spec)
            .expect("journal the old acceptance");
    }
    let handle = Server::start(ServeConfig {
        data_dir: data_dir.clone(),
        ..ServeConfig::default()
    })
    .expect("restart on the old journal");
    let addr = handle.addr();
    let t0 = Instant::now();
    let status = loop {
        let st = http_to(addr, "GET /jobs/1 HTTP/1.1\r\nHost: x\r\n\r\n".into());
        if st.contains("\"state\":\"failed\"") {
            break st;
        }
        assert!(!st.contains("\"state\":\"done\""), "must not run: {st}");
        assert!(t0.elapsed() < TIMEOUT, "job never failed: {st}");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        status.contains("hidden width 65535 exceeds the maximum 512"),
        "the failure must carry its reason: {status}"
    );
    let health = http_to(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".into());
    assert!(
        health.starts_with("HTTP/1.1 200"),
        "still serving: {health}"
    );
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&data_dir);
}
