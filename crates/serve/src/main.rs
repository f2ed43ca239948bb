//! The `rlleg-serve` binary: job server, loopback smoke check, and load
//! generator.
//!
//! ```text
//! rlleg-serve [--addr 127.0.0.1:7878] [--executors N] [--queue-depth N]
//!             [--chaos]
//!             [--journal FILE [--journal-max-kb N] [--journal-keep N]]
//!                                             # run the server
//! rlleg-serve --smoke                         # loopback self-check
//! rlleg-serve --loadgen [--sessions 64] [--jobs 4] [--scale 0.02]
//!             [--out BENCH_serve.json]        # 3-phase bench: closed
//!                                             # loop, overload, recovery
//! ```

use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rlleg_bench::Args;
use rlleg_benchgen::{find_spec, generate};
use rlleg_design::def::{parse_def, write_def};
use rlleg_design::{legality, Technology};
use rlleg_serve::client::Client;
use rlleg_serve::loadgen::{self, LoadConfig, RecoveryHarness, ServeBench};
use rlleg_serve::proto::JobSpec;
use rlleg_serve::server::{ServeConfig, Server};

fn small_def(scale: f64) -> String {
    // Contest family: parses back under the JobSpec-default tech (0).
    let spec = find_spec("fft_2_md2")
        .expect("benchmark table")
        .scaled(scale);
    write_def(&generate(&spec))
}

fn config_from(args: &Args) -> ServeConfig {
    ServeConfig {
        addr: args.get("addr", "127.0.0.1:0".to_string()),
        executors: args.get("executors", 0usize),
        queue_depth: args.get("queue-depth", 64usize),
        idle_timeout: Duration::from_millis(args.get("idle-ms", 10_000u64)),
        data_dir: std::path::PathBuf::from(args.get("data-dir", "target/serve-data".to_string())),
        chaos_enabled: args.flag("chaos"),
        ..ServeConfig::default()
    }
}

/// Installs a size-capped rotating JSONL journal when `--journal FILE` is
/// given (with `--journal-max-kb` / `--journal-keep` tuning the cap), and
/// enables telemetry so progress events and counters flow into it.
fn install_journal_from(args: &Args) -> bool {
    let path = args.get("journal", String::new());
    if path.is_empty() {
        return false;
    }
    let max_bytes = args.get("journal-max-kb", 4096u64).saturating_mul(1024);
    let keep = args.get("journal-keep", 4usize);
    let sink = telemetry::RotatingFile::create(&path, max_bytes, keep).expect("open journal file");
    telemetry::enable();
    telemetry::install_journal(telemetry::Journal::new(sink, 4096));
    println!("  journal: {path} (cap {max_bytes} B, keep {keep})");
    true
}

fn serve_main(args: &Args) {
    let mut cfg = config_from(args);
    if cfg.addr == "127.0.0.1:0" {
        cfg.addr = args.get("addr", "127.0.0.1:7878".to_string());
    }
    // Installed before the start, so the journal records the replay.
    let journalling = install_journal_from(args);
    let handle = Server::start(cfg).expect("start server");
    println!("rlleg-serve listening on {}", handle.addr());
    println!("  binary protocol: frame magic RLSF; HTTP: GET /healthz, POST /jobs");
    println!("  send a SHUTDOWN frame to drain and exit");
    // The kill/restart harness reads this banner over a pipe; without an
    // explicit flush a SIGKILL'd child may never have surfaced it.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    if journalling {
        if let Some(j) = telemetry::take_journal() {
            j.finish();
        }
    }
    println!("rlleg-serve drained and exited");
}

fn smoke_main(args: &Args) {
    let cfg = ServeConfig {
        data_dir: std::env::temp_dir().join(format!("rlleg-serve-smoke-{}", std::process::id())),
        ..config_from(args)
    };
    let data_dir = cfg.data_dir.clone();
    let handle = Server::start(cfg).expect("start server");
    let addr = handle.addr();
    println!("smoke: server on {addr}");
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    client.ping(Duration::from_secs(10)).expect("ping");
    let spec = JobSpec {
        def: small_def(args.get("scale", 0.005)),
        ..JobSpec::default()
    };
    let result = client
        .run(&spec, Duration::from_secs(300))
        .expect("job round-trip");
    assert!(result.ok, "job reported failure: {}", result.stats);
    // `require_committed = false`: a parsed DEF carries positions, not the
    // in-memory `legalized` flags.
    let d = parse_def(&result.def, Technology::contest()).expect("result DEF parses");
    assert!(
        legality::check(&d, false).is_empty(),
        "result DEF must be legal"
    );
    println!("smoke: job {} legal, stats {}", result.job, result.stats);
    client.shutdown().expect("shutdown frame");
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&data_dir);
    println!("smoke: graceful shutdown OK");
}

/// Spawns a fresh `rlleg-serve` server child over `data_dir` and parses
/// the bound address off its banner. Stdout is piped and drained so the
/// child never blocks, and the banner line is flushed by `serve_main`
/// before any work — a later SIGKILL cannot hide it.
fn spawn_server_child(data_dir: &std::path::Path) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["--addr", "127.0.0.1:0", "--executors", "2", "--data-dir"])
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
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

/// Runs the kill/restart phase against real child processes sharing one
/// data directory, so the SIGKILL loses exactly what a crash would lose.
fn run_recovery_phase(load: &LoadConfig) -> loadgen::RecoveryReport {
    let data_dir = std::env::temp_dir().join(format!("rlleg-serve-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let child: std::cell::RefCell<Option<Child>> = std::cell::RefCell::new(None);
    let mut start = || {
        let (c, addr) = spawn_server_child(&data_dir);
        child.borrow_mut().replace(c);
        addr
    };
    let mut kill = || {
        if let Some(mut c) = child.borrow_mut().take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };
    let report = loadgen::run_recovery(
        &mut RecoveryHarness {
            start: &mut start,
            kill: &mut kill,
        },
        load,
    );
    let _ = std::fs::remove_dir_all(&data_dir);
    report
}

fn assert_recovery_clean(r: &loadgen::RecoveryReport) {
    assert_eq!(r.jobs_lost, 0, "acknowledged jobs lost across the kill");
    assert_eq!(
        r.divergent, 0,
        "a recovered job re-ran to a different answer"
    );
    assert!(r.rc_acked > 0, "recovery phase acknowledged no jobs");
}

/// Panics unless a phase's p50, p95 and p99 latencies are ordered.
fn assert_ordered(phase: &str, [p50, p95, p99]: [f64; 3]) {
    assert!(
        p50 <= p95 && p95 <= p99,
        "{phase} percentiles not ordered: p50 {p50} / p95 {p95} / p99 {p99} ms"
    );
}

fn loadgen_main(args: &Args) {
    let timeout = Duration::from_secs(args.get("timeout-s", 300u64));

    // Phase 1 — closed loop: steady-state throughput and latency under a
    // default admission budget; every job must complete.
    let cfg = ServeConfig {
        data_dir: std::env::temp_dir().join(format!("rlleg-serve-load-{}", std::process::id())),
        ..config_from(args)
    };
    let data_dir = cfg.data_dir.clone();
    let handle = Server::start(cfg).expect("start server");
    let load = LoadConfig {
        sessions: args.get("sessions", 64usize),
        jobs_per_session: args.get("jobs", 4usize),
        def: small_def(args.get("scale", 0.02)),
        timeout,
        max_attempts: args.get("attempts", 0usize),
    };
    println!(
        "loadgen: closed loop, {} sessions x {} jobs against {}",
        load.sessions,
        load.jobs_per_session,
        handle.addr()
    );
    let closed_loop = loadgen::run(handle.addr(), &load);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&data_dir);
    assert_eq!(
        closed_loop.jobs_ok,
        (load.sessions * load.jobs_per_session) as u64,
        "every closed-loop job must eventually complete"
    );
    assert!(closed_loop.qps > 0.0, "closed loop completed nothing");
    assert!(
        (0.0..1.0).contains(&closed_loop.reject_rate),
        "reject rate {} is not a fraction below 1",
        closed_loop.reject_rate
    );
    assert_ordered(
        "closed-loop",
        [closed_loop.p50_ms, closed_loop.p95_ms, closed_loop.p99_ms],
    );

    // Phase 2 — overload: a starved admission budget (room for ~2 jobs)
    // against far more offered work. Shedding may refuse, never lose.
    // A queued job stays charged to admission until it finishes, so
    // admission sheds before the 8-deep queue can fill and this phase never
    // answers QUEUE_FULL; the e2e test `backpressure_rejects_with_queue_full`
    // is what pins QUEUE_FULL.
    let ov_def = small_def(args.get("ov-scale", 0.01));
    let one_cost = rlleg_serve::admission::cost_of(&JobSpec {
        def: ov_def.clone(),
        ..JobSpec::default()
    });
    let cfg = ServeConfig {
        data_dir: std::env::temp_dir().join(format!("rlleg-serve-ov-{}", std::process::id())),
        executors: 2,
        queue_depth: 8,
        max_inflight_cost: one_cost.saturating_mul(2).max(1),
        ..config_from(args)
    };
    let data_dir = cfg.data_dir.clone();
    let handle = Server::start(cfg).expect("start overload server");
    let ov_load = LoadConfig {
        sessions: args.get("ov-sessions", 16usize),
        jobs_per_session: args.get("ov-jobs", 2usize),
        def: ov_def,
        timeout,
        max_attempts: 0,
    };
    println!(
        "loadgen: overload, {} sessions x {} jobs, budget {} (~2 jobs)",
        ov_load.sessions,
        ov_load.jobs_per_session,
        one_cost.saturating_mul(2)
    );
    let overload = loadgen::run_overload(handle.addr(), &ov_load);
    handle.shutdown_graceful();
    let _ = std::fs::remove_dir_all(&data_dir);
    assert_eq!(overload.ov_jobs_lost, 0, "overload lost accepted jobs");
    assert!(
        overload.ov_shed > 0,
        "overload phase never tripped admission control"
    );
    assert_ordered(
        "overload",
        [overload.ov_p50_ms, overload.ov_p95_ms, overload.ov_p99_ms],
    );

    // Phase 3 — recovery: SIGKILL a real server child mid-batch, restart
    // on the same data directory, audit every acknowledged job.
    let rc_load = LoadConfig {
        sessions: args.get("rc-sessions", 8usize),
        jobs_per_session: args.get("rc-jobs", 4usize),
        def: small_def(args.get("rc-scale", 0.005)),
        timeout: Duration::from_secs(args.get("rc-timeout-s", 120u64)),
        max_attempts: 0,
    };
    println!("loadgen: recovery, kill/restart audit over a server child");
    let recovery = run_recovery_phase(&rc_load);
    assert_recovery_clean(&recovery);

    let bench = ServeBench {
        header: rlleg_bench::snapshot::Header::current(),
        closed_loop,
        overload,
        recovery,
    };
    let out = args.get("out", "BENCH_serve.json".to_string());
    std::fs::write(&out, bench.to_json()).expect("write report");
    println!("{}", bench.to_json());
    println!("loadgen: report written to {out}");
}

fn main() {
    let args = Args::from_env();
    if args.flag("smoke") {
        smoke_main(&args);
    } else if args.flag("loadgen") {
        loadgen_main(&args);
    } else {
        serve_main(&args);
    }
}
