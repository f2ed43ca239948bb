//! What a traced server reports about its write-ahead journal: the replay
//! summary at startup and the time of every append.
//!
//! Telemetry and the event journal are process-wide, so these tests run in
//! their own test binary and take one lock each.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use rlleg_benchgen::{find_spec, generate};
use rlleg_design::def::write_def;
use rlleg_serve::client::Client;
use rlleg_serve::proto::JobSpec;
use rlleg_serve::server::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(120);

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlleg-serve-walt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journal sink the test can read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_journal_of_garbage_reports_its_replay() {
    let _g = lock();
    telemetry::enable();
    let dir = data_dir("garbage");
    std::fs::create_dir_all(dir.join("wal")).expect("wal dir");
    // Not a record: no replayed record, one corrupt one.
    std::fs::write(
        dir.join("wal/seg-000001.wal"),
        b"this is not a journal record",
    )
    .expect("plant");
    let corrupt_before = telemetry::snapshot().counter("serve.wal.corrupt_records");
    let sink = SharedBuf::default();
    telemetry::install_journal(telemetry::Journal::new(sink.clone(), 64));

    let handle = Server::start(ServeConfig {
        data_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .expect("a garbage journal still starts");
    telemetry::take_journal().expect("installed").finish();
    handle.shutdown_graceful();

    let corrupt = telemetry::snapshot().counter("serve.wal.corrupt_records") - corrupt_before;
    assert_eq!(corrupt, 1, "the corrupt record is counted");
    let text = String::from_utf8(sink.0.lock().expect("buffer lock").clone()).expect("utf-8");
    let replay: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"serve.wal.replay\""))
        .collect();
    assert_eq!(replay.len(), 1, "one replay event: {text}");
    for field in [
        "\"segments\":1",
        "\"records\":0",
        "\"torn_tail\":0",
        "\"corrupt\":1",
        "\"jobs\":0",
    ] {
        assert!(replay[0].contains(field), "{field} in {}", replay[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_traced_server_times_every_journal_append() {
    let _g = lock();
    telemetry::enable();
    let dir = data_dir("span");
    let appends = || {
        telemetry::snapshot()
            .histogram("span.serve.wal.append")
            .map_or(0, |h| h.count)
    };
    let before = appends();
    let handle = Server::start(ServeConfig {
        data_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let def = write_def(&generate(
        &find_spec("fft_2_md2").expect("spec").scaled(0.002),
    ));
    let jobs = 3;
    for seed in 0..jobs {
        let spec = JobSpec {
            def: def.clone(),
            seed,
            ..JobSpec::default()
        };
        assert!(client.run(&spec, TIMEOUT).expect("job").ok);
    }
    drop(client);
    handle.shutdown_graceful();
    // Each job journals ACCEPTED, RUNNING, DONE and DELIVERED before its
    // result reaches the client.
    assert!(
        appends() - before >= 4 * jobs,
        "{} appends timed for {jobs} jobs",
        appends() - before
    );
    let _ = std::fs::remove_dir_all(&dir);
}
