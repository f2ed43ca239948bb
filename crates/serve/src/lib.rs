//! Legalization as a service: an async job server over the RL-legalizer.
//!
//! `rlleg-serve` accepts DEF/LEF payloads over a CRC-framed,
//! length-prefixed binary protocol (plus a minimal HTTP/1.1 adapter on the
//! same port) and runs them as jobs on a fixed executor set — concurrent
//! sessions never spawn per-request threads; only a legalization whose
//! Gcell grid spans several coarse tiles starts scoped helpers for its
//! solve. The whole stack is built from the standard library: readiness
//! comes from `poll(2)` declared directly ([`poll`]), so the workspace's
//! zero-new-dependency rule holds.
//!
//! Pieces:
//!
//! - [`proto`] — the wire format: 13-byte header (magic, type, length,
//!   CRC-32), strict decoding, incremental [`proto::FrameReader`],
//! - [`poll`] — readiness multiplexing for the single event-loop thread,
//! - [`queue`] — the sharded bounded job queue; a full shard answers
//!   REJECTED (HTTP 429) instead of buffering unboundedly,
//! - [`job`] — the job table: states, progress streams (telemetry-journal
//!   JSONL), terminal outcomes,
//! - [`wal`] — the write-ahead job journal: every acknowledgment is
//!   fsynced before it is sent, so a SIGKILL'd server restarted on the
//!   same data directory re-runs interrupted jobs and serves persisted
//!   results bit-identically,
//! - [`admission`] — cost-based load shedding (cells × job-kind weight)
//!   with machine-readable `retry_after_ms` hints; refusing work is
//!   allowed, losing accepted work is not,
//! - [`exec`] — the executor threads; every job runs under
//!   `catch_unwind`, chaos kills fail the job and never the server, with
//!   per-job deadlines and journalled bounded retries,
//! - [`server`] — the event loop, WAL replay on startup, graceful drain
//!   (undelivered results stay in the journal for the next start),
//!   slow-loris sweep, and the HTTP routes,
//! - [`client`] — a blocking client for tests and tooling, with jittered
//!   exponential [`client::Backoff`] that honors server retry hints,
//! - [`loadgen`] — the three-phase load harness behind `BENCH_serve.json`
//!   (closed loop, overload shedding, SIGKILL/restart recovery audit).
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use rlleg_serve::client::Client;
//! use rlleg_serve::proto::JobSpec;
//! use rlleg_serve::server::{ServeConfig, Server};
//!
//! let handle = Server::start(ServeConfig {
//!     data_dir: std::env::temp_dir().join("rlleg-serve-doc"),
//!     ..ServeConfig::default()
//! })
//! .expect("start");
//! let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect");
//! client.ping(Duration::from_secs(5)).expect("pong");
//! let spec = JobSpec {
//!     def: rlleg_design::def::write_def(&rlleg_benchgen::generate(
//!         &rlleg_benchgen::find_spec("fft_2_md2").expect("table row").scaled(0.002),
//!     )),
//!     ..JobSpec::default()
//! };
//! let result = client.run(&spec, Duration::from_secs(60)).expect("job");
//! assert!(result.ok);
//! handle.shutdown_graceful();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod client;
pub mod conn;
pub mod exec;
pub mod http;
pub mod job;
pub mod loadgen;
pub mod poll;
pub mod proto;
pub mod queue;
pub mod server;
pub mod wal;

pub use client::{Client, JobResult};
pub use proto::{Frame, JobKind, JobSpec};
pub use server::{ServeConfig, Server, ServerHandle};
