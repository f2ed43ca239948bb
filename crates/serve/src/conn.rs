//! Per-connection state for the event loop.
//!
//! A connection starts in [`Mode::Unknown`]; the first buffered bytes pick
//! the dialect — the binary frame magic selects [`Mode::Binary`], an HTTP
//! method selects [`Mode::Http`], anything else is torn down. Both
//! dialects share one port and one loop.
//!
//! All sockets are non-blocking; the connection owns an input buffer fed
//! by readable events and an output buffer drained by writable events.
//! `last_progress` timestamps the last *byte-level* progress in either
//! direction, or the last time output was queued — the slow-loris sweep
//! uses it to reap clients that neither finish a request nor read their
//! responses, while clients legitimately waiting on a subscribed job stay
//! untouched.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::job::JobId;

/// Which dialect the peer speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Not enough bytes buffered to tell yet.
    Unknown,
    /// The CRC-framed binary protocol.
    Binary,
    /// The minimal HTTP/1.1 adapter.
    Http,
}

/// One accepted client connection.
pub struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Bytes read but not yet consumed by a parser.
    pub inbuf: Vec<u8>,
    /// Bytes queued for the peer.
    pub outbuf: Vec<u8>,
    /// Sniffed dialect.
    pub mode: Mode,
    /// Last moment any byte moved on this connection or was queued for
    /// the peer.
    pub last_progress: Instant,
    /// Jobs this connection submitted (binary mode): progress cursor into
    /// `JobEntry::progress` per job; results stream back automatically.
    pub subscriptions: HashMap<JobId, usize>,
    /// Close once `outbuf` has drained (HTTP responses, protocol errors).
    pub close_after_flush: bool,
    /// The peer closed its half; no more input will arrive.
    pub peer_gone: bool,
}

impl Conn {
    /// Wraps a freshly-accepted socket (sets it non-blocking).
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            mode: Mode::Unknown,
            last_progress: Instant::now(),
            subscriptions: HashMap::new(),
            close_after_flush: false,
            peer_gone: false,
        })
    }

    /// Sniffs the dialect once at least a few bytes are buffered.
    /// Returns `false` when the prefix is neither dialect (tear down).
    pub fn sniff(&mut self) -> bool {
        if self.mode != Mode::Unknown || self.inbuf.len() < 4 {
            return true;
        }
        if self.inbuf[..4] == crate::proto::MAGIC {
            self.mode = Mode::Binary;
        } else if crate::http::looks_like_http(&self.inbuf) {
            self.mode = Mode::Http;
        } else {
            return false;
        }
        true
    }

    /// Drains the socket into `inbuf` until `WouldBlock`. Returns `false`
    /// when the connection errored (tear down). EOF sets `peer_gone`.
    pub fn fill(&mut self, max_buffer: usize) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.inbuf.len() >= max_buffer {
                // A peer that outruns the parser cap is a protocol error
                // (frames and HTTP bodies are size-capped below this).
                return false;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_gone = true;
                    return true;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Writes queued output until `WouldBlock` or empty. Returns `false`
    /// when the connection errored (tear down).
    pub fn flush(&mut self) -> bool {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outbuf.drain(..n);
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Queues bytes for the peer and restarts the idle clock: the peer
    /// gets a full `idle_timeout` to read them, however long it waited
    /// for them (a job result is queued as its subscription ends, right
    /// before the idle sweep).
    pub fn send(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
        self.last_progress = Instant::now();
    }

    /// `true` once this connection is finished and can be dropped. A peer
    /// that closed its socket can never read a result, so its
    /// subscriptions die with it — pending outcomes stay undelivered and
    /// are persisted by the graceful drain instead of being "delivered"
    /// into a dead socket.
    pub fn done(&self) -> bool {
        (self.close_after_flush && self.outbuf.is_empty()) || self.peer_gone
    }

    /// `true` when the connection is mid-request with nothing to wait for
    /// but the peer — the shape a slow-loris attack leaves behind.
    pub fn is_stalled(&self, now: Instant, idle: std::time::Duration) -> bool {
        if now.duration_since(self.last_progress) < idle {
            return false;
        }
        // Waiting on a subscribed job is legitimate idleness; so is a
        // binary session sitting between requests with clean buffers.
        let waiting_on_job = !self.subscriptions.is_empty();
        let mid_request = !self.inbuf.is_empty() || self.mode == Mode::Unknown;
        let unread_output = !self.outbuf.is_empty();
        !waiting_on_job && (mid_request || unread_output || self.mode == Mode::Http)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (Conn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        (Conn::new(server_side).expect("conn"), client)
    }

    #[test]
    fn sniffs_binary_and_http_and_rejects_garbage() {
        let (mut c, _k) = pair();
        c.inbuf = crate::proto::MAGIC.to_vec();
        assert!(c.sniff());
        assert_eq!(c.mode, Mode::Binary);

        let (mut c, _k) = pair();
        c.inbuf = b"GET / HTTP/1.1".to_vec();
        assert!(c.sniff());
        assert_eq!(c.mode, Mode::Http);

        let (mut c, _k) = pair();
        c.inbuf = b"\xff\xff\xff\xff".to_vec();
        assert!(!c.sniff(), "garbage prefix must tear down");

        let (mut c, _k) = pair();
        c.inbuf = b"GE".to_vec();
        assert!(c.sniff(), "short prefix: keep waiting");
        assert_eq!(c.mode, Mode::Unknown);
    }

    #[test]
    fn fill_and_flush_move_bytes() {
        let (mut c, mut client) = pair();
        client.write_all(b"RLSF").expect("write");
        // Give the kernel a moment on loopback.
        std::thread::sleep(Duration::from_millis(20));
        assert!(c.fill(1024));
        assert_eq!(c.inbuf, b"RLSF");
        c.send(b"pong");
        assert!(c.flush());
        let mut got = [0u8; 4];
        client.read_exact(&mut got).expect("read");
        assert_eq!(&got, b"pong");
    }

    #[test]
    fn fill_detects_eof() {
        let (mut c, client) = pair();
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
        assert!(c.fill(1024));
        assert!(c.peer_gone);
        assert!(c.done());
    }

    #[test]
    fn stall_detection_spares_subscribers() {
        let (mut c, _k) = pair();
        c.mode = Mode::Binary;
        c.last_progress = Instant::now() - Duration::from_secs(60);
        // Clean binary session between requests: not stalled.
        assert!(!c.is_stalled(Instant::now(), Duration::from_secs(5)));
        // Half a frame buffered and silent: stalled (slow loris).
        c.inbuf = b"RL".to_vec();
        assert!(c.is_stalled(Instant::now(), Duration::from_secs(5)));
        // Same, but waiting on a job it submitted: spared.
        c.subscriptions.insert(1, 0);
        assert!(!c.is_stalled(Instant::now(), Duration::from_secs(5)));
    }

    #[test]
    fn queued_output_gets_a_fresh_idle_timeout() {
        let (mut c, _k) = pair();
        c.mode = Mode::Binary;
        let idle = Duration::from_secs(5);
        // A client that waited two timeouts on its job; the result is
        // queued as the subscription ends.
        c.last_progress = Instant::now() - 2 * idle;
        c.send(b"RESULT");
        assert!(
            !c.is_stalled(Instant::now(), idle),
            "a just-queued result must not be reaped"
        );
        // Still unread one timeout later: now the peer is stalled.
        assert!(c.is_stalled(Instant::now() + idle, idle));
    }

    #[test]
    fn over_cap_input_tears_down() {
        let (mut c, mut client) = pair();
        client.write_all(&[0u8; 64]).expect("write");
        std::thread::sleep(Duration::from_millis(20));
        c.inbuf = vec![0u8; 32];
        assert!(!c.fill(16), "inbuf past the cap must tear down");
    }
}
