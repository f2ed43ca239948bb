//! Readiness polling for the event loop.
//!
//! The server multiplexes every connection on one thread with non-blocking
//! sockets and a `poll(2)` readiness wait. `poll` lives in libc, which the
//! Rust standard library already links, so declaring the symbol directly
//! keeps the workspace's zero-new-dependency rule intact — no `mio`, no
//! `libc` crate. On non-Unix targets a timed-sleep fallback reports every
//! descriptor ready; correctness is preserved because all socket
//! operations are non-blocking (`WouldBlock` is handled everywhere), only
//! idle CPU differs.

use std::time::Duration;

/// What the event loop wants to know about one descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interest {
    /// Wake when the descriptor is readable (always set for sockets).
    pub readable: bool,
    /// Wake when the descriptor is writable (set while output is queued).
    pub writable: bool,
}

/// What `poll` reported for one descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Data (or a pending accept / EOF) is available.
    pub readable: bool,
    /// The socket can take more output.
    pub writable: bool,
    /// Error/hangup — the connection should be torn down.
    pub error: bool,
}

#[cfg(unix)]
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// `EINTR`: 4 on every Unix (POSIX pins the classic errno values).
    pub const EINTR: i32 = 4;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `nfds_t` is `c_ulong`: pointer-width on every Unix Rust supports
    /// (64-bit on LP64, 32-bit on ILP32 targets like armv7/i686).
    #[cfg(target_pointer_width = "64")]
    pub type NfdsT = u64;
    #[cfg(not(target_pointer_width = "64"))]
    pub type NfdsT = u32;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }
}

/// Waits up to `timeout` for readiness on `fds` (raw descriptor +
/// interest). Returns one [`Readiness`] per input, index-aligned.
#[cfg(unix)]
pub fn wait(fds: &[(i32, Interest)], timeout: Duration) -> Vec<Readiness> {
    let mut pfds: Vec<sys::PollFd> = fds
        .iter()
        .map(|&(fd, want)| sys::PollFd {
            fd,
            events: if want.readable { sys::POLLIN } else { 0 }
                | if want.writable { sys::POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let deadline = std::time::Instant::now() + timeout;
    // A signal (the kill/restart harness delivers plenty) interrupts
    // poll(2) with EINTR before the timeout; retry with the remaining
    // window instead of reporting a spurious empty tick. Other failures
    // still degrade to "nothing ready" — the loop re-polls immediately,
    // so no readiness is ever lost.
    let rc = loop {
        let timeout_ms = i32::try_from(
            deadline
                .saturating_duration_since(std::time::Instant::now())
                .as_millis(),
        )
        .unwrap_or(i32::MAX)
        .max(0);
        // SAFETY: `pfds` is a live, exclusively borrowed array of exactly
        // `pfds.len()` `#[repr(C)]` records laid out as `struct pollfd`,
        // and poll(2) writes only their `revents` fields before returning.
        #[allow(unsafe_code)]
        let rc = unsafe { sys::poll(pfds.as_mut_ptr(), pfds.len() as sys::NfdsT, timeout_ms) };
        let interrupted = rc == -1
            && std::io::Error::last_os_error().raw_os_error() == Some(sys::EINTR)
            && timeout_ms > 0;
        if !interrupted {
            break rc;
        }
    };
    if rc <= 0 {
        return vec![Readiness::default(); fds.len()];
    }
    pfds.iter()
        .map(|p| Readiness {
            readable: p.revents & (sys::POLLIN | sys::POLLHUP) != 0,
            writable: p.revents & sys::POLLOUT != 0,
            error: p.revents & (sys::POLLERR | sys::POLLNVAL) != 0,
        })
        .collect()
}

/// Portable fallback: sleep a slice of the timeout and report everything
/// ready; non-blocking socket calls sort out reality.
#[cfg(not(unix))]
pub fn wait(fds: &[(i32, Interest)], timeout: Duration) -> Vec<Readiness> {
    std::thread::sleep(timeout.min(Duration::from_millis(2)));
    fds.iter()
        .map(|&(_, want)| Readiness {
            readable: want.readable,
            writable: want.writable,
            error: false,
        })
        .collect()
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let want = Interest {
            readable: true,
            writable: false,
        };
        // Nothing pending: a short poll reports not-ready.
        let r = wait(&[(listener.as_raw_fd(), want)], Duration::from_millis(1));
        assert!(!r[0].readable);
        let _client = TcpStream::connect(addr).expect("connect");
        let r = wait(
            &[(listener.as_raw_fd(), want)],
            Duration::from_millis(1_000),
        );
        assert!(r[0].readable, "pending accept must wake POLLIN");
    }

    #[test]
    fn stream_reports_write_readiness_and_incoming_data() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let both = Interest {
            readable: true,
            writable: true,
        };
        let r = wait(
            &[(server_side.as_raw_fd(), both)],
            Duration::from_millis(1_000),
        );
        assert!(r[0].writable, "fresh socket must be writable");
        client.write_all(b"hello").expect("write");
        let r = wait(
            &[(server_side.as_raw_fd(), both)],
            Duration::from_millis(1_000),
        );
        assert!(r[0].readable, "buffered bytes must wake POLLIN");
    }
}
