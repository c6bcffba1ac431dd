//! Minimal `poll(2)` readiness binding: the one way every thread in
//! the serving stack waits on a socket.
//!
//! Every socket is non-blocking. The server's accept thread parks
//! here on the listener and the acceptor's stop descriptor, each
//! connection handler on its connection and the stop descriptor, the
//! client on its connection (with the connect timeout as the per-wait
//! bound), and the cluster driver on every in-flight backend
//! connection at once.
//!
//! The binding is deliberately tiny — `poll` only, no registration
//! state, no libc dependency (the symbol comes from the C runtime the
//! std already links). On non-unix targets the fallback naps briefly
//! and reports every descriptor ready; callers run non-blocking I/O
//! and re-loop on `WouldBlock`, and flags, not descriptors, carry
//! their stop signals.

use std::io;
use std::time::Duration;

/// Readiness bit: the descriptor has bytes to read (POLLIN).
pub const READABLE: i16 = 0x001;
/// Readiness bit: the descriptor accepts writes (POLLOUT).
pub const WRITABLE: i16 = 0x004;
/// Result-only bit: the peer hung up (POLLHUP).
pub const HANGUP: i16 = 0x010;
/// Result-only bit: error condition on the descriptor (POLLERR).
pub const ERROR: i16 = 0x008;

/// One descriptor of a [`wait`] set: the descriptor, the events
/// asked for, and, once the wait returns, the events that fired. Laid
/// out as poll(2)'s `struct pollfd`, so a caller-owned array of them
/// is handed to the kernel as is: a wait allocates nothing.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    fd: RawFdAlias,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Asks for `events` on `fd`. A negative `fd` is skipped by the
    /// wait and never fires.
    pub fn new(fd: RawFdAlias, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The result bits of the last [`wait`] (0 = nothing fired).
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

/// A wait bound in whole milliseconds for poll(2), rounded *up*: a
/// sub-millisecond remainder must not truncate to a zero timeout, or
/// a caller waiting out its last millisecond would spin through it.
/// `None` blocks indefinitely (-1).
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> std::os::raw::c_int {
    use std::os::raw::c_int;
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
    }
}

#[cfg(unix)]
mod imp {
    use super::*;
    use std::os::raw::{c_int, c_ulong};

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux, which is the only unix
        // this repo targets in CI; other unixes fall within c_ulong's
        // width anyway for the descriptor counts used here.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Waits until at least one descriptor is ready (or the timeout
    /// passes; `None` blocks indefinitely) and leaves each
    /// descriptor's result bits in its [`PollFd::revents`] — all zero
    /// on timeout. `EINTR` reports as a timeout-like all-zero result
    /// so callers simply re-loop.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        // SAFETY: `PollFd` is `repr(C)` with `struct pollfd`'s layout,
        // and the pointer/length pair covers exactly the caller's slice.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms(timeout)) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                fds.iter_mut().for_each(|p| p.revents = 0);
                return Ok(());
            }
            return Err(err);
        }
        Ok(())
    }
}

#[cfg(not(unix))]
mod imp {
    use super::*;

    /// Portable fallback: a short nap, then report every descriptor
    /// ready — callers run non-blocking I/O and re-loop on
    /// `WouldBlock`.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        let nap = timeout
            .unwrap_or(Duration::from_micros(200))
            .min(Duration::from_micros(200));
        std::thread::sleep(nap);
        fds.iter_mut().for_each(|p| p.revents = p.events);
        Ok(())
    }
}

pub use imp::wait;

/// Waits on a single descriptor; returns its result bits (0 = timed
/// out).
pub fn wait_one(fd: RawFdAlias, events: i16, timeout: Option<Duration>) -> io::Result<i16> {
    let mut fds = [PollFd::new(fd, events)];
    wait(&mut fds, timeout)?;
    Ok(fds[0].revents())
}

/// The raw-descriptor type `wait` operates on (unix `RawFd`; a plain
/// `i32` stand-in elsewhere so call sites stay portable).
#[cfg(unix)]
pub type RawFdAlias = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type RawFdAlias = i32;

/// A socket's descriptor, for [`wait`].
#[cfg(unix)]
pub fn fd(socket: &impl std::os::unix::io::AsRawFd) -> RawFdAlias {
    socket.as_raw_fd()
}

/// A stand-in descriptor: the fallback [`wait`] reports every
/// descriptor ready whatever it is.
#[cfg(not(unix))]
pub fn fd<T>(_socket: &T) -> RawFdAlias {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;

    #[cfg(unix)]
    #[test]
    fn poll_sees_readability_only_when_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        // Nothing written yet: a zero timeout reports not readable.
        let r = wait_one(client.as_raw_fd(), READABLE, Some(Duration::from_millis(0))).unwrap();
        assert_eq!(r & READABLE, 0);

        server.write_all(b"ping").unwrap();
        let r = wait_one(
            client.as_raw_fd(),
            READABLE,
            Some(Duration::from_millis(2000)),
        )
        .unwrap();
        assert_ne!(r & READABLE, 0);
        let mut buf = [0u8; 4];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // A fresh, undrained socket is writable immediately.
        let r = wait_one(
            client.as_raw_fd(),
            WRITABLE,
            Some(Duration::from_millis(2000)),
        )
        .unwrap();
        assert_ne!(r & WRITABLE, 0);
    }

    #[cfg(unix)]
    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(999))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1001))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX);
    }

    #[cfg(unix)]
    #[test]
    fn poll_reports_hangup_on_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        drop(server);
        // Readable-or-hangup: either bit satisfies a reader, which
        // then sees EOF. Give the kernel a moment to register it.
        let r = wait_one(
            client.as_raw_fd(),
            READABLE,
            Some(Duration::from_millis(2000)),
        )
        .unwrap();
        assert_ne!(r & (READABLE | HANGUP), 0);
    }
}
