//! Minimal readiness polling over raw fds: a hand-rolled binding to
//! `poll(2)`, so the event-loop server stays dependency-free (no mio,
//! no libc crate). Only what the server needs is bound: `POLLIN`,
//! `POLLOUT`, the level-triggered wait itself, and `read(2)` into
//! uninitialised memory for the framer's payload buffers.

use std::io;
use std::mem::MaybeUninit;
use std::os::fd::RawFd;

/// `struct pollfd` from `<poll.h>`, laid out exactly as the kernel ABI
/// expects on every platform we target (fd, events, revents — all
/// fixed-width).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The fd to watch (negative entries are ignored by the kernel).
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events; includes `POLLERR`/`POLLHUP`/`POLLNVAL` even
    /// when not requested.
    pub revents: i16,
}

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// The fd is not open (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn read(fd: RawFd, buf: *mut std::ffi::c_void, count: usize) -> isize;
}

/// Wait until at least one watched fd is ready or `timeout_ms` passes
/// (`-1` waits forever, `0` polls). Returns the number of entries with
/// nonzero `revents`; `EINTR` is retried internally so callers never
/// see a spurious early return.
#[cfg(unix)]
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // repr(C) pollfd structs for the duration of the call, and the
        // length is passed alongside it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Read up to `buf.len()` bytes from `fd` into `buf`, which need not be
/// initialised: `read(2)` only writes. Returns the count read, 0 at
/// EOF; on `Ok(n)` exactly `buf[..n]` has been written. `EINTR` is
/// retried internally; a nonblocking fd with nothing to read is
/// `WouldBlock`.
#[cfg(unix)]
pub fn read_uninit(fd: RawFd, buf: &mut [MaybeUninit<u8>]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a valid, exclusively borrowed region of
        // `buf.len()` bytes for the duration of the call; `read(2)`
        // writes at most that many bytes into it and reads none, so an
        // uninitialised destination is sound.
        let rc = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(not(unix))]
pub fn poll_fds(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "readiness polling requires a unix platform",
    ))
}

#[cfg(not(unix))]
pub fn read_uninit(_fd: RawFd, _buf: &mut [MaybeUninit<u8>]) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "raw reads require a unix platform",
    ))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn local_pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reports_readable_after_write() {
        let (mut a, b) = local_pair();
        let mut fds = [PollFd {
            fd: b.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        // Nothing to read yet: times out with zero ready.
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        let n = poll_fds(&mut fds, 2000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn reports_writable_on_fresh_socket() {
        let (a, _b) = local_pair();
        let mut fds = [PollFd {
            fd: a.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        }];
        let n = poll_fds(&mut fds, 2000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
    }

    #[test]
    fn reports_hangup_or_readable_eof_on_peer_close() {
        let (a, b) = local_pair();
        drop(a);
        let mut fds = [PollFd {
            fd: b.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = poll_fds(&mut fds, 2000).unwrap();
        assert_eq!(n, 1);
        // EOF surfaces as POLLIN (read returns 0) and often POLLHUP.
        assert_ne!(fds[0].revents & (POLLIN | POLLHUP), 0);
    }
}
