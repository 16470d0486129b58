//! Hand-rolled epoll / eventfd bindings.
//!
//! The vendored-shim dependency policy rules out `libc`, `mio`, and every
//! async runtime, so the reactor talks to the kernel directly: a handful of
//! `extern "C"` declarations against the symbols every Linux libc exports,
//! wrapped immediately in safe RAII types ([`Epoll`], [`EventFd`]). This is
//! the only module in the crate allowed to use `unsafe`; everything above it
//! sees owned file descriptors and `io::Result`s.
//!
//! Why these exact bindings:
//!
//! - `epoll_create1(EPOLL_CLOEXEC)` — one instance per reactor worker.
//! - `epoll_ctl` — interest management; connection sockets are registered
//!   level-triggered (a partial drain re-arms for free), listeners with
//!   `EPOLLEXCLUSIVE` so one ready connection wakes one worker instead of
//!   the whole pool (accept thundering herd).
//! - `epoll_wait` — the blocking heart of each worker loop.
//! - `eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)` — a one-word doorbell per
//!   worker; `StopHandle::stop` writes it so shutdown latency is bounded by
//!   a syscall, not a poll interval.
//! - `listen` — re-issued on an already-listening socket to raise the
//!   accept backlog past the std default of 128 (Linux permits this).
//! - `getrlimit`/`setrlimit` — lift `RLIMIT_NOFILE` so a 10k-connection
//!   soak does not die on the default soft limit.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

// ---- raw constants (from <sys/epoll.h>, <sys/eventfd.h>, <sys/resource.h>)

/// Interest: readable.
pub const EPOLLIN: u32 = 0x001;
/// Interest: writable.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: error on the fd (always reported).
pub const EPOLLERR: u32 = 0x008;
/// Condition: hangup (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Condition: peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Flag: wake only one of the epoll instances sharing this fd.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;
const RLIMIT_NOFILE: i32 = 7;

/// The kernel's epoll event record. On x86-64 the ABI packs the struct to
/// 12 bytes (no padding between `events` and `data`); other architectures
/// use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready/interest bitmask (`EPOLL*`).
    pub events: u32,
    /// Caller-chosen token, echoed back verbatim on readiness.
    pub data: u64,
}

impl EpollEvent {
    /// An all-zero event (placeholder for the wait buffer).
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The ready bitmask (copied out of the possibly-packed struct).
    pub fn ready(&self) -> u32 {
        self.events
    }

    /// The registration token (copied out of the possibly-packed struct).
    pub fn token(&self) -> u64 {
        self.data
    }
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Register `fd` with `interest`, tagged with `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the registered interest for `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Remove `fd` from the interest set. (The kernel also does this when
    /// the last descriptor for the file closes, so failures after a close
    /// race are ignored by callers.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Block until readiness (or `timeout_ms`; negative = forever). Returns
    /// how many entries of `events` were filled. `EINTR` retries instead of
    /// erroring.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An owned eventfd doorbell: any thread may [`EventFd::ring`] it; the
/// owning reactor worker registers it in its epoll set and
/// [`EventFd::drain`]s on wakeup.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Add 1 to the counter, waking any epoll waiting on it. Infallible by
    /// design: the only failure mode for a u64 counter add of 1 is
    /// `EAGAIN` at `u64::MAX - 1`, which still leaves the fd readable.
    pub fn ring(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter to 0 (nonblocking; a zero counter is a no-op).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Re-issue `listen` on an already-listening socket to widen its accept
/// backlog (std's `TcpListener::bind` hardcodes 128, which a connection
/// storm from the load generator overflows).
pub fn widen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    cvt(unsafe { listen(fd, backlog) })?;
    Ok(())
}

/// Raise the process `RLIMIT_NOFILE` soft limit toward `want` descriptors
/// (clamped to the hard limit unless the process may raise it, as root
/// can). Returns the soft limit now in effect; never fails harder than
/// leaving the limit unchanged.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = Rlimit { rlim_cur: 0, rlim_max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    // First try within the hard limit, then try raising the hard limit too
    // (succeeds when privileged).
    let within = Rlimit { rlim_cur: want.min(lim.rlim_max), rlim_max: lim.rlim_max };
    let beyond = Rlimit { rlim_cur: want, rlim_max: want.max(lim.rlim_max) };
    if want > lim.rlim_max && unsafe { setrlimit(RLIMIT_NOFILE, &beyond) } == 0 {
        return want;
    }
    if unsafe { setrlimit(RLIMIT_NOFILE, &within) } == 0 {
        return within.rlim_cur;
    }
    lim.rlim_cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_rings_through_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing rung yet: a zero-timeout wait reports no readiness.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.ring();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert!(events[0].ready() & EPOLLIN != 0);

        // Draining resets readiness.
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no data yet");

        client.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);

        // Switch interest to EPOLLOUT: an idle socket is instantly writable.
        ep.modify(server.as_raw_fd(), EPOLLOUT, 8).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 8);
        assert!(events[0].ready() & EPOLLOUT != 0);

        ep.delete(server.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "deregistered");
    }

    #[test]
    fn nofile_limit_is_monotone() {
        let before = raise_nofile_limit(0);
        let after = raise_nofile_limit(before.max(1024));
        assert!(after >= before.min(1024));
    }

    #[test]
    fn widen_backlog_accepts_a_listening_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        widen_backlog(listener.as_raw_fd(), 1024).unwrap();
        // Still accepts connections afterwards.
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        listener.accept().unwrap();
    }
}
