//! Readiness notification: a thin, std-only wrapper over raw `epoll`.
//!
//! The event loop in [`crate::conn`] needs exactly four primitives —
//! register a socket, change its interest set, wait with a deadline,
//! and be woken from another thread — and this module provides them
//! over direct `epoll(7)`/`eventfd(2)` syscalls declared by hand, so
//! the serve tier stays free of external runtimes. The FFI surface is
//! confined to the `sys` submodule, which carries the one scoped
//! waiver of the workspace-wide `unsafe_code` deny (see the root
//! manifest): seven syscalls, each wrapped in a safe function that
//! translates `-1` into [`io::Error::last_os_error`].
//!
//! Everything is **level-triggered**: an event repeats until the
//! condition is drained, so a handler that processes only part of a
//! readable buffer is re-notified on the next [`Reactor::wait`] — the
//! simplest semantics to keep correct under partial reads and writes.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Raw syscall bindings. This module is the scoped waiver of the
/// workspace `unsafe_code = "deny"` lint: the unsafe surface is seven
/// `extern` declarations and the call sites immediately wrapping them.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::os::unix::io::RawFd;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event` — packed on x86 per the kernel ABI.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        fn eventfd(initval: u32, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create() -> io::Result<RawFd> {
        check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    pub fn ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        check(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
    }

    pub fn wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        let max = c_int::try_from(buf.len()).unwrap_or(c_int::MAX);
        let n = check(unsafe { epoll_wait(epfd, buf.as_mut_ptr(), max, timeout_ms) })?;
        Ok(n.max(0) as usize)
    }

    pub fn new_eventfd() -> io::Result<RawFd> {
        check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }

    /// Nonblocking 8-byte read from an eventfd (drains its counter).
    pub fn eventfd_read(fd: RawFd) -> io::Result<u64> {
        let mut buf = 0u64;
        let n = unsafe { read(fd, std::ptr::addr_of_mut!(buf).cast::<c_void>(), 8) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(buf)
        }
    }

    /// 8-byte write to an eventfd (increments its counter).
    pub fn eventfd_write(fd: RawFd, value: u64) -> io::Result<()> {
        let n = unsafe { write(fd, std::ptr::addr_of!(value).cast::<c_void>(), 8) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn close_fd(fd: RawFd) {
        let _ = unsafe { close(fd) };
    }
}

/// Token reserved for the reactor's internal wake eventfd — never
/// reported to callers.
const WAKE_TOKEN: u64 = u64::MAX;

/// What a file descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when a read would not block (or the peer hung up).
    pub readable: bool,
    /// Notify when a write would not block.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if self.readable {
            m |= sys::EPOLLIN;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness event delivered by [`Reactor::wait`]. Error and
/// hang-up conditions are folded into `readable`, so the owner's next
/// read surfaces the actual `io::Error`/EOF — the loop needs no
/// separate error path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// A read would make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
}

/// Wakes a [`Reactor`] blocked in [`Reactor::wait`] from another
/// thread (the dispatch workers use this to deliver completions).
#[derive(Debug, Clone, Copy)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Interrupts the reactor's current (or next) wait. Wait-free;
    /// coalesces with other pending wakes.
    pub fn wake(&self) {
        // A full eventfd counter (EAGAIN) still means "wake pending".
        let _ = sys::eventfd_write(self.fd, 1);
    }
}

/// A readiness queue: raw `epoll` plus an eventfd wake channel.
#[derive(Debug)]
pub struct Reactor {
    epfd: RawFd,
    wakefd: RawFd,
}

impl Reactor {
    /// Creates the epoll instance and its wake eventfd.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1`/`eventfd` failures (fd exhaustion).
    pub fn new() -> io::Result<Self> {
        let epfd = sys::epoll_create()?;
        let wakefd = match sys::new_eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        let reactor = Self { epfd, wakefd };
        reactor.register(wakefd, WAKE_TOKEN, Interest::READ)?;
        Ok(reactor)
    }

    /// A handle other threads use to interrupt [`Self::wait`]. Valid
    /// for the reactor's lifetime.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker { fd: self.wakefd }
    }

    /// Starts watching `fd` with `token` (tokens `u64::MAX` is
    /// reserved).
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` failure.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes the interest set of a registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Stops watching `fd`. Harmless to call for an fd the kernel
    /// already dropped (closing an fd deregisters it implicitly).
    pub fn deregister(&self, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses, or a [`Waker`] fires; fills `events` with the ready
    /// set (internal wake events are drained, not reported). `None`
    /// blocks indefinitely; sub-millisecond timeouts round **up** so a
    /// deadline is never spun past in a zero-timeout busy loop.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures (`EINTR` is retried
    /// internally, surfacing as an empty ready set).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                let ms = if ms.saturating_mul(1_000_000) < d.as_nanos() {
                    ms + 1 // round a fractional millisecond up
                } else {
                    ms
                };
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 128];
        let n = match sys::wait(self.epfd, &mut buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in buf.iter().take(n) {
            // Copy out of the (packed) struct before matching on it.
            let mask = ev.events;
            let token = ev.data;
            if token == WAKE_TOKEN {
                let _ = sys::eventfd_read(self.wakefd);
                continue;
            }
            events.push(Event {
                token,
                readable: mask & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                    != 0,
                writable: mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys::close_fd(self.wakefd);
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn timeout_expires_without_events() {
        let r = Reactor::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        r.wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        let r = Reactor::new().unwrap();
        let waker = r.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        r.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the waker must interrupt the wait"
        );
        assert!(events.is_empty(), "internal wake events are not reported");
        handle.join().unwrap();
    }

    #[test]
    fn socket_readiness_is_reported_by_token() {
        let r = Reactor::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        r.register(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        r.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "nothing is ready yet");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        r.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "pending connection makes the listener readable: {events:?}"
        );

        // Accept, watch the connection, see its data arrive.
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        r.register(conn.as_raw_fd(), 9, Interest::READ_WRITE)
            .unwrap();
        client.write_all(b"hello\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            r.wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "data never became readable");
        }
        r.deregister(conn.as_raw_fd());
    }
}
