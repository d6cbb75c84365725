//! OS readiness notification for the event loop.
//!
//! [`Poller`] is the thinnest possible wrapper over the platform's
//! readiness API: register a socket under a `u64` token, block in
//! [`Poller::wait`] until some registered socket is readable/writable,
//! get the tokens back. Level-triggered semantics throughout — a socket
//! that still has unread bytes (or writable buffer space) keeps showing
//! up, so the event loop never needs to drain-to-`WouldBlock` on pain of
//! losing a wakeup, only for throughput.
//!
//! On Linux this is epoll, reached through a four-function `extern "C"`
//! shim (`epoll_create1`/`epoll_ctl`/`epoll_wait`/`close`) — the vendored
//! std-only rule leaves no libc crate, but glibc itself is already linked
//! under every `std` binary, so declaring the symbols is enough. The shim
//! is the crate's only `#[allow(unsafe_code)]` island.
//!
//! Elsewhere the fallback poller keeps the same contract degenerately: it
//! sleeps out the timeout slice and reports every registered token ready.
//! The connection layer treats readiness as a hint and reads until
//! `WouldBlock` anyway, so spurious readiness costs syscalls, never
//! correctness.

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Which readiness directions a registration asks to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket has bytes to read (or the peer hung up).
    pub readable: bool,
    /// Wake when the socket can accept more outgoing bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of a parked connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest — a connection with a backed-up write buffer,
    /// not read from again until the backlog drains.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: u64,
    /// The socket is readable — including EOF and error conditions, which
    /// a read will surface.
    pub readable: bool,
    /// The socket is writable.
    pub writable: bool,
    /// The peer closed or the socket errored; the connection is done for.
    pub closed: bool,
}

/// A level-triggered readiness poller (epoll on Linux; a degenerate
/// tick-scan elsewhere). All methods take `&self` — registration changes
/// and waiting may race freely, as epoll itself guarantees.
#[derive(Debug)]
pub struct Poller {
    inner: imp::Poller,
}

impl Poller {
    /// Creates a poller with no registrations.
    ///
    /// # Errors
    ///
    /// The underlying OS call failed (fd exhaustion, typically).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: imp::Poller::new()?,
        })
    }

    /// Starts watching `fd` under `token`. One registration per fd.
    ///
    /// # Errors
    ///
    /// The fd is already registered, invalid, or the kernel table is full.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd.as_raw_fd(), token, interest)
    }

    /// Changes an existing registration's interest (same token or a new
    /// one).
    ///
    /// # Errors
    ///
    /// The fd was never registered.
    pub fn reregister(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.reregister(fd.as_raw_fd(), token, interest)
    }

    /// Stops watching `fd`. Safe to call right before closing it.
    ///
    /// # Errors
    ///
    /// The fd was never registered.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.inner.deregister(fd.as_raw_fd())
    }

    /// Blocks until at least one registered socket is ready or `timeout`
    /// elapses (`None` blocks indefinitely), refilling `events` with the
    /// ready set — possibly empty on timeout. `EINTR` is retried
    /// internally.
    ///
    /// # Errors
    ///
    /// A non-transient failure of the OS wait call.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// Raw epoll bindings. glibc is linked under every `std` binary, so
    /// these four symbols resolve without any crate dependency. Kept to
    /// the absolute minimum surface; everything above speaks safe Rust.
    #[allow(unsafe_code)]
    mod sys {
        use std::os::fd::RawFd;

        pub const EPOLL_CLOEXEC: i32 = 0o2000000;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
        pub const EPOLLRDHUP: u32 = 0x2000;

        /// Mirror of the kernel's `struct epoll_event`. On x86-64 the ABI
        /// packs it (4-byte-aligned u64 payload); other architectures use
        /// natural alignment.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn close(fd: i32) -> i32;
        }

        pub fn create() -> i32 {
            // SAFETY: epoll_create1 takes no pointers; any flags value is
            // merely accepted or rejected with EINVAL.
            unsafe { epoll_create1(EPOLL_CLOEXEC) }
        }

        pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, event: Option<&mut EpollEvent>) -> i32 {
            let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null or a live exclusive borrow for the
            // duration of the call; the kernel only reads it.
            unsafe { epoll_ctl(epfd, op, fd, ptr) }
        }

        pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> i32 {
            // SAFETY: the kernel writes at most `events.len()` entries into
            // the exclusively borrowed slice.
            unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) }
        }

        pub fn close_fd(fd: RawFd) -> i32 {
            // SAFETY: plain close of an fd this module created and owns.
            unsafe { close(fd) }
        }
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        epfd: RawFd,
    }

    fn mask(interest: Interest) -> u32 {
        // RDHUP is always on: a half-closing peer must wake the loop even
        // when the connection is parked read-only.
        let mut m = sys::EPOLLRDHUP;
        if interest.readable {
            m |= sys::EPOLLIN;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    fn check(rc: i32) -> io::Result<()> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Poller> {
            let epfd = sys::create();
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        pub(super) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: mask(interest),
                data: token,
            };
            check(sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev)))
        }

        pub(super) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: mask(interest),
                data: token,
            };
            check(sys::ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Some(&mut ev)))
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels insisted on a non-null event for DEL; pass
            // one unconditionally, it is ignored either way.
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            check(sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, Some(&mut ev)))
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
            let timeout_ms = match timeout {
                None => -1,
                // Round up so a 100µs timeout polls for 1ms, not 0 (busy
                // loop).
                Some(t) => t
                    .as_millis()
                    .max(u128::from(u32::from(!t.is_zero())))
                    .min(i32::MAX as u128) as i32,
            };
            loop {
                let n = sys::wait(self.epfd, &mut raw, timeout_ms);
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                for slot in raw.iter().take(n as usize) {
                    // Copy out of the (possibly packed) FFI struct before
                    // touching fields.
                    let ev = *slot;
                    let bits = ev.events;
                    let closed = bits & (sys::EPOLLHUP | sys::EPOLLRDHUP | sys::EPOLLERR) != 0;
                    events.push(Event {
                        token: ev.data,
                        // HUP/ERR count as readable: the read path is where
                        // EOF and the pending error get surfaced.
                        readable: bits & sys::EPOLLIN != 0 || closed,
                        writable: bits & sys::EPOLLOUT != 0,
                        closed,
                    });
                }
                return Ok(());
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            let _ = sys::close_fd(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Portable fallback: no OS wait at all — sleep out a slice of the
    /// timeout, then report every registration ready per its interest.
    /// Correct (the connection layer tolerates spurious readiness via
    /// `WouldBlock`) but O(connections) per tick; the Linux build is the
    /// one the 10k-idle scenario is sized for.
    #[derive(Debug)]
    pub(super) struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    const TICK: Duration = Duration::from_millis(5);

    impl Poller {
        pub(super) fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
            })
        }

        pub(super) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut map = self.registered.lock().expect("poller registry");
            if map.insert(fd, (token, interest)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        pub(super) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut map = self.registered.lock().expect("poller registry");
            match map.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut map = self.registered.lock().expect("poller registry");
            match map.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            std::thread::sleep(timeout.unwrap_or(TICK).min(TICK));
            let map = self.registered.lock().expect("poller registry");
            for (&_fd, &(token, interest)) in map.iter() {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    closed: false,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{Ipv4Addr, TcpListener, TcpStream};
    use std::time::Instant;

    /// Waits until `token` shows up readable, or panics after ~2s.
    fn await_token(poller: &Poller, token: u64) -> Event {
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == token && e.readable) {
                return *ev;
            }
        }
        panic!("token {token} never became readable");
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(&listener, 7, Interest::READ).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let ev = await_token(&poller, 7);
        assert!(ev.readable);
        poller.deregister(&listener).unwrap();
    }

    #[test]
    fn stream_becomes_readable_on_bytes() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller.register(&accepted, 42, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        let ev = await_token(&poller, 42);
        assert_eq!(ev.token, 42);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn quiet_socket_stays_silent_until_timeout() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(&listener, 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(60)))
            .unwrap();
        assert!(events.is_empty(), "nothing connected, nothing ready");
        assert!(started.elapsed() >= Duration::from_millis(50));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peer_hangup_reports_closed() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller.register(&accepted, 9, Interest::READ).unwrap();
        drop(client);
        let ev = await_token(&poller, 9);
        assert!(ev.closed, "hangup must be flagged: {ev:?}");
    }

    #[test]
    fn reregister_switches_interest() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller.register(&accepted, 3, Interest::READ).unwrap();
        poller.reregister(&accepted, 3, Interest::WRITE).unwrap();
        // A fresh connection's send buffer is empty: writable immediately.
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.writable) {
                break;
            }
            assert!(Instant::now() < deadline, "never became writable");
        }
    }
}
