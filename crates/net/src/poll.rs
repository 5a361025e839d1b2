//! A minimal readiness-notification layer for the event-driven socket
//! backend: `epoll(7)` on Linux, `poll(2)` on other Unixes.
//!
//! The daemon is std-only by design, and std exposes no readiness API —
//! but it *links* libc, so the handful of symbols needed here
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`/`close`, or `poll`) are
//! declared directly and resolve at link time. All `unsafe` of the socket
//! layer is confined to the tiny `sys` module in this file (the crate's
//! only other `unsafe` is the CRC-32 folding kernel's call in `crc32.rs`);
//! everything above it is a safe wrapper with owned file descriptors and
//! checked lengths.
//!
//! Level-triggered semantics throughout (the epoll default): an fd with
//! unread input or unflushed-but-writable output keeps reporting ready,
//! so the event loop never needs edge-triggered drain discipline.
//!
//! [`Waker`] is the cross-thread wake-up primitive: a connected
//! `UnixStream` pair used as a self-pipe. Batcher threads write one byte
//! to nudge an event loop blocked in [`Poller::wait`]; the loop drains
//! the read half. No `unsafe` is involved — std's socketpair suffices.

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// What an fd is registered to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when a read would make progress (includes EOF/hangup).
    pub readable: bool,
    /// Report when a write would make progress.
    pub writable: bool,
}

impl Interest {
    /// Read-readiness only — the steady state of an idle connection.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// A read would make progress.
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
    /// Error or hangup condition — always also treated as readable so the
    /// owner observes the EOF/error through its normal read path.
    pub hangup: bool,
}

/// A readiness selector owning one kernel polling object.
///
/// Registration methods take `&self` (the kernel object carries the
/// state); [`Poller::wait`] takes `&mut self` for its reusable event
/// buffer. One event-loop thread owns each `Poller`.
pub struct Poller {
    inner: imp::Poller,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish_non_exhaustive()
    }
}

impl Poller {
    /// Creates a new selector.
    ///
    /// # Errors
    ///
    /// Forwards the kernel error (e.g. fd exhaustion).
    pub fn new() -> io::Result<Self> {
        Ok(Poller {
            inner: imp::Poller::new()?,
        })
    }

    /// Starts watching `fd`, reporting events with `token`.
    ///
    /// # Errors
    ///
    /// Forwards the kernel error (e.g. an already-registered fd).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Changes the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Forwards the kernel error (e.g. an unregistered fd).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`. Must be called *before* the fd is closed.
    ///
    /// # Errors
    ///
    /// Forwards the kernel error.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = forever), filling `events` (cleared first).
    ///
    /// # Errors
    ///
    /// Forwards the kernel error; `EINTR` is retried internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.inner.wait(events, timeout)
    }
}

/// Converts a timeout to whole milliseconds, rounding up so a short
/// positive timeout never becomes a busy-spin zero.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
            ms.min(i32::MAX as u128) as i32
        }
    }
}

/// Cross-thread wake-up for a poller blocked in [`Poller::wait`]: a
/// `UnixStream` pair used as a self-pipe. Register [`Waker::rx_fd`] with
/// the poller; any thread may call [`Waker::wake`].
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Creates the socket pair (both halves nonblocking, so a full pipe
    /// never blocks the waking thread).
    ///
    /// # Errors
    ///
    /// Forwards socketpair/fcntl errors.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd to register for read-readiness.
    pub fn rx_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Nudges the poller. Infallible by design: a full pipe means a wake
    /// is already pending, which is all a wake needs to guarantee.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consumes pending wake bytes so level-triggered polling quiesces.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 256];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// The raw epoll syscall surface. The socket layer's single `unsafe`
    /// island: fixed-signature FFI onto libc symbols std already links,
    /// with all pointer/length pairs derived from Rust slices.
    #[allow(unsafe_code)]
    mod sys {
        use std::os::raw::c_int;

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        /// Mirrors the kernel UAPI `struct epoll_event`, which is packed
        /// on x86-64 only (`__EPOLL_PACKED`).
        #[cfg(target_arch = "x86_64")]
        #[repr(C, packed)]
        #[derive(Debug, Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        /// Mirrors the kernel UAPI `struct epoll_event` (natural layout
        /// off x86-64).
        #[cfg(not(target_arch = "x86_64"))]
        #[repr(C)]
        #[derive(Debug, Clone, Copy)]
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
                timeout: c_int,
            ) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        pub fn create() -> c_int {
            // SAFETY: no pointers; returns an owned fd or -1.
            unsafe { epoll_create1(EPOLL_CLOEXEC) }
        }

        pub fn ctl(epfd: c_int, op: c_int, fd: c_int, ev: Option<&mut EpollEvent>) -> c_int {
            let ptr = ev.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null (DEL, permitted since Linux 2.6.9) or
            // a live &mut; the kernel only reads/writes that one struct.
            unsafe { epoll_ctl(epfd, op, fd, ptr) }
        }

        pub fn wait(epfd: c_int, events: &mut [EpollEvent], timeout_ms: c_int) -> c_int {
            // SAFETY: pointer and capacity come from the same live slice.
            unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) }
        }

        pub fn close_fd(fd: c_int) {
            // SAFETY: `fd` is owned by the caller and not used again.
            unsafe {
                close(fd);
            }
        }
    }

    const MAX_EVENTS: usize = 1024;

    pub struct Poller {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut events = sys::EPOLLRDHUP;
        if interest.readable {
            events |= sys::EPOLLIN;
        }
        if interest.writable {
            events |= sys::EPOLLOUT;
        }
        events
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = sys::create();
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            if sys::ctl(self.epfd, op, fd, Some(&mut ev)) < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            if sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None) < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = loop {
                let n = sys::wait(self.epfd, &mut self.buf, timeout_ms(timeout));
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                let hangup = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                events.push(Event {
                    token: ev.data,
                    readable: bits & sys::EPOLLIN != 0 || hangup,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    /// The raw `poll(2)` surface for non-Linux Unixes; same confinement
    /// discipline as the epoll module.
    #[allow(unsafe_code)]
    mod sys {
        use std::os::raw::{c_int, c_short, c_ulong};

        pub const POLLIN: c_short = 0x001;
        pub const POLLOUT: c_short = 0x004;
        pub const POLLERR: c_short = 0x008;
        pub const POLLHUP: c_short = 0x010;

        #[repr(C)]
        #[derive(Debug, Clone, Copy)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: c_short,
            pub revents: c_short,
        }

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }

        pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> c_int {
            // SAFETY: pointer and length come from the same live slice.
            unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) }
        }
    }

    pub struct Poller {
        /// Registration table, rebuilt into a pollfd array per wait. The
        /// Mutex keeps the registration API `&self` to match epoll; in
        /// practice one loop thread owns the poller.
        table: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller {
                table: Mutex::new(Vec::new()),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut table = self.table.lock().unwrap();
            if table.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            table.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut table = self.table.lock().unwrap();
            for slot in table.iter_mut() {
                if slot.0 == fd {
                    *slot = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.table.lock().unwrap();
            let before = table.len();
            table.retain(|&(f, _, _)| f != fd);
            if table.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let table: Vec<(RawFd, u64, Interest)> = self.table.lock().unwrap().clone();
            let mut fds: Vec<sys::PollFd> = table
                .iter()
                .map(|&(fd, _, interest)| sys::PollFd {
                    fd,
                    events: {
                        let mut e = 0;
                        if interest.readable {
                            e |= sys::POLLIN;
                        }
                        if interest.writable {
                            e |= sys::POLLOUT;
                        }
                        e
                    },
                    revents: 0,
                })
                .collect();
            let n = loop {
                let n = sys::poll_fds(&mut fds, timeout_ms(timeout));
                if n >= 0 {
                    break n;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(&table) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                let hangup = bits & (sys::POLLERR | sys::POLLHUP) != 0;
                events.push(Event {
                    token,
                    readable: bits & sys::POLLIN != 0 || hangup,
                    writable: bits & sys::POLLOUT != 0,
                    hangup,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("waker");
        poller
            .register(waker.rx_fd(), 7, Interest::READABLE)
            .expect("register waker");
        waker.wake();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        waker.drain();
        // Drained: a zero-timeout wait reports nothing.
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait after drain");
        assert!(events.is_empty(), "waker still readable after drain");
    }

    #[test]
    fn readable_and_writable_readiness_on_a_tcp_pair() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        poller
            .register(
                client.as_raw_fd(),
                1,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .expect("register");

        // An idle connected socket: writable, not readable.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        let ev = events.iter().find(|e| e.token == 1).expect("event");
        assert!(ev.writable && !ev.readable, "fresh socket: {ev:?}");

        // Data in flight flips it readable.
        server.write_all(b"ping").expect("server write");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        let ev = events.iter().find(|e| e.token == 1).expect("event");
        assert!(ev.readable, "socket with pending input: {ev:?}");

        // Consume and deregister: no more events for it.
        let mut sink = [0u8; 16];
        let _ = (&client).read(&mut sink).expect("client read");
        poller.deregister(client.as_raw_fd()).expect("deregister");
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait after deregister");
        assert!(events.is_empty());
    }

    #[test]
    fn hangup_is_reported_as_readable() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let mut poller = Poller::new().expect("poller");
        poller
            .register(client.as_raw_fd(), 3, Interest::READABLE)
            .expect("register");
        drop(server); // peer closes
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        let ev = events.iter().find(|e| e.token == 3).expect("event");
        assert!(
            ev.readable,
            "hangup must surface through the read path: {ev:?}"
        );
    }
}
