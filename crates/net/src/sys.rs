//! Raw readiness-notification syscalls, wrapped in a safe [`Poller`].
//!
//! This is the **only** file in the workspace permitted to contain
//! `unsafe` (the crate root is `#![deny(unsafe_code)]`; this module opts
//! back in with a scoped `allow`, and the vslint `forbid-unsafe` rule
//! statically rejects an `unsafe` token anywhere else). The rationale for
//! the exception: the workspace vendors no `libc`/`mio`, so readiness
//! polling must go straight to the platform's epoll interface, and FFI is
//! inherently `unsafe`. The blast radius is confined to four libc calls —
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`, `close` — each wrapped so
//! that:
//!
//! * every raw fd handed to the kernel comes from a live `std` socket
//!   owned by the caller (`Poller` never fabricates or stores fds other
//!   than its own epoll fd);
//! * the `epoll_wait` output buffer is a caller-owned slice whose length
//!   bounds `maxevents`, so the kernel can never write past it;
//! * the epoll fd is closed exactly once, in `Drop`.
//!
//! On non-Linux platforms the module compiles to a stub whose constructor
//! returns `ErrorKind::Unsupported`, keeping the crate — and everything
//! above it that never serves, the library and the offline tools —
//! buildable there.

/// Readiness reported for one registered file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// The fd is readable (or the peer hung up, which reads as EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The kernel flagged an error condition on the fd.
    pub error: bool,
}

/// The interest set for one registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readability.
    pub readable: bool,
    /// Wake on writability.
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
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

#[cfg(target_os = "linux")]
pub use linux::Poller;

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    // Stable Linux userspace ABI constants (asm-generic; identical across
    // the architectures this workspace targets).
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs
    /// it (no padding between `events` and `data`); other architectures
    /// use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
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

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        events
    }

    /// A safe, level-triggered epoll instance.
    ///
    /// Level-triggered on purpose: the reactor reads and writes under
    /// per-tick byte budgets, and level semantics guarantee a fd with
    /// leftover readiness is reported again on the next tick — no
    /// starvation bookkeeping required.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        /// Reusable kernel output buffer for [`Poller::wait`].
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// Creates a new epoll instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1` failure.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a negative return is
            // mapped to an error and never used as an fd.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        /// Registers `fd` with `token` and the given interest set.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure (e.g. an already-registered fd).
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Replaces the interest set of an already-registered `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Deregisters `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `event` is a live, properly-initialized epoll_event
            // for the duration of the call; the kernel reads it and does
            // not retain the pointer past the syscall.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) })?;
            Ok(())
        }

        /// Waits up to `timeout_ms` (-1 = forever) and appends readiness
        /// events to `out`. A signal interruption reports zero events.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failure other than `EINTR`.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<usize> {
            let cap = self.buf.len() as c_int;
            // SAFETY: `buf` is a live Vec of `buf.len()` initialized
            // elements; `maxevents == buf.len()` bounds the kernel's
            // writes to the allocation.
            let n =
                match cvt(unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), cap, timeout_ms) })
                {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                    Err(e) => return Err(e),
                };
            let count = usize::try_from(n).unwrap_or(0).min(self.buf.len());
            for raw in self.buf.iter().take(count) {
                // Copy out of the (possibly packed) struct before use.
                let events = raw.events;
                let data = raw.data;
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    error: events & EPOLLERR != 0,
                });
            }
            Ok(count)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` was returned by epoll_create1 and is closed
            // exactly once, here.
            let _ = unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub use fallback::Poller;

#[cfg(not(target_os = "linux"))]
mod fallback {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    /// Stub poller for non-Linux builds: construction fails with
    /// [`io::ErrorKind::Unsupported`]: serving needs Linux.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always fails on this platform.
        ///
        /// # Errors
        ///
        /// [`io::ErrorKind::Unsupported`], unconditionally.
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the event-driven reactor requires epoll (Linux)",
            ))
        }

        /// Unreachable on this platform (construction always fails).
        ///
        /// # Errors
        ///
        /// [`io::ErrorKind::Unsupported`], unconditionally.
        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        /// Unreachable on this platform (construction always fails).
        ///
        /// # Errors
        ///
        /// [`io::ErrorKind::Unsupported`], unconditionally.
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        /// Unreachable on this platform (construction always fails).
        ///
        /// # Errors
        ///
        /// [`io::ErrorKind::Unsupported`], unconditionally.
        pub fn remove(&self, _fd: RawFd) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        /// Unreachable on this platform (construction always fails).
        ///
        /// # Errors
        ///
        /// [`io::ErrorKind::Unsupported`], unconditionally.
        pub fn wait(&mut self, _timeout_ms: i32, _out: &mut Vec<Event>) -> io::Result<usize> {
            Err(io::ErrorKind::Unsupported.into())
        }
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a zero-timeout wait reports no events.
        let mut events = Vec::new();
        poller.wait(0, &mut events).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        client.write_all(b"ping").unwrap();
        events.clear();
        poller.wait(1000, &mut events).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("readable");
        assert!(ev.readable && !ev.writable);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        // Write interest on an idle socket reports writable immediately.
        poller
            .modify(server.as_raw_fd(), 7, Interest::READ_WRITE)
            .unwrap();
        events.clear();
        poller.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Peer close reads as readable (EOF).
        drop(client);
        events.clear();
        poller.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.remove(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn remove_unregistered_fd_is_an_error_not_a_crash() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let poller = Poller::new().unwrap();
        assert!(poller.remove(listener.as_raw_fd()).is_err());
    }
}
