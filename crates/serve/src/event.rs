//! Socket readiness for parked keep-alive connections — a hand-rolled
//! `epoll` loop behind a small safe wrapper.
//!
//! The worker pool is the concurrency bound; a kept-alive connection that
//! has no request in flight must **not** occupy a worker while it idles.
//! Instead the server *parks* it and asks [`Epoll`] to report when the
//! socket becomes readable (or is closed by the peer), at which point the
//! connection re-enters admission like any other request source.
//!
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` are called directly through
//! `extern "C"` declarations against the C library the Rust standard
//! library already links. No `libc` crate, no tokio: the workspace's
//! vendored-only build stands. Registrations use `EPOLLONESHOT`, so an fd
//! fires at most once per park and there is no rearm/duplicate-event race
//! with the thread that unparks it; adding an already-readable fd wakes a
//! concurrent `epoll_wait`, so parking never loses a wakeup. The epoll fd
//! itself lives in an [`OwnedFd`](std::os::fd::OwnedFd) and closes on drop.
//!
//! The same raw surface binds listeners with `SO_REUSEADDR`
//! ([`bind_reuseaddr`]) and arms `SO_LINGER{on, 0}` for the `reset` fault
//! ([`arm_reset`]). It is Linux's, which is why the crate is Linux-only.

pub use linux::{arm_reset, bind_reuseaddr, Epoll};

mod linux {
    //! The raw Linux surface: three epoll syscalls, `socket`/`bind`/
    //! `listen`/`setsockopt`, their constants and `#[repr(C)]` structs —
    //! declared here instead of pulled from the `libc` crate so the
    //! vendored-only build needs nothing new. The symbols resolve against
    //! the platform C library `std` already links.

    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, IntoRawFd, OwnedFd};
    use std::time::Duration;

    // `epoll_event` is packed on x86-64 (a 12-byte struct); other Linux
    // targets use natural alignment. Getting this wrong corrupts every
    // second event, so the layout is pinned by a test below.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
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
            timeout_ms: c_int,
        ) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_LINGER: c_int = 13;
    const LISTEN_BACKLOG: c_int = 128;

    // `struct sockaddr_in` / `sockaddr_in6` as the kernel lays them out
    // on every Linux target (no arch-dependent packing here, unlike
    // `epoll_event`). Port and the v4 address are big-endian on the wire.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct SockaddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }

    /// Most events drained per `epoll_wait` call; the rest are picked up
    /// on the next loop iteration (epoll round-robins ready fds, so
    /// nothing starves).
    const MAX_EVENTS: usize = 64;

    /// A safe wrapper over one epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: `epoll_create1` takes no pointers; any flag value
            // is acceptable to the kernel (bad ones return -1/EINVAL,
            // handled below).
            let raw = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` is a fresh fd the kernel just handed us; the
            // OwnedFd takes sole ownership and closes it on drop.
            Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(raw) } })
        }

        /// Watch `stream` for readability/hangup, one-shot, tagged `token`.
        pub fn register(&self, stream: &TcpStream, token: u64) -> io::Result<()> {
            let mut event =
                EpollEvent { events: EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, data: token };
            // SAFETY: `event` is a live, properly-laid-out (ABI-pinned
            // by test) stack value for the duration of the call; the
            // kernel reads it before returning and keeps no pointer.
            let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, stream.as_raw_fd(), &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Stop watching `stream`. Always called before a parked connection
        /// is handed back to a worker (or dropped). Best-effort: the fd may
        /// already be gone (closed fds leave the set automatically), so
        /// errors are swallowed.
        pub fn deregister(&self, stream: &TcpStream) {
            let mut event = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `register` — `event` outlives the call (pre-2.6.9
            // kernels require a non-null pointer even for DEL, so one is
            // always passed); DEL on an unknown fd just returns ENOENT.
            // xlint: allow(L7, "documented best-effort: closed fds leave the set on their own, so ENOENT here is routine")
            let _ = unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, stream.as_raw_fd(), &mut event) };
        }

        /// Wait up to `timeout` for events; returns the ready tokens.
        /// `EINTR` and other wait errors surface as an empty batch — the
        /// serving loop treats every wakeup as advisory and re-checks
        /// shared state anyway.
        pub fn wait(&self, timeout: Duration) -> io::Result<Vec<u64>> {
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout_ms =
                c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX).max(1);
            // SAFETY: `events` is a stack array of exactly `MAX_EVENTS`
            // initialized elements and `maxevents` passes that same
            // bound, so the kernel writes only within the buffer; the
            // buffer outlives the call.
            let rc = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(Vec::new());
                }
                return Err(e);
            }
            // `rc` is the kernel's count of filled slots, ≤ MAX_EVENTS;
            // `take` keeps that bound without an indexing panic path.
            // (Copying `data` out of the packed struct is fine — only
            // *references* into it would be UB.)
            Ok(events.iter().take(rc as usize).map(|ev| ev.data).collect())
        }
    }

    /// Bind a listener with `SO_REUSEADDR` set, by hand. Rust's `std`
    /// deliberately leaves the option off, which is right for long-lived
    /// daemons but wrong for a shard that must *restart on its old port*:
    /// connections left in `TIME_WAIT` by the previous incarnation would make
    /// the bind fail with `EADDRINUSE` for up to a minute — exactly the
    /// window the router's resurrection tests (and real operators) restart in.
    pub fn bind_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
        let family = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: `socket` takes no pointers; a bad flag combination
        // returns -1/EINVAL, handled below.
        let raw = unsafe { socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` is a fresh fd the kernel just handed us; the
        // OwnedFd takes sole ownership and closes it on any early return.
        let fd = unsafe { OwnedFd::from_raw_fd(raw) };
        let one: c_int = 1;
        // SAFETY: `one` is a live c_int for the duration of the call and
        // the passed length is exactly its size; the kernel copies the
        // value out and keeps no pointer.
        let rc = unsafe {
            setsockopt(
                fd.as_raw_fd(),
                SOL_SOCKET,
                SO_REUSEADDR,
                std::ptr::addr_of!(one).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockaddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from(*v4.ip()).to_be(),
                    sin_zero: [0; 8],
                };
                // SAFETY: `sa` is a live, `#[repr(C)]`-laid-out
                // `sockaddr_in` for the duration of the call and the
                // length passed is exactly its size; the kernel copies
                // it out and keeps no pointer.
                unsafe {
                    bind(
                        fd.as_raw_fd(),
                        std::ptr::addr_of!(sa).cast::<c_void>(),
                        std::mem::size_of::<SockaddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockaddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                // SAFETY: as for the v4 arm — live `sockaddr_in6`, exact
                // length, copied out by the kernel.
                unsafe {
                    bind(
                        fd.as_raw_fd(),
                        std::ptr::addr_of!(sa).cast::<c_void>(),
                        std::mem::size_of::<SockaddrIn6>() as u32,
                    )
                }
            }
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `listen` takes no pointers; errors return -1.
        let rc = unsafe { listen(fd.as_raw_fd(), LISTEN_BACKLOG) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the fd is a freshly-bound listening socket we solely
        // own; `into_raw_fd` forgoes the OwnedFd close and the
        // TcpListener takes over ownership.
        Ok(unsafe { TcpListener::from_raw_fd(fd.into_raw_fd()) })
    }

    /// Arrange for `stream`'s eventual close to be abrupt: `SO_LINGER{on, 0}`
    /// turns the close into an immediate `RST` instead of an orderly `FIN`,
    /// which is what the `reset` fault action needs to look like a genuine
    /// peer crash. Best-effort: a socket this cannot be set on just closes
    /// normally.
    pub fn arm_reset(stream: &TcpStream) {
        let linger = Linger { l_onoff: 1, l_linger: 0 };
        // SAFETY: `linger` is a live `#[repr(C)]` value for the duration
        // of the call and the length passed is exactly its size; the
        // kernel copies it out and keeps no pointer.
        // xlint: allow(L7, "documented best-effort: a socket this cannot be set on just closes normally")
        let _ = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                std::ptr::addr_of!(linger).cast::<c_void>(),
                std::mem::size_of::<Linger>() as u32,
            )
        };
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;

        #[test]
        fn epoll_event_layout_matches_the_abi() {
            if cfg!(target_arch = "x86_64") {
                assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
            } else {
                assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
            }
        }

        #[test]
        fn readable_and_hangup_fds_fire_with_their_tokens() {
            let epoll = Epoll::new().expect("epoll_create1");
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();

            let mut alice = TcpStream::connect(addr).unwrap();
            let (alice_srv, _) = listener.accept().unwrap();
            let bob = TcpStream::connect(addr).unwrap();
            let (bob_srv, _) = listener.accept().unwrap();

            epoll.register(&alice_srv, 1).unwrap();
            epoll.register(&bob_srv, 2).unwrap();

            // Nothing readable yet: a short wait returns empty.
            assert_eq!(epoll.wait(Duration::from_millis(10)).unwrap(), Vec::<u64>::new());

            // Data on alice fires token 1 — and only token 1.
            alice.write_all(b"x").unwrap();
            let ready = epoll.wait(Duration::from_secs(5)).unwrap();
            assert_eq!(ready, vec![1]);

            // One-shot: alice does not fire again without a rearm.
            assert_eq!(epoll.wait(Duration::from_millis(10)).unwrap(), Vec::<u64>::new());

            // Peer hangup on bob fires token 2.
            drop(bob);
            let ready = epoll.wait(Duration::from_secs(5)).unwrap();
            assert_eq!(ready, vec![2]);

            epoll.deregister(&alice_srv);
            epoll.deregister(&bob_srv);
        }

        #[test]
        fn reuseaddr_listener_accepts_and_rebinds_immediately() {
            let listener = bind_reuseaddr("127.0.0.1:0".parse().unwrap()).expect("bind");
            let addr = listener.local_addr().expect("addr");
            let mut client = TcpStream::connect(addr).expect("connect");
            let (_server_side, _) = listener.accept().expect("accept");
            client.write_all(b"hello").expect("write");
            drop(client);
            drop(listener);
            // The point of SO_REUSEADDR: an immediate rebind on the same
            // port must succeed even with the old connection winding down.
            let again = bind_reuseaddr(addr).expect("rebind on the same port");
            drop(again);
        }

        #[test]
        fn adding_an_already_readable_fd_wakes_the_wait() {
            // The park path depends on this: grace-probe times out, the
            // client's bytes land, *then* the fd is registered — the
            // pending data must still produce an event.
            let epoll = Epoll::new().expect("epoll_create1");
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            client.write_all(b"already here").unwrap();
            std::thread::sleep(Duration::from_millis(20)); // let the bytes land
            epoll.register(&server_side, 7).unwrap();
            assert_eq!(epoll.wait(Duration::from_secs(5)).unwrap(), vec![7]);
        }
    }
}
