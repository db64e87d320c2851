//! Raw Linux syscall wrappers for the readiness reactor.
//!
//! The build environment vendors no `libc` crate, and `std` exposes no
//! public epoll API, so the handful of syscalls the reactor needs are
//! invoked directly via inline assembly. Everything returned to callers
//! is an [`OwnedFd`] so ordinary RAII closes descriptors; reads and
//! writes on those descriptors go through `std` (`File`, `TcpStream`),
//! never through raw syscalls.
//!
//! Only `x86_64` and `aarch64` Linux are supported; other targets get
//! stubs that return `ErrorKind::Unsupported` so the crate still
//! compiles (the cluster falls back to the channel transport there).

use std::io;
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable readiness (matches `EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (matches `EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Peer hang-up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0o2000000;
const O_NONBLOCK: usize = 0o4000;
const O_CLOEXEC: usize = 0o2000000;
const SOCK_STREAM: usize = 1;
const SOCK_NONBLOCK: usize = 0o4000;
const SOCK_CLOEXEC: usize = 0o2000000;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;

const EINTR: i32 = 4;
const EINPROGRESS: i32 = 115;

/// One `epoll_event` as the kernel lays it out.
///
/// On x86_64 the kernel ABI packs this struct (no padding between the
/// 32-bit event mask and the 64-bit data word); on other architectures
/// it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen cookie, echoed back on readiness (the slab token).
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, used to size the wait buffer.
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const SOCKET: usize = 41;
    pub const CONNECT: usize = 42;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PIPE2: usize = 293;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const PIPE2: usize = 59;
    pub const SOCKET: usize = 198;
    pub const CONNECT: usize = 203;
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a0,
        in("rsi") a1,
        in("rdx") a2,
        in("r10") a3,
        in("r8") a4,
        in("r9") 0usize,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a0 => ret,
        in("x1") a1,
        in("x2") a2,
        in("x3") a3,
        in("x4") a4,
        in("x5") 0usize,
        options(nostack),
    );
    ret
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
unsafe fn syscall(_n: usize, _a0: usize, _a1: usize, _a2: usize, _a3: usize, _a4: usize) -> isize {
    -38 // -ENOSYS
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod nr {
    pub const SOCKET: usize = 0;
    pub const CONNECT: usize = 0;
    pub const EPOLL_CTL: usize = 0;
    pub const EPOLL_PWAIT: usize = 0;
    pub const EPOLL_CREATE1: usize = 0;
    pub const PIPE2: usize = 0;
}

fn cvt(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `epoll_create1(EPOLL_CLOEXEC)`.
pub fn epoll_create() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { syscall(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0) })?;
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

fn epoll_ctl(epfd: RawFd, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let ev = EpollEvent {
        events,
        data: token,
    };
    let ptr = &ev as *const EpollEvent as usize;
    cvt(unsafe { syscall(nr::EPOLL_CTL, epfd as usize, op, fd as usize, ptr, 0) })?;
    Ok(())
}

/// Register `fd` with the epoll instance.
pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
}

/// Change the registered interest for `fd`.
pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
}

/// `epoll_pwait` with a millisecond timeout (`-1` blocks forever).
/// Retries on `EINTR`; returns the number of ready events.
pub fn epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let ret = unsafe {
            syscall(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0, // no signal mask
            )
        };
        match cvt(ret) {
            Ok(n) => return Ok(n),
            Err(e) if e.raw_os_error() == Some(EINTR) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// `pipe2(O_NONBLOCK | O_CLOEXEC)` → `(read_end, write_end)`.
pub fn pipe() -> io::Result<(OwnedFd, OwnedFd)> {
    let mut fds = [0i32; 2];
    cvt(unsafe {
        syscall(
            nr::PIPE2,
            fds.as_mut_ptr() as usize,
            O_NONBLOCK | O_CLOEXEC,
            0,
            0,
            0,
        )
    })?;
    Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
}

#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// Create a nonblocking close-on-exec TCP socket for the address family
/// of `addr` and start a `connect` toward it.
///
/// Returns `(fd, connected)` where `connected` is `true` if the
/// three-way handshake already finished (possible on loopback) and
/// `false` if the connect is in flight (`EINPROGRESS`) — in that case
/// poll the fd for writability and check `TcpStream::take_error`.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(OwnedFd, bool)> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    let fd = cvt(unsafe {
        syscall(
            nr::SOCKET,
            family as usize,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
            0,
        )
    })?;
    let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };

    let (ptr, len) = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET,
                port: v4.port().to_be_bytes(),
                addr: v4.ip().octets(),
                zero: [0; 8],
            };
            let boxed = Box::new(sa);
            (
                Box::into_raw(boxed) as usize,
                std::mem::size_of::<SockAddrIn>(),
            )
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6,
                port: v6.port().to_be_bytes(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            let boxed = Box::new(sa);
            (
                Box::into_raw(boxed) as usize,
                std::mem::size_of::<SockAddrIn6>(),
            )
        }
    };
    let ret = unsafe { syscall(nr::CONNECT, fd.as_raw_fd() as usize, ptr, len, 0, 0) };
    // Reclaim the sockaddr allocation before inspecting the result.
    unsafe {
        match addr {
            SocketAddr::V4(_) => drop(Box::from_raw(ptr as *mut SockAddrIn)),
            SocketAddr::V6(_) => drop(Box::from_raw(ptr as *mut SockAddrIn6)),
        }
    }
    match cvt(ret) {
        Ok(_) => Ok((fd, true)),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok((fd, false)),
        // EINTR on connect: the handshake proceeds asynchronously, same
        // as EINPROGRESS (POSIX).
        Err(e) if e.raw_os_error() == Some(EINTR) => Ok((fd, false)),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_create_and_close() {
        let ep = epoll_create().expect("epoll_create1");
        assert!(ep.as_raw_fd() >= 0);
    }

    #[test]
    fn pipe_roundtrip_via_epoll() {
        use std::fs::File;
        use std::io::{Read as _, Write as _};

        let ep = epoll_create().unwrap();
        let (r, w) = pipe().unwrap();
        epoll_add(ep.as_raw_fd(), r.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut evs = [EpollEvent::zeroed(); 4];
        // Nothing ready yet: zero events with a zero timeout.
        let n = epoll_wait(ep.as_raw_fd(), &mut evs, 0).unwrap();
        assert_eq!(n, 0);

        let mut wf = File::from(w);
        wf.write_all(&[1]).unwrap();
        let n = epoll_wait(ep.as_raw_fd(), &mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        let data = evs[0].data;
        let events = evs[0].events;
        assert_eq!(data, 7);
        assert_ne!(events & EPOLLIN, 0);

        let mut rf = File::from(r);
        let mut buf = [0u8; 8];
        assert_eq!(rf.read(&mut buf).unwrap(), 1);
    }

    #[test]
    fn nonblocking_connect_to_listener() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (fd, connected) = connect_nonblocking(&addr).unwrap();
        if !connected {
            let ep = epoll_create().unwrap();
            epoll_add(ep.as_raw_fd(), fd.as_raw_fd(), EPOLLOUT, 1).unwrap();
            let mut evs = [EpollEvent::zeroed(); 4];
            let n = epoll_wait(ep.as_raw_fd(), &mut evs, 2000).unwrap();
            assert_eq!(n, 1);
        }
        let stream = std::net::TcpStream::from(fd);
        assert!(stream.take_error().unwrap().is_none());
        let _ = listener.accept().unwrap();
    }

    #[test]
    fn connect_refused_reports_error() {
        // Bind then drop a listener to find a port that refuses.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let (fd, connected) = connect_nonblocking(&addr).unwrap();
        if connected {
            return; // something else grabbed the port; fine
        }
        let ep = epoll_create().unwrap();
        epoll_add(ep.as_raw_fd(), fd.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut evs = [EpollEvent::zeroed(); 4];
        let n = epoll_wait(ep.as_raw_fd(), &mut evs, 2000).unwrap();
        assert_eq!(n, 1);
        let stream = std::net::TcpStream::from(fd);
        assert!(stream.take_error().unwrap().is_some());
    }
}
