//! A minimal mio-shaped readiness poller over raw epoll.
//!
//! One [`Poller`] instance per reactor thread. Sources are any
//! `AsRawFd` (listeners, streams, pipes); each registration carries a
//! caller-chosen [`Token`] that comes back in the [`Event`]s produced
//! by [`Poller::wait`]. Registration is **level-triggered**: a source
//! keeps reporting ready until the condition is drained, so interest
//! must be narrowed (via [`Poller::reregister`]) when a direction is
//! intentionally idle — e.g. dropping `WRITABLE` once an output buffer
//! empties, or dropping `READABLE` while a connection is blocked on an
//! in-flight request.
//!
//! The [`Waker`] is a classic self-pipe: the read end is registered
//! with the poller, `wake()` writes one byte from any thread, and the
//! reactor drains the pipe when its token surfaces.

use std::io;
use std::os::fd::{AsRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sys;

/// Identifies a registered source in events returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness.
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(0b10);
    /// Interest in both directions.
    pub const BOTH: Interest = Interest(0b11);
    /// No direction — the source stays registered but only error/hangup
    /// conditions are reported.
    pub const NONE: Interest = Interest(0);

    /// Combine two interests.
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Does this interest include read readiness?
    pub const fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Does this interest include write readiness?
    pub const fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }

    fn epoll_mask(self) -> u32 {
        let mut m = 0;
        if self.is_readable() {
            m |= sys::EPOLLIN;
        }
        if self.is_writable() {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    mask: u32,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Read readiness (includes hangup, which surfaces as a 0-byte read).
    pub fn is_readable(&self) -> bool {
        self.mask & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// Write readiness (includes error, so a failed nonblocking connect
    /// wakes writers to collect the error).
    pub fn is_writable(&self) -> bool {
        self.mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// True if the kernel flagged an error condition on the source.
    pub fn is_error(&self) -> bool {
        self.mask & sys::EPOLLERR != 0
    }

    /// True if the peer hung up.
    pub fn is_hangup(&self) -> bool {
        self.mask & sys::EPOLLHUP != 0
    }
}

/// Reusable buffer of readiness notifications.
pub struct Events {
    raw: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that can carry up to `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            raw: vec![sys::EpollEvent::zeroed(); capacity.max(1)],
            len: 0,
        }
    }

    /// Iterate over the events produced by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.len].iter().map(|ev| {
            // Copy out of the (possibly packed) kernel struct first.
            let data = ev.data;
            let mask = ev.events;
            Event {
                token: Token(data as usize),
                mask,
            }
        })
    }

    /// Number of events from the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the last wait returned no events (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Create a new poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
        })
    }

    /// Register `source` with the given token and interest.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        sys::epoll_add(
            self.epfd.as_raw_fd(),
            source.as_raw_fd(),
            interest.epoll_mask(),
            token.0 as u64,
        )
    }

    /// Change the interest (and/or token) of an already-registered source.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        sys::epoll_mod(
            self.epfd.as_raw_fd(),
            source.as_raw_fd(),
            interest.epoll_mask(),
            token.0 as u64,
        )
    }

    /// Remove a source. Dropping the source's fd also removes it, so
    /// this is only needed when the fd outlives its registration.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        sys::epoll_del(self.epfd.as_raw_fd(), source.as_raw_fd())
    }

    /// Block until at least one source is ready or `timeout` elapses
    /// (`None` blocks indefinitely). Results land in `events`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a 100µs timeout doesn't busy-spin at 0ms.
                let mut ms = d.as_millis();
                if Duration::from_millis(ms.min(u64::MAX as u128) as u64) < d {
                    ms += 1;
                }
                ms.min(i32::MAX as u128) as i32
            }
        };
        events.len = sys::epoll_wait(self.epfd.as_raw_fd(), &mut events.raw, timeout_ms)?;
        Ok(())
    }
}

struct WakerInner {
    read: OwnedFd,
    write: OwnedFd,
    pending: AtomicBool,
}

/// Cross-thread wakeup for a [`Poller`] via a self-pipe.
///
/// Cloning is cheap (`Arc`); `wake()` is safe from any thread. The
/// `pending` flag collapses bursts of wakes into a single pipe write so
/// producers never block on a full pipe.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Create a waker whose read end is registered with `poller` under
    /// `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
        let (read, write) = sys::pipe()?;
        poller.register(&read, token, Interest::READABLE)?;
        Ok(Waker {
            inner: Arc::new(WakerInner {
                read,
                write,
                pending: AtomicBool::new(false),
            }),
        })
    }

    /// Wake the poller. Idempotent until the reactor calls [`drain`].
    ///
    /// [`drain`]: Waker::drain
    pub fn wake(&self) {
        if self.inner.pending.swap(true, Ordering::AcqRel) {
            return; // a wake is already queued in the pipe
        }
        // A nonblocking 1-byte write; if the pipe is somehow full a
        // wake is already pending, which is all we need.
        let fd = self.inner.write.as_raw_fd();
        let buf = [1u8];
        unsafe {
            let _ = write_fd(fd, &buf);
        }
    }

    /// Drain queued wake bytes. Call from the reactor thread when the
    /// waker token surfaces, *before* processing the work the wakes
    /// announced.
    ///
    /// The pipe is read empty **first** and `pending` cleared **last**.
    /// A `wake()` racing the drain therefore either still finds
    /// `pending` set — it writes nothing, and the work it announced is
    /// picked up by the processing that follows this drain — or finds
    /// it cleared and writes a fresh byte for the next poll. Clearing
    /// first would let that fresh byte be swallowed by the read below,
    /// leaving `pending` set over an empty pipe: every later `wake()`
    /// would return early and the poller would never hear one again.
    pub fn drain(&self) {
        let fd = self.inner.read.as_raw_fd();
        let mut buf = [0u8; 64];
        unsafe {
            // Read until empty; the pipe is nonblocking.
            while let Ok(n) = read_fd(fd, &mut buf) {
                if n < buf.len() {
                    break;
                }
            }
        }
        // A swap, not a store: the acquire half pairs with the release
        // half of the swap in `wake()`, so whatever a coalesced waker
        // published before calling `wake()` is visible to the work scan
        // that follows.
        self.inner.pending.swap(false, Ordering::AcqRel);
    }
}

// Tiny read/write helpers on raw fds via std, avoiding extra dup()s.
// Safety: the fd is owned by the WakerInner that calls these, so it is
// valid for the duration of the call; ManuallyDrop prevents the
// temporary File from closing it.
unsafe fn write_fd(fd: std::os::fd::RawFd, buf: &[u8]) -> io::Result<usize> {
    use std::io::Write as _;
    use std::os::fd::FromRawFd as _;
    let mut f = std::mem::ManuallyDrop::new(std::fs::File::from_raw_fd(fd));
    f.write(buf)
}

unsafe fn read_fd(fd: std::os::fd::RawFd, buf: &mut [u8]) -> io::Result<usize> {
    use std::io::Read as _;
    use std::os::fd::FromRawFd as _;
    let mut f = std::mem::ManuallyDrop::new(std::fs::File::from_raw_fd(fd));
    f.read(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_across_threads() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, Token(0)).unwrap();
        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
            w2.wake(); // coalesced
        });
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token(), Token(0));
        assert!(ev.is_readable());
        // Both wakes have landed before the drain: the second may
        // trail the first, and one drain must clear them both.
        t.join().unwrap();
        waker.drain();
        // After drain, no residual readiness.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    /// The lost-wake-up regression: a producer keeps at most two
    /// announcements ahead of the consumer, so its `wake()` calls land
    /// all around the consumer's `drain()`. Every announcement must be
    /// observed — by the scan after the drain it raced, or by a later
    /// poll — and a waker that goes deaf shows as a poll timeout.
    #[test]
    fn no_wake_is_lost_around_a_racing_drain() {
        use std::sync::atomic::AtomicU64;
        const SENDS: u64 = 200_000;
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, Token(0)).unwrap();
        let sent = AtomicU64::new(0);
        let observed = AtomicU64::new(0);
        let deaf = AtomicBool::new(false);
        let drains = std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..=SENDS {
                    while observed.load(Ordering::Acquire) + 2 < i {
                        if deaf.load(Ordering::Acquire) {
                            return;
                        }
                        std::hint::spin_loop();
                    }
                    sent.store(i, Ordering::Release);
                    waker.wake();
                }
            });
            let mut events = Events::with_capacity(8);
            let mut drains = 0u64;
            while observed.load(Ordering::Acquire) < SENDS {
                poller
                    .wait(&mut events, Some(Duration::from_secs(10)))
                    .unwrap();
                if events.is_empty() {
                    deaf.store(true, Ordering::Release);
                    panic!(
                        "waker went deaf after {drains} drains: sent {} observed {}",
                        sent.load(Ordering::Acquire),
                        observed.load(Ordering::Acquire)
                    );
                }
                waker.drain();
                drains += 1;
                observed.store(sent.load(Ordering::Acquire), Ordering::Release);
            }
            drains
        });
        // At most two announcements per drain, so the race was run at
        // least this many times.
        assert!(drains >= SENDS / 2, "only {drains} wake/drain rounds");
    }

    #[test]
    fn tcp_readiness_and_interest_narrowing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(&listener, Token(1), Interest::READABLE)
            .unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == Token(1)));
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // A fresh stream with WRITABLE interest is immediately ready.
        poller
            .register(&server, Token(2), Interest::WRITABLE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == Token(2) && e.is_writable()));

        // Narrow to NONE: no more writable storms even though the
        // socket stays writable (level-triggered discipline).
        poller
            .reregister(&server, Token(2), Interest::NONE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token() == Token(2)));

        // Re-widen to READABLE and feed a byte.
        poller
            .reregister(&server, Token(2), Interest::READABLE)
            .unwrap();
        client.write_all(&[9]).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == Token(2) && e.is_readable()));
    }
}
