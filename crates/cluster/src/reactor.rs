//! The per-node readiness reactor: one thread multiplexing every
//! connection the node owns.
//!
//! PR 4's blocking transport spent a thread per inbound connection and
//! blocked node threads on outbound dials; this module replaces all of
//! it with a single reactor thread per node driving a hand-rolled
//! epoll [`Poller`] (`dynvote-net`):
//!
//! * **Outbound peer links** — nonblocking connect with reconnect
//!   backoff (the shared [`BackoffPolicy`] schedule on the reactor's
//!   [`TimerWheel`]), a [`wire::HELLO_PEER`] preamble on establish, and
//!   per-peer bounded write queues fed by [`ReactorTransport::flush`]
//!   from the node thread. A full queue drops the batch and counts a
//!   backpressure drop — message loss is legal, silence is not.
//! * **Inbound connections** — accepted nonblocking, classified by the
//!   one-byte preamble (peer frames vs. binary client frames), and
//!   decoded incrementally with [`FrameDecoder`] so pipelined frames
//!   split at arbitrary byte boundaries all land.
//! * **The HTTP front door** — same reactor, see [`crate::frontdoor`].
//!
//! Ownership model: every fd belongs to the reactor thread. Node
//! threads never touch a socket; they stage bytes into shared
//! [`Mutex`]-guarded buffers ([`PeerQueue`], [`ConnOut`]) and ring the
//! [`Waker`]. The reactor is the only writer/reader of the fds, so no
//! I/O ever happens under a lock.
//!
//! Level-triggered discipline: interest is narrowed whenever a
//! direction is idle — `WRITABLE` only while bytes are pending,
//! `READABLE` dropped while an HTTP connection has an op in flight —
//! so an idle reactor sleeps in `epoll_pwait` at zero CPU.

use crate::frontdoor::FrontDoor;
use crate::node::{NodeEvent, ReplySink};
use crate::transport::{NetStats, Transport};
use crate::wire::{self, HELLO_CLIENT, HELLO_PEER, MAX_FRAME};
use dynvote_core::{BackoffPolicy, SiteId, TimerWheel};
use dynvote_net::{
    poll_timeout, Events, FrameDecoder, Interest, Poller, RequestParser, Token, Waker,
};
use dynvote_protocol::Message;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on one peer's shared write queue. When a flush would overflow
/// it (peer down or slow), the batch is dropped and counted — the node
/// thread never blocks on a peer.
pub(crate) const PEER_QUEUE_CAP: usize = 256 * 1024;

/// Reactor read chunk size.
const READ_CHUNK: usize = 64 * 1024;

pub(crate) const TOKEN_WAKER: Token = Token(0);
const TOKEN_LISTENER: Token = Token(1);
const TOKEN_HTTP: Token = Token(2);
/// Connection slots start here; `Token(slot + FIRST_CONN)`.
const FIRST_CONN: usize = 3;

/// One peer's outbound byte queue, shared between the node thread
/// (producer, via [`ReactorTransport::flush`]) and the reactor
/// (consumer).
pub(crate) struct PeerQueue {
    buf: Mutex<Vec<u8>>,
    dirty: AtomicBool,
}

/// State shared between a node thread and its reactor thread.
pub(crate) struct ReactorShared {
    waker: Waker,
    shutdown: AtomicBool,
    peers: Vec<PeerQueue>,
    /// Connections whose [`ConnOut`] gained reply bytes: `(slot,
    /// serial)` pairs, the serial guarding against slot reuse.
    dirty_conns: Mutex<Vec<(usize, u64)>>,
    stats: Arc<NetStats>,
}

impl ReactorShared {
    pub(crate) fn new(n: usize, waker: Waker, stats: Arc<NetStats>) -> Self {
        ReactorShared {
            waker,
            shutdown: AtomicBool::new(false),
            peers: (0..n)
                .map(|_| PeerQueue {
                    buf: Mutex::new(Vec::new()),
                    dirty: AtomicBool::new(false),
                })
                .collect(),
            dirty_conns: Mutex::new(Vec::new()),
            stats,
        }
    }

    /// Ask the reactor to exit and wake it.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
    }

    fn mark_conn_dirty(&self, slot: usize, serial: u64) {
        self.dirty_conns
            .lock()
            .expect("dirty list poisoned")
            .push((slot, serial));
        self.waker.wake();
    }
}

/// Reply bytes staged for one reactor-owned connection.
pub(crate) struct ConnOut {
    buf: Mutex<Vec<u8>>,
    /// Set by the reactor when the connection dies; senders then drop
    /// replies instead of growing a buffer nobody will drain.
    closed: AtomicBool,
    /// Set by a reply sink when the response to the connection's
    /// in-flight request has been staged (HTTP unblock signal).
    unblock: AtomicBool,
    /// Set by a reply sink when the staged response was the last one
    /// (`Connection: close`): the reactor closes after the flush.
    close_after: AtomicBool,
}

/// A node-thread handle onto one reactor-owned connection: stage reply
/// bytes, mark the slot dirty, ring the waker.
#[derive(Clone)]
pub struct ConnTx {
    slot: usize,
    serial: u64,
    out: Arc<ConnOut>,
    shared: Arc<ReactorShared>,
}

impl ConnTx {
    /// Stage one framed [`wire::ClientReply`] (binary client path).
    pub(crate) fn send_reply(&self, id: u64, reply: &crate::wire::ClientReply) {
        if self.out.closed.load(Ordering::Acquire) {
            return;
        }
        {
            let mut buf = self.out.buf.lock().expect("conn out poisoned");
            wire::encode_frame_into(&mut buf, |out| wire::encode_reply_into(out, id, reply));
        }
        self.shared.mark_conn_dirty(self.slot, self.serial);
    }

    /// Stage raw pre-formatted bytes (HTTP response path) and flag the
    /// connection's in-flight request as answered. `close` marks the
    /// response as the connection's last (`Connection: close`).
    pub(crate) fn send_http(&self, bytes: &[u8], close: bool) {
        if self.out.closed.load(Ordering::Acquire) {
            return;
        }
        {
            let mut buf = self.out.buf.lock().expect("conn out poisoned");
            buf.extend_from_slice(bytes);
        }
        if close {
            self.out.close_after.store(true, Ordering::Release);
        }
        self.out.unblock.store(true, Ordering::Release);
        self.shared.mark_conn_dirty(self.slot, self.serial);
    }
}

impl fmt::Debug for ConnTx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConnTx(slot {})", self.slot)
    }
}

/// One peer's accumulating outbound batch: `count` length-prefixed
/// item bodies (messages and relays) concatenated in `bodies` (see
/// [`wire::encode_batch_into`]).
#[derive(Default)]
struct PeerBatch {
    bodies: Vec<u8>,
    count: u32,
}

/// The node's outbound peer transport over the reactor: `send` stages
/// message bodies locally (zero shared-state traffic), `flush` seals
/// each peer's accumulated messages — **one wire frame per peer per
/// batch**, a [`wire::MSG_BATCH_TAG`] envelope when more than one
/// message is pending — into the peer's shared queue and rings the
/// waker once. With many objects in flight, a whole multi-shard vote
/// or commit round leaves as a single frame and a single `write_all`.
pub struct ReactorTransport {
    shared: Arc<ReactorShared>,
    bufs: Vec<PeerBatch>,
    staged: bool,
    /// Reusable envelope-encode buffer for multi-message batches.
    frame: Vec<u8>,
}

impl ReactorTransport {
    pub(crate) fn new(shared: Arc<ReactorShared>, n: usize) -> Self {
        ReactorTransport {
            shared,
            bufs: (0..n).map(|_| PeerBatch::default()).collect(),
            staged: false,
            frame: Vec::new(),
        }
    }
}

impl ReactorTransport {
    /// Stage one item body for `to`'s next batch.
    fn stage(&mut self, to: SiteId, fill: impl FnOnce(&mut Vec<u8>)) {
        let Some(batch) = self.bufs.get_mut(to.index()) else {
            return;
        };
        wire::encode_frame_into(&mut batch.bodies, fill);
        batch.count += 1;
        self.staged = true;
    }
}

impl Transport for ReactorTransport {
    fn send(&mut self, to: SiteId, msg: &Message) {
        self.stage(to, |out| wire::encode_message_into(out, msg));
    }

    fn relay(&mut self, to: SiteId, relay: wire::Relay) {
        self.stage(to, |out| wire::encode_relay_into(out, &relay));
    }

    fn flush(&mut self) {
        if !self.staged {
            return;
        }
        self.staged = false;
        let mut wake = false;
        let ReactorTransport {
            shared,
            bufs,
            frame,
            ..
        } = self;
        for (idx, batch) in bufs.iter_mut().enumerate() {
            if batch.count == 0 {
                continue;
            }
            // One pending message is already exactly one wire frame
            // (`[len][body]`); more get the batch envelope so the whole
            // round is a single frame on the stream.
            let bytes: &[u8] = if batch.count == 1 {
                &batch.bodies
            } else {
                frame.clear();
                wire::encode_frame_into(frame, |out| {
                    wire::encode_batch_into(out, batch.count, &batch.bodies);
                });
                frame
            };
            let queue = &shared.peers[idx];
            {
                let mut shared_buf = queue.buf.lock().expect("peer queue poisoned");
                if shared_buf.len() + bytes.len() > PEER_QUEUE_CAP {
                    // Peer slow or down: the batch is legally lost,
                    // and loudly counted.
                    shared.stats.bump_backpressure_drop();
                } else {
                    shared_buf.extend_from_slice(bytes);
                    queue.dirty.store(true, Ordering::Release);
                    wake = true;
                }
            }
            batch.bodies.clear();
            batch.count = 0;
        }
        if wake {
            self.shared.waker.wake();
        }
    }
}

/// Everything a reactor needs at spawn time.
pub(crate) struct ReactorConfig {
    pub site: SiteId,
    pub peer_addrs: Vec<SocketAddr>,
    pub listener: TcpListener,
    pub http_listener: Option<TcpListener>,
    pub inbox: Sender<NodeEvent>,
    pub backoff: BackoffPolicy,
    pub front: Option<Arc<FrontDoor>>,
    pub max_conns: usize,
}

enum ConnKind {
    /// Awaiting the preamble byte(s) on an inbound connection.
    Handshake,
    /// Inbound peer link: frames become [`NodeEvent::Peer`].
    PeerIn { from: SiteId },
    /// Outbound peer link owned by this node.
    PeerOut { peer: usize, connected: bool },
    /// Inbound binary client: frames become [`NodeEvent::Client`].
    ClientBin,
    /// Inbound HTTP front-door connection.
    Http,
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    serial: u64,
    decoder: FrameDecoder,
    parser: Option<RequestParser>,
    out: Arc<ConnOut>,
    /// Bytes the reactor still has to write to this socket.
    pending: Vec<u8>,
    interest: Interest,
    /// HTTP: an op is in flight; parsing (and reading) pause until the
    /// reply is staged.
    blocked: bool,
    /// Close once `pending` drains (HTTP `Connection: close`, parse
    /// errors).
    close_after_write: bool,
    /// Handshake preamble bytes collected so far.
    preamble: Vec<u8>,
}

/// The reactor: owns the poller, the listeners, and every connection.
pub(crate) struct Reactor {
    site: SiteId,
    poller: Poller,
    waker: Waker,
    shared: Arc<ReactorShared>,
    inbox: Sender<NodeEvent>,
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    front: Option<Arc<FrontDoor>>,
    peer_addrs: Vec<SocketAddr>,
    /// Site index → slot of its outbound link, when one exists.
    peer_slot: Vec<Option<usize>>,
    /// Consecutive failed dials per peer (backoff round).
    peer_round: Vec<u32>,
    /// True while a reconnect timer is armed for the peer.
    peer_waiting: Vec<bool>,
    backoff: BackoffPolicy,
    timers: TimerWheel<Instant, usize>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_serial: u64,
    max_conns: usize,
    open_conns: usize,
    stats: Arc<NetStats>,
    scratch: Vec<u8>,
    /// Reusable landing buffer for a decoded batch's items.
    msg_scratch: Vec<wire::PeerFrame>,
}

impl Reactor {
    /// Build a reactor around an externally created poller/waker pair
    /// (created at boot so the node's transport can ring the waker
    /// before the reactor thread is up).
    pub(crate) fn new(
        poller: Poller,
        waker: Waker,
        shared: Arc<ReactorShared>,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        let n = config.peer_addrs.len();
        config.listener.set_nonblocking(true)?;
        poller.register(&config.listener, TOKEN_LISTENER, Interest::READABLE)?;
        if let Some(http) = &config.http_listener {
            http.set_nonblocking(true)?;
            poller.register(http, TOKEN_HTTP, Interest::READABLE)?;
        }
        let stats = Arc::clone(&shared.stats);
        Ok(Reactor {
            site: config.site,
            poller,
            waker,
            shared,
            inbox: config.inbox,
            listener: config.listener,
            http_listener: config.http_listener,
            front: config.front,
            peer_addrs: config.peer_addrs,
            peer_slot: vec![None; n],
            peer_round: vec![0; n],
            peer_waiting: vec![false; n],
            backoff: config.backoff,
            timers: TimerWheel::new(),
            conns: Vec::new(),
            free: Vec::new(),
            next_serial: 0,
            max_conns: config.max_conns,
            open_conns: 0,
            stats,
            scratch: vec![0u8; READ_CHUNK],
            msg_scratch: Vec::new(),
        })
    }

    /// The reactor loop; runs until [`ReactorShared::request_shutdown`].
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(512);
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            self.fire_timers(&now);
            let timeout = poll_timeout(self.timers.next_deadline().copied(), now);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // EBADF etc. cannot self-heal; bail out of the thread.
                eprintln!("dynvote-reactor-{}: poll failed: {e}", self.site);
                break;
            }
            // Drain the waker first so a producer's wake between here
            // and the queue scans below is never lost.
            for ev in events.iter() {
                if ev.token() == TOKEN_WAKER {
                    self.waker.drain();
                }
            }
            for ev in events.iter() {
                match ev.token() {
                    TOKEN_WAKER => {}
                    TOKEN_LISTENER => self.accept_binary(),
                    TOKEN_HTTP => self.accept_http(),
                    Token(t) => {
                        self.handle_conn_event(t - FIRST_CONN, ev.is_readable(), ev.is_writable());
                    }
                }
            }
            // Cross-thread work: reply bytes and freshly flushed peer
            // batches. Checked every iteration — both are O(dirty).
            self.drain_dirty_conns();
            self.pump_peer_queues();
        }
        self.final_flush();
    }

    // ----- cross-thread intake -------------------------------------

    fn drain_dirty_conns(&mut self) {
        let dirty = {
            let mut guard = self.shared.dirty_conns.lock().expect("dirty list poisoned");
            std::mem::take(&mut *guard)
        };
        for (slot, serial) in dirty {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.serial != serial {
                continue; // slot was reused since the reply was staged
            }
            {
                let mut staged = conn.out.buf.lock().expect("conn out poisoned");
                conn.pending.extend_from_slice(&staged);
                staged.clear();
            }
            if conn.out.close_after.swap(false, Ordering::AcqRel) {
                conn.close_after_write = true;
            }
            if conn.out.unblock.swap(false, Ordering::AcqRel) && conn.blocked {
                conn.blocked = false;
                // Resume parsing only if this wasn't the final response.
                if !conn.close_after_write && !self.process_http(slot) {
                    continue; // connection died while resuming
                }
            }
            self.try_write(slot);
        }
    }

    fn pump_peer_queues(&mut self) {
        for idx in 0..self.peer_addrs.len() {
            if idx == self.site.index() {
                continue;
            }
            if !self.shared.peers[idx].dirty.swap(false, Ordering::AcqRel) {
                continue;
            }
            match self.peer_slot[idx] {
                Some(slot) => {
                    let connected = matches!(
                        self.conns[slot].as_ref().map(|c| &c.kind),
                        Some(ConnKind::PeerOut {
                            connected: true,
                            ..
                        })
                    );
                    if connected {
                        self.drain_peer_queue_into(idx, slot);
                        self.try_write(slot);
                    }
                    // Still connecting: bytes stay queued; drained on
                    // connect completion.
                }
                None => {
                    if !self.peer_waiting[idx] {
                        self.start_connect(idx);
                    }
                    // else: backoff timer will connect when it fires.
                }
            }
        }
    }

    fn drain_peer_queue_into(&mut self, peer: usize, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut queue = self.shared.peers[peer].buf.lock().expect("queue poisoned");
        conn.pending.extend_from_slice(&queue);
        queue.clear();
    }

    // ----- outbound peer links -------------------------------------

    fn start_connect(&mut self, peer: usize) {
        let addr = self.peer_addrs[peer];
        match dynvote_net::sys::connect_nonblocking(&addr) {
            Ok((fd, connected)) => {
                let stream = TcpStream::from(fd);
                let _ = stream.set_nodelay(true);
                let slot = self.alloc_conn(stream, ConnKind::PeerOut { peer, connected });
                self.peer_slot[peer] = Some(slot);
                let interest = if connected {
                    Interest::READABLE // hello + queue staged below
                } else {
                    // Connect completion surfaces as writability.
                    Interest::WRITABLE
                };
                self.register_conn(slot, interest);
                if connected {
                    self.on_peer_connected(slot, peer);
                }
            }
            Err(_) => self.dial_failed(peer),
        }
    }

    /// The nonblocking connect resolved; check how it went.
    fn finish_connect(&mut self, slot: usize, peer: usize) {
        let failed = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            !matches!(conn.stream.take_error(), Ok(None))
        };
        if failed {
            self.close_conn(slot);
            self.dial_failed(peer);
        } else {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.kind = ConnKind::PeerOut {
                    peer,
                    connected: true,
                };
            }
            self.on_peer_connected(slot, peer);
        }
    }

    fn on_peer_connected(&mut self, slot: usize, peer: usize) {
        self.peer_round[peer] = 0;
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.pending.extend_from_slice(&[HELLO_PEER, self.site.0]);
        }
        self.drain_peer_queue_into(peer, slot);
        self.try_write(slot);
    }

    fn dial_failed(&mut self, peer: usize) {
        self.stats.bump_dial_failure();
        self.peer_slot[peer] = None;
        // The queued batch would arrive stale after the backoff; drop
        // it (legal loss) so memory stays bounded while the peer is
        // down.
        self.shared.peers[peer]
            .buf
            .lock()
            .expect("queue poisoned")
            .clear();
        let round = self.peer_round[peer];
        self.peer_round[peer] = round.saturating_add(1);
        // The shared node backoff schedule is in milliseconds; skip the
        // jitter draw (u = 0.5 is the midpoint) — one reactor per
        // process has no retry storm to decorrelate.
        let delay_ms = self.backoff.delay(round, 0.5).max(1.0);
        self.peer_waiting[peer] = true;
        self.timers.schedule(
            Instant::now() + std::time::Duration::from_secs_f64(delay_ms / 1000.0),
            peer,
        );
    }

    fn fire_timers(&mut self, now: &Instant) {
        while let Some((_, peer)) = self.timers.pop_due(now) {
            self.peer_waiting[peer] = false;
            let has_data = {
                let queued = !self.shared.peers[peer]
                    .buf
                    .lock()
                    .expect("queue poisoned")
                    .is_empty();
                queued || self.shared.peers[peer].dirty.load(Ordering::Acquire)
            };
            if has_data && self.peer_slot[peer].is_none() {
                self.start_connect(peer);
            }
        }
    }

    // ----- accepting -----------------------------------------------

    fn accept_binary(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit_conn(stream, ConnKind::Handshake),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn accept_http(&mut self) {
        loop {
            let Some(listener) = self.http_listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit_conn(stream, ConnKind::Http),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn admit_conn(&mut self, stream: TcpStream, kind: ConnKind) {
        if self.open_conns >= self.max_conns {
            // Over the connection cap: close immediately so the
            // backlog never wedges. Counted, not silent.
            self.stats.bump_conn_rejected();
            drop(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.stats.bump_conn_accepted();
        let slot = self.alloc_conn(stream, kind);
        self.register_conn(slot, Interest::READABLE);
    }

    // ----- slab ----------------------------------------------------

    fn alloc_conn(&mut self, stream: TcpStream, kind: ConnKind) -> usize {
        self.next_serial += 1;
        let is_http = matches!(kind, ConnKind::Http);
        let conn = Conn {
            stream,
            kind,
            serial: self.next_serial,
            decoder: FrameDecoder::new(MAX_FRAME),
            parser: is_http.then(RequestParser::new),
            out: Arc::new(ConnOut {
                buf: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
                unblock: AtomicBool::new(false),
                close_after: AtomicBool::new(false),
            }),
            pending: Vec::new(),
            interest: Interest::NONE,
            blocked: false,
            close_after_write: false,
            preamble: Vec::new(),
        };
        self.open_conns += 1;
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    fn register_conn(&mut self, slot: usize, interest: Interest) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.interest = interest;
        if self
            .poller
            .register(&conn.stream, Token(slot + FIRST_CONN), interest)
            .is_err()
        {
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        conn.out.closed.store(true, Ordering::Release);
        if let ConnKind::PeerOut { peer, .. } = conn.kind {
            self.peer_slot[peer] = None;
        }
        // A blocked HTTP op's admission slot is NOT released here: the
        // node still owns the reply sink and will deliver (to the
        // closed flag, harmlessly), releasing the slot then. Every
        // accepted op gets exactly one reply — Down at shutdown if
        // nothing else — so the budget cannot leak.
        self.open_conns -= 1;
        self.stats.bump_conn_closed();
        // Dropping the stream closes the fd, which also removes it
        // from the epoll set.
        drop(conn);
        self.free.push(slot);
    }

    // ----- per-connection I/O --------------------------------------

    fn handle_conn_event(&mut self, slot: usize, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if let ConnKind::PeerOut {
            peer,
            connected: false,
        } = conn.kind
        {
            if writable || readable {
                self.finish_connect(slot, peer);
            }
            return;
        }
        if readable && !self.read_conn(slot) {
            return; // closed
        }
        if writable {
            self.try_write(slot);
        }
    }

    /// Drain the socket and feed the connection's decoder. Returns
    /// `false` if the connection was closed.
    fn read_conn(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            if conn.blocked || conn.close_after_write {
                return true; // paused: interest already narrowed
            }
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // EOF. A partial frame left behind is a decode
                    // error worth counting.
                    if conn.decoder.check_eof().is_err() {
                        self.stats.bump_decode_error();
                    }
                    self.close_conn(slot);
                    return false;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            };
            if !self.feed_conn(slot, n) {
                return false;
            }
        }
    }

    /// Route `n` freshly read bytes through the connection's protocol
    /// state. Returns `false` if the connection was closed.
    fn feed_conn(&mut self, slot: usize, n: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        let mut start = 0;
        if matches!(conn.kind, ConnKind::Handshake) {
            // Collect the preamble: one byte for clients, two for
            // peers ([HELLO_PEER, site id]).
            while start < n && conn.preamble.len() < 2 {
                conn.preamble.push(self.scratch[start]);
                start += 1;
                match conn.preamble[0] {
                    HELLO_CLIENT => {
                        conn.kind = ConnKind::ClientBin;
                        break;
                    }
                    HELLO_PEER => {
                        if conn.preamble.len() == 2 {
                            conn.kind = ConnKind::PeerIn {
                                from: SiteId(conn.preamble[1]),
                            };
                            break;
                        }
                    }
                    _ => {
                        self.stats.bump_bad_preamble();
                        self.close_conn(slot);
                        return false;
                    }
                }
            }
            if matches!(
                self.conns[slot].as_ref().map(|c| &c.kind),
                Some(ConnKind::Handshake)
            ) {
                return true; // still waiting for the second byte
            }
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        match conn.kind {
            ConnKind::PeerIn { from } => {
                conn.decoder.extend(&self.scratch[start..n]);
                loop {
                    // A frame is a single item or a MSG_BATCH
                    // envelope; either way the items are collected
                    // into the reusable scratch (the frame body borrows
                    // the decoder, so the inbox send happens after).
                    let msgs = &mut self.msg_scratch;
                    msgs.clear();
                    let step: Result<bool, ()> =
                        match self.conns[slot].as_mut().unwrap().decoder.next_frame() {
                            Ok(Some(body)) => wire::decode_peer_frame(body, |m| msgs.push(m))
                                .map(|_| true)
                                .map_err(|_| ()),
                            Ok(None) => Ok(false),
                            Err(_) => Err(()),
                        };
                    match step {
                        Ok(true) => {
                            self.stats.bump_frame_in();
                            let mut msgs = std::mem::take(&mut self.msg_scratch);
                            let mut ok = true;
                            for item in msgs.drain(..) {
                                let event = match item {
                                    wire::PeerFrame::Msg(msg) => NodeEvent::Peer { from, msg },
                                    wire::PeerFrame::Relay(relay) => {
                                        NodeEvent::Relay { from, relay }
                                    }
                                };
                                if ok && self.inbox.send(event).is_err() {
                                    ok = false;
                                }
                            }
                            self.msg_scratch = msgs;
                            if !ok {
                                self.close_conn(slot);
                                return false;
                            }
                        }
                        Ok(false) => break,
                        Err(_) => {
                            self.stats.bump_decode_error();
                            self.close_conn(slot);
                            return false;
                        }
                    }
                }
                true
            }
            ConnKind::ClientBin => {
                conn.decoder.extend(&self.scratch[start..n]);
                loop {
                    // Decode into an owned event before touching
                    // `self` again (the frame borrows the decoder).
                    let parsed = match self.conns[slot].as_mut().unwrap().decoder.next_frame() {
                        Ok(Some(body)) => match wire::decode_request(body) {
                            Ok(parsed) => parsed,
                            Err(_) => {
                                self.stats.bump_decode_error();
                                self.close_conn(slot);
                                return false;
                            }
                        },
                        Ok(None) => break,
                        Err(_) => {
                            self.stats.bump_decode_error();
                            self.close_conn(slot);
                            return false;
                        }
                    };
                    self.stats.bump_frame_in();
                    let (id, op) = parsed;
                    let tx = self.conn_tx(slot);
                    if self
                        .inbox
                        .send(NodeEvent::Client {
                            id,
                            op,
                            reply: ReplySink::Conn(tx),
                        })
                        .is_err()
                    {
                        self.close_conn(slot);
                        return false;
                    }
                }
                true
            }
            ConnKind::PeerOut { .. } => {
                // Peers never send bytes back on our outbound link; a
                // readable that yielded data is noise, EOF was handled
                // in read_conn.
                true
            }
            ConnKind::Http => {
                conn.parser
                    .as_mut()
                    .expect("http conn has parser")
                    .extend(&self.scratch[start..n]);
                self.process_http(slot)
            }
            ConnKind::Handshake => true,
        }
    }

    /// Parse and route buffered HTTP requests until the parser runs
    /// dry, an op blocks the connection, or a parse error ends it.
    /// Returns `false` if the connection was closed.
    fn process_http(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            if conn.blocked || conn.close_after_write {
                self.update_interest(slot);
                return true;
            }
            let step = conn
                .parser
                .as_mut()
                .expect("http conn has parser")
                .next_request();
            match step {
                Ok(Some(req)) => {
                    if !self.route_http(slot, req) {
                        return false;
                    }
                }
                Ok(None) => {
                    self.update_interest(slot);
                    return true;
                }
                Err(e) => {
                    self.stats.bump_http_error();
                    let body = format!("{{\"error\":\"{e}\"}}");
                    self.respond_json(slot, e.status(), "Bad Request", &body, false);
                    return true;
                }
            }
        }
    }

    /// Dispatch one parsed request. Returns `false` if the connection
    /// was closed.
    fn route_http(&mut self, slot: usize, req: dynvote_net::Request) -> bool {
        use dynvote_net::Method;
        self.stats.bump_http_request();
        let Some(front) = self.front.clone() else {
            self.close_conn(slot);
            return false;
        };
        match (req.method, req.target.as_str()) {
            (Method::Post, "/v1/op") => {
                let op = match crate::frontdoor::parse_op(&req.body, front.objects()) {
                    Ok(op) => op,
                    // Typed 400s: a bad key tells the client it sent a
                    // bad key, not just "bad body".
                    Err(e) => {
                        self.respond_json(slot, 400, "Bad Request", &e.body(), req.keep_alive);
                        return true;
                    }
                };
                if !front.try_admit() {
                    self.stats.bump_http_rejected();
                    self.respond_429(slot, req.keep_alive);
                    return true;
                }
                self.dispatch_to_node(slot, op, req.keep_alive, true, front)
            }
            (Method::Get, "/metrics") => {
                let body = front.render_metrics();
                self.respond_with(
                    slot,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    &body,
                    req.keep_alive,
                );
                true
            }
            (Method::Get, "/status") => {
                self.dispatch_to_node(slot, wire::ClientOp::Status, req.keep_alive, false, front)
            }
            (Method::Get | Method::Post | Method::Head, _) => {
                self.respond_json(
                    slot,
                    404,
                    "Not Found",
                    "{\"error\":\"not found\"}",
                    req.keep_alive,
                );
                true
            }
            (Method::Other, _) => {
                self.respond_json(
                    slot,
                    405,
                    "Method Not Allowed",
                    "{\"error\":\"method not allowed\"}",
                    req.keep_alive,
                );
                true
            }
        }
    }

    /// Hand an op to the node thread, blocking the connection until the
    /// reply sink stages the response. Returns `false` if the
    /// connection was closed.
    fn dispatch_to_node(
        &mut self,
        slot: usize,
        op: wire::ClientOp,
        keep_alive: bool,
        charged: bool,
        front: Arc<FrontDoor>,
    ) -> bool {
        let tx = self.conn_tx(slot);
        let sink = crate::frontdoor::HttpTx::new(tx, Arc::clone(&front), keep_alive, charged);
        if self
            .inbox
            .send(NodeEvent::Client {
                id: 0,
                op,
                reply: ReplySink::Http(sink),
            })
            .is_err()
        {
            if charged {
                front.release();
            }
            self.respond_json(slot, 503, "Unavailable", "{\"error\":\"node down\"}", false);
            return true;
        }
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.blocked = true;
        }
        self.update_interest(slot);
        true
    }

    fn respond_429(&mut self, slot: usize, keep_alive: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        dynvote_net::http::write_response(
            &mut conn.pending,
            429,
            "Too Many Requests",
            "application/json",
            &[("retry-after", "1")],
            b"{\"error\":\"inflight budget exhausted\"}",
            keep_alive,
        );
        if !keep_alive {
            conn.close_after_write = true;
        }
        self.try_write(slot);
    }

    fn respond_json(&mut self, slot: usize, status: u16, reason: &str, body: &str, ka: bool) {
        self.respond_with(slot, status, reason, "application/json", body, ka);
    }

    fn respond_with(
        &mut self,
        slot: usize,
        status: u16,
        reason: &str,
        content_type: &str,
        body: &str,
        keep_alive: bool,
    ) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        dynvote_net::http::write_response(
            &mut conn.pending,
            status,
            reason,
            content_type,
            &[],
            body.as_bytes(),
            keep_alive,
        );
        if !keep_alive {
            conn.close_after_write = true;
        }
        self.stats.bump_http_response();
        self.try_write(slot);
    }

    fn conn_tx(&mut self, slot: usize) -> ConnTx {
        let conn = self.conns[slot].as_ref().expect("live conn");
        ConnTx {
            slot,
            serial: conn.serial,
            out: Arc::clone(&conn.out),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Write as much of `pending` as the socket accepts, then narrow
    /// or widen interest to match what is left.
    fn try_write(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.pending.is_empty() {
                break;
            }
            match conn.stream.write(&conn.pending) {
                Ok(0) => {
                    self.close_conn(slot);
                    return;
                }
                Ok(written) => {
                    conn.pending.drain(..written);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if matches!(conn.kind, ConnKind::PeerOut { .. }) {
                        self.stats.bump_write_error();
                    }
                    self.close_conn(slot);
                    return;
                }
            }
        }
        let done = {
            let Some(conn) = self.conns[slot].as_ref() else {
                return;
            };
            conn.pending.is_empty() && conn.close_after_write
        };
        if done {
            self.close_conn(slot);
            return;
        }
        self.update_interest(slot);
    }

    /// Recompute and apply the connection's epoll interest from its
    /// state: `WRITABLE` iff bytes are pending, `READABLE` unless the
    /// connection is paused (HTTP op in flight or closing).
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut want = Interest::NONE;
        if !conn.pending.is_empty() {
            want = want.add(Interest::WRITABLE);
        }
        let paused = conn.blocked || conn.close_after_write;
        if !paused {
            want = want.add(Interest::READABLE);
        }
        if want != conn.interest {
            conn.interest = want;
            if self
                .poller
                .reregister(&conn.stream, Token(slot + FIRST_CONN), want)
                .is_err()
            {
                self.close_conn(slot);
            }
        }
    }

    /// One best-effort nonblocking write pass over every connection at
    /// shutdown, so acks staged by the node's final flush usually make
    /// it out.
    fn final_flush(&mut self) {
        let dirty = {
            let mut guard = self.shared.dirty_conns.lock().expect("dirty list poisoned");
            std::mem::take(&mut *guard)
        };
        for (slot, serial) in dirty {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                if conn.serial == serial {
                    let mut staged = conn.out.buf.lock().expect("conn out poisoned");
                    let bytes = std::mem::take(&mut *staged);
                    drop(staged);
                    conn.pending.extend_from_slice(&bytes);
                }
            }
        }
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                if !conn.pending.is_empty() {
                    let _ = conn.stream.write(&conn.pending);
                }
                conn.out.closed.store(true, Ordering::Release);
            }
        }
    }
}
