//! The per-site readiness reactor: the one thread that owns a TCP
//! site — every fd, the node's kernels and its WAL.
//!
//! A single hand-rolled epoll [`Poller`] (`dynvote-net`) multiplexes:
//!
//! * **Outbound peer links** — nonblocking connect with reconnect
//!   backoff (the shared [`BackoffPolicy`] schedule on the reactor's
//!   [`TimerWheel`]), a [`wire::HELLO_PEER`] preamble on establish, and
//!   per-peer bounded write queues ([`PeerQueues`]) filled from the
//!   node's outbox at the end of each batch. A full queue drops the
//!   batch and counts a backpressure drop — message loss is legal,
//!   silence is not.
//! * **Inbound connections** — accepted nonblocking, classified by the
//!   one-byte preamble (peer frames vs. binary client frames), and
//!   decoded incrementally with [`FrameDecoder`] so pipelined frames
//!   split at arbitrary byte boundaries all land.
//! * **The HTTP front door** — same reactor, see [`crate::frontdoor`].
//!
//! Ownership model: the reactor owns the site's [`Node`]. Every peer
//! frame, relay and client op it decodes goes straight to
//! [`Node::on_event`]; once per poll iteration [`Node::end_batch`]
//! seals the batch (WAL barrier, then sends and replies into the
//! node's outbox) and the reactor drains the outbox: peer items are
//! sealed onto their peers' queues, and each reply is staged on the
//! connection its [`ReplySink`] names — if that slot still holds the
//! same connection. Nothing is shared and nothing rings a waker: the
//! producer is this thread, and it writes right after the batch. The
//! only way in from another thread is the site's inbox (see
//! `crate::cluster`), whose every send rings the [`Waker`].
//!
//! Level-triggered discipline: interest is narrowed whenever a
//! direction is idle — `WRITABLE` only while bytes are pending,
//! `READABLE` dropped while an HTTP connection has an op in flight —
//! so an idle site sleeps in `epoll_pwait` at zero CPU until a socket,
//! its inbox or the node's next deadline wakes it.

use crate::frontdoor::FrontDoor;
use crate::node::{Node, NodeEvent, ReplySink};
use crate::transport::NetStats;
use crate::wire::{self, ClientReply, PeerFrame, HELLO_CLIENT, HELLO_PEER, MAX_FRAME};
use dynvote_core::{BackoffPolicy, SiteId, TimerWheel};
use dynvote_net::{
    poll_timeout, Events, FrameDecoder, Interest, Poller, RequestParser, Token, Waker,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on one peer's write queue. When a flush would push a non-empty
/// queue past it (peer down or slow), the batch is dropped and counted
/// — the site never blocks on a peer.
pub(crate) const PEER_QUEUE_CAP: usize = 256 * 1024;

/// Reactor read chunk size.
const READ_CHUNK: usize = 64 * 1024;

pub(crate) const TOKEN_WAKER: Token = Token(0);
const TOKEN_LISTENER: Token = Token(1);
const TOKEN_HTTP: Token = Token(2);
/// Connection slots start here; `Token(slot + FIRST_CONN)`.
const FIRST_CONN: usize = 3;

/// Append `src` to `dst` and empty it, by swapping buffers when `dst`
/// is empty (the common case: one batch, written out in one go).
fn move_bytes(dst: &mut Vec<u8>, src: &mut Vec<u8>) {
    if dst.is_empty() {
        std::mem::swap(dst, src);
    } else {
        dst.extend_from_slice(src);
        src.clear();
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

/// The node's peer items on their way to the sockets: [`Self::seal`]
/// stages a batch's items per peer and seals each peer's share as
/// **one wire frame per peer per batch** — a [`wire::MSG_BATCH_TAG`]
/// envelope when more than one item is pending — onto the peer's
/// bounded write queue, which the reactor moves to the peer's socket.
/// With many objects in flight, a whole multi-shard vote or commit
/// round leaves as a single frame and a single `write`.
struct PeerQueues {
    bufs: Vec<PeerBatch>,
    /// Reusable envelope-encode buffer for multi-item batches.
    frame: Vec<u8>,
    /// Per peer: sealed frames not yet moved to the peer's socket
    /// (capped at [`PEER_QUEUE_CAP`]).
    queues: Vec<Vec<u8>>,
}

impl PeerQueues {
    fn new(n: usize) -> Self {
        PeerQueues {
            bufs: (0..n).map(|_| PeerBatch::default()).collect(),
            frame: Vec::new(),
            queues: vec![Vec::new(); n],
        }
    }

    /// Encode one batch's `items` and seal each peer's share onto its
    /// queue, counting a backpressure drop for every share the cap
    /// refuses.
    fn seal(&mut self, items: impl IntoIterator<Item = (SiteId, PeerFrame)>, stats: &NetStats) {
        let mut staged = false;
        for (to, item) in items {
            let Some(batch) = self.bufs.get_mut(to.index()) else {
                continue;
            };
            wire::encode_frame_into(&mut batch.bodies, |out| match &item {
                PeerFrame::Msg(msg) => wire::encode_message_into(out, msg),
                PeerFrame::Relay(relay) => wire::encode_relay_into(out, relay),
            });
            batch.count += 1;
            staged = true;
        }
        if !staged {
            return;
        }
        for (batch, queue) in self.bufs.iter_mut().zip(&mut self.queues) {
            if batch.count == 0 {
                continue;
            }
            // One pending item is already exactly one wire frame
            // (`[len][body]`); more get the batch envelope so the whole
            // round is a single frame on the stream.
            let bytes: &[u8] = if batch.count == 1 {
                &batch.bodies
            } else {
                self.frame.clear();
                wire::encode_frame_into(&mut self.frame, |out| {
                    wire::encode_batch_into(out, batch.count, &batch.bodies);
                });
                &self.frame
            };
            // The cap bounds what piles up behind a slow or dead peer,
            // not one batch: a lone batch always goes, or a site that
            // missed more than a cap's worth of log could never be
            // sent the catch-up it needs to rejoin.
            if !queue.is_empty() && queue.len() + bytes.len() > PEER_QUEUE_CAP {
                // Peer slow or down: the batch is legally lost, and
                // loudly counted.
                stats.bump_backpressure_drop();
            } else {
                queue.extend_from_slice(bytes);
            }
            batch.bodies.clear();
            batch.count = 0;
        }
    }
}

/// Everything a reactor needs at spawn time besides its node.
pub(crate) struct ReactorConfig {
    pub site: SiteId,
    pub peer_addrs: Vec<SocketAddr>,
    pub listener: TcpListener,
    pub http_listener: Option<TcpListener>,
    pub backoff: BackoffPolicy,
    pub front: Option<FrontDoor>,
    pub max_conns: usize,
    pub stats: Arc<NetStats>,
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

/// The connection in `slot`, if the slot still holds connection
/// `serial`.
fn conn_at(conns: &mut [Option<Conn>], slot: usize, serial: u64) -> Option<&mut Conn> {
    conns
        .get_mut(slot)
        .and_then(Option::as_mut)
        .filter(|conn| conn.serial == serial)
}

/// The reactor: owns the poller, the listeners, every connection, and
/// the site's node.
pub(crate) struct Reactor {
    site: SiteId,
    poller: Poller,
    waker: Waker,
    node: Node,
    /// Control ops, in-process clients and shutdown from other threads.
    inbox: Receiver<NodeEvent>,
    /// The node was handed an event since its last `end_batch`.
    fed: bool,
    /// Sealed frames per peer, filled from the node's outbox.
    peers: PeerQueues,
    /// Connections a write-out staged replies on; reused.
    touched: Vec<usize>,
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    front: Option<FrontDoor>,
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
    /// Build a reactor hosting `node`, around a poller/waker pair
    /// created at boot (so the site's inbox can hold the waker before
    /// the thread is up), reading cross-thread events from `inbox`.
    pub(crate) fn new(
        poller: Poller,
        waker: Waker,
        node: Node,
        inbox: Receiver<NodeEvent>,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        let n = config.peer_addrs.len();
        config.listener.set_nonblocking(true)?;
        poller.register(&config.listener, TOKEN_LISTENER, Interest::READABLE)?;
        if let Some(http) = &config.http_listener {
            http.set_nonblocking(true)?;
            poller.register(http, TOKEN_HTTP, Interest::READABLE)?;
        }
        Ok(Reactor {
            site: config.site,
            poller,
            waker,
            node,
            inbox,
            fed: false,
            peers: PeerQueues::new(n),
            touched: Vec::new(),
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
            stats: config.stats,
            scratch: vec![0u8; READ_CHUNK],
            msg_scratch: Vec::new(),
        })
    }

    /// The site's loop, until the inbox says [`NodeEvent::Shutdown`] (or
    /// every sender is gone): poll up to the earlier of the reactor's
    /// reconnect timers and the node's next deadline, hand the node
    /// every frame and inbox event the wake brought, close the node's
    /// batch once, then write.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(512);
        self.node.start();
        self.write_out();
        loop {
            let now = Instant::now();
            self.fire_timers(&now);
            // Writing can resume a paused HTTP connection and hand the
            // node its next request; that batch must close before the
            // site sleeps.
            let timeout = if self.fed {
                Some(Duration::ZERO)
            } else {
                let reconnect = poll_timeout(self.timers.next_deadline().copied(), now);
                match (reconnect, self.node.next_timer_in()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // EBADF etc. cannot self-heal; bail out of the thread.
                eprintln!("dynvote-node-{}: poll failed: {e}", self.site);
                break;
            }
            for ev in events.iter() {
                match ev.token() {
                    // Drained before the inbox scan below, so a wake
                    // that races it is never lost.
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => self.accept_binary(),
                    TOKEN_HTTP => self.accept_http(),
                    Token(t) => {
                        self.handle_conn_event(t - FIRST_CONN, ev.is_readable(), ev.is_writable());
                    }
                }
            }
            if !self.drain_inbox() {
                break;
            }
            self.node.end_batch();
            self.fed = false;
            self.write_out();
        }
        self.node.finish();
        self.final_flush();
    }

    /// Run one event on the node; the loop closes the batch.
    fn feed(&mut self, event: NodeEvent) {
        self.node.on_event(event);
        self.fed = true;
    }

    /// Hand the node everything other threads sent. `false` once the
    /// inbox says stop.
    fn drain_inbox(&mut self) -> bool {
        loop {
            match self.inbox.try_recv() {
                Ok(NodeEvent::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Ok(event) => self.feed(event),
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    // ----- writing out the batch -----------------------------------

    /// Move what the batch put in the node's outbox to the sockets:
    /// O(replies + peers). An answered HTTP connection resumes parsing
    /// first, which may hand the node its next request; whatever that
    /// puts in the outbox goes with the next batch.
    fn write_out(&mut self) {
        self.stage_outbox();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &slot in &touched {
            // Resume parsing only if this wasn't the final response.
            let resume = matches!(
                self.conns[slot].as_ref(),
                Some(conn) if matches!(conn.kind, ConnKind::Http) && !conn.close_after_write
            );
            if resume && !self.process_http(slot) {
                continue; // connection died while resuming
            }
            self.try_write(slot);
        }
        touched.clear();
        self.touched = touched;
        self.pump_peer_queues();
    }

    /// Empty the node's outbox: seal the peer items onto their queues
    /// and stage every reply, noting the connections that gained bytes
    /// in `touched`.
    fn stage_outbox(&mut self) {
        self.peers.seal(self.node.out.peers.drain(..), &self.stats);
        let mut replies = std::mem::take(&mut self.node.out.replies);
        for (sink, id, reply) in replies.drain(..) {
            self.stage_reply(sink, id, reply);
        }
        self.node.out.replies = replies;
    }

    /// Stage one reply for its client. A connection reply goes only to
    /// the connection its sink was made for: a slot that has since been
    /// reused holds another serial, and the reply is dropped with the
    /// connection it was for.
    fn stage_reply(&mut self, sink: ReplySink, id: u64, reply: ClientReply) {
        match sink {
            ReplySink::Channel(tx) => {
                let _ = tx.send((id, reply));
            }
            ReplySink::Conn { slot, serial } => {
                if let Some(conn) = conn_at(&mut self.conns, slot, serial) {
                    wire::encode_frame_into(&mut conn.pending, |out| {
                        wire::encode_reply_into(out, id, &reply);
                    });
                    self.touched.push(slot);
                }
            }
            ReplySink::Http {
                slot,
                serial,
                started,
                keep_alive,
                charged,
            } => {
                let front = self
                    .front
                    .as_mut()
                    .expect("HTTP ops come through the front door");
                // Every admitted op is answered exactly once, so its slot
                // comes back here, whether or not its client stayed.
                if charged {
                    front.settle(started);
                }
                let Some(conn) = conn_at(&mut self.conns, slot, serial).filter(|conn| conn.blocked)
                else {
                    return;
                };
                front.write_reply(&mut conn.pending, &reply, keep_alive);
                conn.blocked = false;
                if !keep_alive {
                    conn.close_after_write = true;
                }
                self.stats.bump_http_response();
                self.touched.push(slot);
            }
            ReplySink::Null => {}
        }
    }

    fn pump_peer_queues(&mut self) {
        for idx in 0..self.peer_addrs.len() {
            if idx == self.site.index() || self.peers.queues[idx].is_empty() {
                continue;
            }
            match self.peer_slot[idx] {
                Some(slot) => {
                    if self.peer_connected(slot) {
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
        if let Some(conn) = self.conns[slot].as_mut() {
            move_bytes(&mut conn.pending, &mut self.peers.queues[peer]);
        }
    }

    /// Whether `slot` is an outbound peer link whose connect completed.
    fn peer_connected(&self, slot: usize) -> bool {
        matches!(
            self.conns[slot].as_ref().map(|c| &c.kind),
            Some(ConnKind::PeerOut {
                connected: true,
                ..
            })
        )
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
        self.peers.queues[peer].clear();
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
            let has_data = !self.peers.queues[peer].is_empty();
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
        if let ConnKind::PeerOut { peer, .. } = conn.kind {
            self.peer_slot[peer] = None;
        }
        // A blocked HTTP op's admission slot is NOT released here: the
        // node still holds the op and will answer it, and staging that
        // answer releases the slot even though the connection is gone.
        // Every accepted op gets exactly one reply — Down at shutdown
        // if nothing else — so the budget cannot leak.
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
                    // the decoder, and a frame that fails to decode
                    // part-way must deliver nothing), then handed to
                    // the node.
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
                            for item in msgs.drain(..) {
                                self.feed(match item {
                                    wire::PeerFrame::Msg(msg) => NodeEvent::Peer { from, msg },
                                    wire::PeerFrame::Relay(relay) => {
                                        NodeEvent::Relay { from, relay }
                                    }
                                });
                            }
                            self.msg_scratch = msgs;
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
                    let serial = self.conns[slot].as_ref().expect("decoding conn").serial;
                    let reply = ReplySink::Conn { slot, serial };
                    self.feed(NodeEvent::Client { id, op, reply });
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
        let Some(front) = self.front.as_mut() else {
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
                self.dispatch_to_node(slot, op, req.keep_alive, true);
                true
            }
            (Method::Get, "/metrics") => {
                let body = front.render_metrics(&self.node.event_counts);
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
                self.dispatch_to_node(slot, wire::ClientOp::Status, req.keep_alive, false);
                true
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

    /// Hand an op to the node, pausing the connection until write-out
    /// stages the response. `charged`: the op holds an admission slot.
    fn dispatch_to_node(
        &mut self,
        slot: usize,
        op: wire::ClientOp,
        keep_alive: bool,
        charged: bool,
    ) {
        let conn = self.conns[slot]
            .as_mut()
            .expect("a routed request's connection is live");
        conn.blocked = true;
        let reply = ReplySink::Http {
            slot,
            serial: conn.serial,
            started: Instant::now(),
            keep_alive,
            charged,
        };
        self.feed(NodeEvent::Client { id: 0, op, reply });
        self.update_interest(slot);
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
    /// shutdown, so what the node's [`Node::finish`] staged usually
    /// makes it out. Paused HTTP connections are not resumed and no
    /// peer is dialed.
    fn final_flush(&mut self) {
        self.stage_outbox();
        for peer in 0..self.peer_addrs.len() {
            if let Some(slot) = self.peer_slot[peer].filter(|&slot| self.peer_connected(slot)) {
                self.drain_peer_queue_into(peer, slot);
            }
        }
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                if !conn.pending.is_empty() {
                    let _ = conn.stream.write(&conn.pending);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::{CopyMeta, Distinguished, SiteSet};
    use dynvote_protocol::{LogEntry, Message, TxnId};

    /// A commit carrying `entries` log entries: what a coordinator sends
    /// a participant that missed that much history.
    fn catch_up(entries: u64) -> Message {
        Message::Commit {
            txn: TxnId::new(SiteId(0), 1),
            meta: CopyMeta {
                version: entries,
                cardinality: 3,
                distinguished: Distinguished::Irrelevant,
            },
            entries: (1..=entries)
                .map(|version| LogEntry {
                    version,
                    payload: version,
                })
                .collect(),
            participants: SiteSet::all(3),
        }
    }

    /// A site that was down long enough is sent a commit bigger than
    /// the queue cap. It must still be queued — dropping it every time
    /// left the site in doubt forever — while anything piling up behind
    /// it is dropped and counted.
    #[test]
    fn an_oversized_batch_goes_but_nothing_piles_up_behind_it() {
        let stats = NetStats::new();
        let mut peers = PeerQueues::new(3);
        let big = catch_up(PEER_QUEUE_CAP as u64 / 8);
        peers.seal([(SiteId(1), PeerFrame::Msg(big))], &stats);
        let queued = peers.queues[1].len();
        assert!(queued > PEER_QUEUE_CAP, "{queued} bytes queued");
        assert_eq!(stats.get("backpressure_drops"), 0);

        peers.seal([(SiteId(1), PeerFrame::Msg(catch_up(1)))], &stats);
        assert_eq!(peers.queues[1].len(), queued, "piled up behind it");
        assert_eq!(stats.get("backpressure_drops"), 1);
    }
}
