//! The per-site readiness reactor: the one thread that owns a TCP
//! site — every fd, the node's kernels and its WAL.
//!
//! A single hand-rolled epoll [`Poller`] (`dynvote-net`) multiplexes:
//!
//! * **Outbound peer links** — nonblocking connect with reconnect
//!   backoff (the shared [`BackoffPolicy`] schedule on the reactor's
//!   [`TimerWheel`]), a [`wire::HELLO_PEER`] preamble on establish, and
//!   one bounded byte buffer per peer ([`PeerLink`]): each batch's
//!   items are encoded straight into it, one `[len][body]` frame each,
//!   and the socket writes straight out of it. A batch that would pile
//!   up past the cap behind a slow, stalled or unreachable peer is
//!   dropped and counted as a backpressure drop — message loss is
//!   legal, silence is not.
//! * **Inbound connections** — accepted nonblocking, classified by the
//!   one-byte preamble (peer frames vs. binary client frames), and
//!   decoded incrementally with [`FrameDecoder`] so pipelined frames
//!   split at arbitrary byte boundaries all land.
//! * **The HTTP front door** — same reactor, see [`crate::frontdoor`].
//!
//! Ownership model: the reactor owns the site's [`Node`]. Every peer
//! frame, relay and client op it decodes goes straight to
//! [`Node::on_event`] with the time the poll returned; once per poll
//! iteration [`Node::end_batch`] seals the batch (WAL barrier, then
//! sends and replies into the node's outbox) and the reactor drains the
//! outbox: peer items are sealed onto their peers' buffers, and each
//! answer is staged where its token's [`Waiting`] entry says — on a
//! connection only if that slot still holds the same connection.
//! `NetStats` never reaches the node: the counters are the reactor's,
//! and it answers from them. Nothing is shared and nothing rings a
//! waker: the producer is this thread, and it writes right after the
//! batch. The only way in from another thread is the site's inbox (see
//! `crate::cluster`), whose every send rings the [`Waker`].
//!
//! Level-triggered discipline: interest is narrowed whenever a
//! direction is idle — `WRITABLE` only while bytes are pending,
//! `READABLE` dropped while an HTTP connection has an op in flight —
//! so an idle site sleeps in `epoll_pwait` at zero CPU until a socket,
//! its inbox or the node's next deadline wakes it. A paused connection
//! that reports a hang-up or an error is closed at once, since epoll
//! reports those whatever the interest.

use crate::cluster::{ReplySender, SiteEvent};
use crate::frontdoor::{write_reply, FrontDoor};
use crate::transport::{NetStats, ReplyTable};
use crate::wire::{self, ClientOp, ClientReply, PeerFrame, HELLO_CLIENT, HELLO_PEER, MAX_FRAME};
use dynvote_core::{BackoffPolicy, SiteId, TimerWheel};
use dynvote_net::{
    poll_timeout, Event, Events, FrameDecoder, Interest, Poller, RequestParser, Token, Waker,
};
use dynvote_node::{Node, NodeEvent};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Cap on the bytes one peer link holds. When a batch would push a
/// non-empty buffer past it (peer down, slow or not reading), the
/// batch's frames for that peer are dropped and counted — the site
/// never blocks on a peer.
pub(crate) const PEER_QUEUE_CAP: usize = 256 * 1024;

/// Reactor read chunk size.
const READ_CHUNK: usize = 64 * 1024;

pub(crate) const TOKEN_WAKER: Token = Token(0);
const TOKEN_LISTENER: Token = Token(1);
const TOKEN_HTTP: Token = Token(2);
/// Connection slots start here; `Token(slot + FIRST_CONN)`.
const FIRST_CONN: usize = 3;

/// One outbound peer link: its connection, its redial state and the
/// one buffer its frames wait in until the socket takes them.
#[derive(Default)]
struct PeerLink {
    /// Slot of the link's connection, when one exists.
    slot: Option<usize>,
    /// Consecutive failed dials (backoff round).
    round: u32,
    /// True while a reconnect timer is armed.
    waiting: bool,
    /// Bytes not yet written, capped at [`PEER_QUEUE_CAP`]. A partial
    /// write leaves it starting mid-frame, so it goes when its
    /// connection does.
    out: Vec<u8>,
    /// `out`'s length when the batch being sealed began.
    mark: usize,
}

/// Encode one batch's peer `items` onto their links' buffers: one
/// `[len][body]` frame per item, in send order. The cap bounds what
/// piles up behind a slow or dead peer, not one batch: a buffer that
/// was empty takes the whole batch, or a site that missed more than a
/// cap's worth of log could never be sent the catch-up it needs to
/// rejoin. A buffer that already held bytes and is now past the cap
/// loses this batch's frames — legally lost, and loudly counted.
fn seal(
    links: &mut [PeerLink],
    items: impl IntoIterator<Item = (SiteId, PeerFrame)>,
    stats: &mut NetStats,
) {
    for link in links.iter_mut() {
        link.mark = link.out.len();
    }
    for (to, item) in items {
        let Some(link) = links.get_mut(to.index()) else {
            continue;
        };
        wire::encode_frame_into(&mut link.out, |out| match &item {
            PeerFrame::Msg(msg) => wire::encode_message_into(out, msg),
            PeerFrame::Relay(relay) => wire::encode_relay_into(out, relay),
        });
    }
    for link in links {
        let grew = link.out.len() > link.mark;
        if grew && link.mark > 0 && link.out.len() > PEER_QUEUE_CAP {
            link.out.truncate(link.mark);
            stats.bump_backpressure_drop();
        }
    }
}

/// Where the answer to an op handed to the node goes.
enum Waiting {
    /// In-process client: the answer is sent on its channel.
    Channel(ReplySender),
    /// Remote binary client on connection `slot`, if the slot still
    /// holds connection `serial`.
    Conn { slot: usize, serial: u64 },
    /// HTTP front-door op on connection `slot`, if the slot still holds
    /// connection `serial` (see [`crate::frontdoor`]).
    Http {
        slot: usize,
        serial: u64,
        /// When the front door handed the op over.
        started: Instant,
        /// Whether the response keeps the connection open.
        keep_alive: bool,
        /// The op holds an admission slot, which its answer gives back
        /// whether or not the connection is still there.
        charged: bool,
    },
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
}

enum ConnKind {
    /// Awaiting the preamble byte(s) on an inbound connection.
    Handshake,
    /// Inbound peer link: frames become peer events for the node.
    PeerIn { from: SiteId },
    /// Outbound peer link owned by this node.
    PeerOut { peer: usize, connected: bool },
    /// Inbound binary client: frames become client ops.
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
    /// Bytes the reactor still has to write to this socket; an
    /// outbound peer link writes from its [`PeerLink`] buffer instead.
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

impl Conn {
    /// Reading stops while an HTTP op is in flight or the connection is
    /// closing.
    fn paused(&self) -> bool {
        self.blocked || self.close_after_write
    }

    /// The socket, and the bytes waiting for it: an outbound peer
    /// link's come from its link.
    fn outgoing<'a>(
        &'a mut self,
        links: &'a mut [PeerLink],
    ) -> (&'a mut TcpStream, &'a mut Vec<u8>) {
        match self.kind {
            ConnKind::PeerOut { peer, .. } => (&mut self.stream, &mut links[peer].out),
            _ => (&mut self.stream, &mut self.pending),
        }
    }
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
    /// Where each answer the node owes goes, by its token.
    waiting: ReplyTable<Waiting>,
    /// Control ops, in-process clients and shutdown from other threads.
    inbox: Receiver<SiteEvent>,
    /// The node was handed an event since its last `end_batch`.
    fed: bool,
    /// When the latest poll returned: the node's `now` for the batch.
    now: Instant,
    /// Outbound link per site (this site's own stays idle).
    links: Vec<PeerLink>,
    /// Connections a write-out staged replies on; reused.
    touched: Vec<usize>,
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    front: Option<FrontDoor>,
    peer_addrs: Vec<SocketAddr>,
    backoff: BackoffPolicy,
    timers: TimerWheel<Instant, usize>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_serial: u64,
    max_conns: usize,
    open_conns: usize,
    stats: NetStats,
    scratch: Vec<u8>,
}

impl Reactor {
    /// Build a reactor hosting `node`, around a poller/waker pair
    /// created at boot (so the site's inbox can hold the waker before
    /// the thread is up), reading cross-thread events from `inbox`.
    pub(crate) fn new(
        poller: Poller,
        waker: Waker,
        node: Node,
        inbox: Receiver<SiteEvent>,
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
            waiting: ReplyTable::new(),
            inbox,
            fed: false,
            now: Instant::now(),
            links: (0..n).map(|_| PeerLink::default()).collect(),
            touched: Vec::new(),
            listener: config.listener,
            http_listener: config.http_listener,
            front: config.front,
            peer_addrs: config.peer_addrs,
            backoff: config.backoff,
            timers: TimerWheel::new(),
            conns: Vec::new(),
            free: Vec::new(),
            next_serial: 0,
            max_conns: config.max_conns,
            open_conns: 0,
            stats: NetStats::new(),
            scratch: vec![0u8; READ_CHUNK],
        })
    }

    /// The site's loop, until the inbox says [`SiteEvent::Shutdown`] (or
    /// every sender is gone): poll up to the earlier of the reactor's
    /// reconnect timers and the node's next deadline, hand the node
    /// every frame and inbox event the wake brought, close the node's
    /// batch once, then write.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(512);
        self.node.start(Instant::now());
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
                match (reconnect, self.node.next_timer_in(now)) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };
            if let Err(e) = self.poll(&mut events, timeout) {
                // EBADF etc. cannot self-heal; bail out of the thread.
                eprintln!("dynvote-node-{}: poll failed: {e}", self.site);
                break;
            }
            // The waker was drained before this scan, so a wake that
            // races it is never lost.
            if !self.drain_inbox() {
                break;
            }
            self.node.end_batch(self.now);
            self.fed = false;
            self.write_out();
        }
        self.node.finish(Instant::now());
        self.final_flush();
    }

    /// Wait up to `timeout` for readiness, read the clock once, and
    /// handle every event the wait brought.
    fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.poller.wait(events, timeout)?;
        self.now = Instant::now();
        for ev in events.iter() {
            match ev.token() {
                TOKEN_WAKER => self.waker.drain(),
                TOKEN_LISTENER => self.accept_binary(),
                TOKEN_HTTP => self.accept_http(),
                Token(t) => self.handle_conn_event(t - FIRST_CONN, ev),
            }
        }
        Ok(())
    }

    /// Run one event on the node; the loop closes the batch.
    fn feed(&mut self, event: NodeEvent) {
        self.node.on_event(event, self.now);
        self.fed = true;
    }

    /// Hand a client op to the node under a token for `to`. `NetStats`
    /// is answered here, from the counters this reactor keeps.
    fn submit(&mut self, id: u64, op: ClientOp, to: Waiting) {
        if op == ClientOp::NetStats {
            let counts = self.stats.snapshot();
            self.stage_reply(to, id, ClientReply::NetStats { counts });
            return;
        }
        let reply = self.waiting.token(to);
        self.feed(NodeEvent::Client { id, op, reply });
    }

    /// Hand the node everything other threads sent. `false` once the
    /// inbox says stop.
    fn drain_inbox(&mut self) -> bool {
        loop {
            match self.inbox.try_recv() {
                Ok(SiteEvent::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Ok(SiteEvent::Node(event)) => self.feed(event),
                Ok(SiteEvent::Client { id, op, reply }) => {
                    self.submit(id, op, Waiting::Channel(reply));
                }
                Ok(SiteEvent::Stats(reply)) => {
                    let _ = reply.send(self.node.shard_stats().clone());
                }
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
        self.pump_peer_links();
    }

    /// Empty the node's outbox: seal the peer items onto their links
    /// and stage every reply, noting the connections that gained bytes
    /// in `touched`.
    fn stage_outbox(&mut self) {
        seal(
            &mut self.links,
            self.node.outbox().peers.drain(..),
            &mut self.stats,
        );
        let mut replies = std::mem::take(&mut self.node.outbox().replies);
        for (token, id, reply) in replies.drain(..) {
            if let Some(to) = self.waiting.take(token) {
                self.stage_reply(to, id, reply);
            }
        }
        self.node.outbox().replies = replies;
    }

    /// Stage one reply for its client. A connection reply goes only to
    /// the connection it was meant for: a slot that has since been
    /// reused holds another serial, and the reply is dropped with the
    /// connection it was for.
    fn stage_reply(&mut self, to: Waiting, id: u64, reply: ClientReply) {
        match to {
            Waiting::Channel(tx) => {
                let _ = tx.send((id, reply));
            }
            Waiting::Conn { slot, serial } => {
                if let Some(conn) = conn_at(&mut self.conns, slot, serial) {
                    wire::encode_frame_into(&mut conn.pending, |out| {
                        wire::encode_reply_into(out, id, &reply);
                    });
                    self.touched.push(slot);
                }
            }
            Waiting::Http {
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
                let shard = self.node.shard_stats();
                write_reply(&mut conn.pending, &reply, keep_alive, shard);
                conn.blocked = false;
                if !keep_alive {
                    conn.close_after_write = true;
                }
                self.stats.bump_http_response();
                self.touched.push(slot);
            }
        }
    }

    /// Write each peer link that holds frames, or dial it.
    fn pump_peer_links(&mut self) {
        for peer in 0..self.links.len() {
            let link = &self.links[peer];
            if peer == self.site.index() || link.out.is_empty() {
                continue;
            }
            match link.slot {
                Some(slot) if self.peer_connected(slot) => self.try_write(slot),
                Some(_) => {} // connect completion writes the frames
                None if !link.waiting => self.start_connect(peer),
                None => {} // the backoff timer dials when it fires
            }
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
                self.links[peer].slot = Some(slot);
                let interest = if connected {
                    Interest::READABLE // hello + frames written below
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

    /// The preamble goes ahead of the frames buffered while dialing.
    fn on_peer_connected(&mut self, slot: usize, peer: usize) {
        if self.conns[slot].is_none() {
            return; // registering it failed, and closed it
        }
        let link = &mut self.links[peer];
        link.round = 0;
        link.out.splice(0..0, [HELLO_PEER, self.site.0]);
        self.try_write(slot);
    }

    fn dial_failed(&mut self, peer: usize) {
        self.stats.bump_dial_failure();
        let link = &mut self.links[peer];
        link.slot = None;
        // The buffered frames would arrive stale after the backoff;
        // drop them (legal loss) so memory stays bounded while the peer
        // is down.
        link.out.clear();
        let round = link.round;
        link.round = round.saturating_add(1);
        link.waiting = true;
        // The shared node backoff schedule is in milliseconds; skip the
        // jitter draw (u = 0.5 is the midpoint) — one reactor per
        // process has no retry storm to decorrelate.
        let delay_ms = self.backoff.delay(round, 0.5).max(1.0);
        self.timers.schedule(
            Instant::now() + std::time::Duration::from_secs_f64(delay_ms / 1000.0),
            peer,
        );
    }

    fn fire_timers(&mut self, now: &Instant) {
        while let Some((_, peer)) = self.timers.pop_due(now) {
            let link = &mut self.links[peer];
            link.waiting = false;
            if !link.out.is_empty() && link.slot.is_none() {
                self.start_connect(peer);
            }
        }
    }

    // ----- accepting -----------------------------------------------

    /// Accept until the listener has no connection left to give
    /// (`WouldBlock`) or fails.
    fn accept_binary(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            self.admit_conn(stream, ConnKind::Handshake);
        }
    }

    fn accept_http(&mut self) {
        while let Some(Ok((stream, _))) = self.http_listener.as_ref().map(TcpListener::accept) {
            self.admit_conn(stream, ConnKind::Http);
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
            // What is left may begin mid-frame: it goes with the
            // connection.
            let link = &mut self.links[peer];
            link.slot = None;
            link.out.clear();
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

    fn handle_conn_event(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if let ConnKind::PeerOut {
            peer,
            connected: false,
        } = conn.kind
        {
            if ev.is_writable() || ev.is_readable() {
                self.finish_connect(slot, peer);
            }
            return;
        }
        if conn.paused() && (ev.is_hangup() || ev.is_error()) {
            // A reset socket reports HUP|ERR on every poll, whatever
            // its interest, and a paused connection never reads to find
            // out: close it, or the loop spins until its op is
            // answered.
            self.close_conn(slot);
            return;
        }
        if ev.is_readable() && !self.read_conn(slot) {
            return; // closed
        }
        if ev.is_writable() {
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
            if conn.paused() {
                return true; // interest already narrowed
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
                    match self.next_frame(slot, wire::decode_peer_frame) {
                        Ok(Some(frame)) => self.feed(NodeEvent::Peer { from, frame }),
                        Ok(None) => return true,
                        Err(()) => return false,
                    }
                }
            }
            ConnKind::ClientBin => {
                conn.decoder.extend(&self.scratch[start..n]);
                loop {
                    match self.next_frame(slot, wire::decode_request) {
                        Ok(Some((id, op))) => {
                            let serial = self.conns[slot].as_ref().expect("decoding conn").serial;
                            self.submit(id, op, Waiting::Conn { slot, serial });
                        }
                        Ok(None) => return true,
                        Err(()) => return false,
                    }
                }
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

    /// Decode the next whole frame buffered on `slot` with `decode`:
    /// `Ok(None)` once none is left, `Err` for a bad frame, which is
    /// counted and closes the connection.
    fn next_frame<T>(
        &mut self,
        slot: usize,
        decode: fn(&[u8]) -> Result<T, wire::WireError>,
    ) -> Result<Option<T>, ()> {
        let conn = self.conns[slot].as_mut().expect("decoding conn");
        // Decode into an owned value before touching `self` again (the
        // frame borrows the decoder).
        let next = match conn.decoder.next_frame() {
            Ok(Some(body)) => decode(body).map(Some).map_err(drop),
            Ok(None) => Ok(None),
            Err(_) => Err(()),
        };
        match next {
            Ok(Some(_)) => self.stats.bump_frame_in(),
            Ok(None) => {}
            Err(()) => {
                self.stats.bump_decode_error();
                self.close_conn(slot);
            }
        }
        next
    }

    /// Parse and route buffered HTTP requests until the parser runs
    /// dry, an op blocks the connection, or a parse error ends it.
    /// Returns `false` if the connection was closed.
    fn process_http(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            if conn.paused() {
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
                let body = front.render_metrics(
                    self.node.event_counts(),
                    &self.stats,
                    self.node.shard_stats(),
                );
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
        let to = Waiting::Http {
            slot,
            serial: conn.serial,
            started: Instant::now(),
            keep_alive,
            charged,
        };
        self.submit(0, op, to);
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

    /// Write as much of the connection's outgoing bytes as the socket
    /// accepts, then narrow or widen interest to match what is left.
    fn try_write(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let (stream, pending) = conn.outgoing(&mut self.links);
            if pending.is_empty() {
                break;
            }
            match stream.write(pending) {
                Ok(0) => {
                    self.close_conn(slot);
                    return;
                }
                Ok(written) => {
                    pending.drain(..written);
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
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            conn.close_after_write && conn.outgoing(&mut self.links).1.is_empty()
        };
        if done {
            self.close_conn(slot);
            return;
        }
        self.update_interest(slot);
    }

    /// Recompute and apply the connection's epoll interest from its
    /// state: `WRITABLE` iff bytes are pending, `READABLE` unless the
    /// connection is paused.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut want = Interest::NONE;
        if !conn.outgoing(&mut self.links).1.is_empty() {
            want = want.add(Interest::WRITABLE);
        }
        if !conn.paused() {
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
        for conn in self.conns.iter_mut().flatten() {
            if let ConnKind::PeerOut {
                connected: false, ..
            } = conn.kind
            {
                continue; // no preamble yet
            }
            let (stream, pending) = conn.outgoing(&mut self.links);
            if !pending.is_empty() {
                let _ = stream.write(pending);
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
    /// the cap. It must still be buffered — dropping it every time
    /// left the site in doubt forever — while anything piling up behind
    /// it is dropped and counted.
    #[test]
    fn an_oversized_batch_goes_but_nothing_piles_up_behind_it() {
        let mut stats = NetStats::new();
        let mut links: Vec<PeerLink> = (0..3).map(|_| PeerLink::default()).collect();
        let big = catch_up(PEER_QUEUE_CAP as u64 / 8);
        seal(&mut links, [(SiteId(1), PeerFrame::Msg(big))], &mut stats);
        let queued = links[1].out.len();
        assert!(queued > PEER_QUEUE_CAP, "{queued} bytes queued");
        assert_eq!(stats.get("backpressure_drops"), 0);

        seal(
            &mut links,
            [(SiteId(1), PeerFrame::Msg(catch_up(1)))],
            &mut stats,
        );
        assert_eq!(links[1].out.len(), queued, "piled up behind it");
        assert_eq!(stats.get("backpressure_drops"), 1);
    }

    /// A peer that accepts the link and never reads fills the kernel's
    /// socket buffers, then the link's buffer. From there on the cap
    /// holds: batches are dropped and counted, and the bytes held for
    /// the peer stay within the cap plus one batch.
    #[test]
    fn a_connected_peer_that_stops_reading_holds_at_most_the_cap() {
        use dynvote_core::AlgorithmKind;
        use dynvote_node::NodeConfig;
        let own = TcpListener::bind("127.0.0.1:0").expect("bind own listener");
        let stalled = TcpListener::bind("127.0.0.1:0").expect("bind peer listener");
        let poller = Poller::new().expect("epoll");
        let waker = Waker::new(&poller, TOKEN_WAKER).expect("waker");
        let (_inbox_tx, inbox) = std::sync::mpsc::channel();
        let node = Node::new(
            SiteId(0),
            2,
            1,
            AlgorithmKind::Hybrid,
            NodeConfig::default(),
        );
        let config = ReactorConfig {
            site: SiteId(0),
            peer_addrs: vec![
                own.local_addr().expect("own address"),
                stalled.local_addr().expect("peer address"),
            ],
            listener: own,
            http_listener: None,
            backoff: NodeConfig::default().backoff,
            front: None,
            max_conns: 16,
        };
        let mut reactor = Reactor::new(poller, waker, node, inbox, config).expect("reactor");
        let mut events = Events::with_capacity(16);
        let commit = catch_up(512);
        let mut batch = Vec::new();
        wire::encode_frame_into(&mut batch, |out| wire::encode_message_into(out, &commit));

        let mut link = None; // accepted, never read
        let mut held = 0;
        for _ in 0..2_000 {
            let item = (SiteId(1), PeerFrame::Msg(commit.clone()));
            reactor.node.outbox().peers.push(item);
            reactor.write_out();
            reactor
                .poll(&mut events, Some(Duration::ZERO))
                .expect("poll");
            if link.is_none() {
                link = Some(stalled.accept().expect("accept the link"));
            }
            held = held.max(reactor.links[1].out.len());
        }
        assert!(
            reactor.links[1]
                .slot
                .is_some_and(|slot| reactor.peer_connected(slot)),
            "the link stayed up"
        );
        assert!(
            held <= PEER_QUEUE_CAP + batch.len(),
            "{held} bytes held for a peer that stopped reading"
        );
        assert!(
            reactor.stats.get("backpressure_drops") > 0,
            "nothing was dropped"
        );
    }
}
